"""The batched Graph Search read paths.

A conjunctive node search resolves all its patterns in one
``search_batch`` per flat file, and a filtered ``get_neighbor_ids``
reads its neighbours' properties with one ``get_properties_batch`` per
store. Each batched path is pinned to its per-item reference, on both
codecs and on eager and mmap loads.
"""

import pytest
from conftest import hypothesis_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphData, ZipG
from repro.core.errors import NodeNotFound
from repro.core.persistence import load_store, save_store
from repro.succinct import SuccinctFile, succinct_file
from repro.succinct.offsets import OffsetArrayFile

SEARCH_CUTOFF = succinct_file._SCALAR_SEARCH_CUTOFF
CODECS = (SuccinctFile, OffsetArrayFile)


def naive_offsets(text, pattern):
    return [i for i in range(len(text) - len(pattern) + 1)
            if text[i:i + len(pattern)] == pattern]


def as_lists(results):
    return [offsets.tolist() for offsets in results]


def conjunctive(per_pattern):
    """What ``search_batch`` answers for these per-pattern results: all
    of them when every pattern occurs, else all empty."""
    per_pattern = list(per_pattern)
    return per_pattern if all(per_pattern) else [[] for _ in per_pattern]


# ----------------------------------------------------------------------
# search_batch == [search(p) for p in patterns] when every pattern
# occurs (and all empty when one does not), on both codecs
# ----------------------------------------------------------------------


each_codec = pytest.mark.parametrize(
    "codec", CODECS, ids=[cls.encoding_name for cls in CODECS])


@each_codec
@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(
    text=st.lists(st.integers(1, 4), min_size=1, max_size=300).map(bytes),
    data=st.data(),
)
def test_search_batch_equals_per_pattern_search(codec, text, data):
    for flat in (codec(text, alpha=4), codec.from_bytes(codec(text, alpha=4).to_bytes())):
        start = data.draw(st.integers(0, len(text) - 1))
        present = text[start:start + data.draw(st.integers(1, 5))]
        pattern = st.one_of(
            st.just(present),                       # occurs
            st.just(present[:1]),                   # shares its prefix
            st.just(b""),                           # empty
            st.lists(st.integers(1, 6), min_size=1, max_size=4).map(bytes),
        )
        patterns = data.draw(st.lists(pattern, max_size=5))
        patterns += patterns[:1]                    # a repeated pattern
        per_pattern = as_lists(flat.search(p) for p in patterns)
        got = as_lists(flat.search_batch(patterns))
        assert got == conjunctive(per_pattern)
        if all(per_pattern):
            assert got == per_pattern
            for pattern, offsets in zip(patterns, got):
                if pattern:
                    assert offsets == naive_offsets(text, pattern)
        else:
            assert got == [[] for _ in patterns]


@each_codec
def test_search_batch_totals_cross_the_scalar_cutoff(codec):
    # Hit counts 1, cutoff - 1, cutoff and cutoff + 1, so pattern sets
    # below, at and above the cutoff in total.
    text = bytes([5] + [1, 2] * (SEARCH_CUTOFF - 1) + [3] * SEARCH_CUTOFF
                 + [4] * (SEARCH_CUTOFF + 1))
    flat = codec(text, alpha=8)
    for patterns in (
        [b"\x05"],
        [b"\x05", b"\x01\x02"],                     # total == cutoff
        [b"\x03"],
        [b"\x05", b"\x03"],                         # total == cutoff + 1
        [b"\x04", b"\x01", b"\x03\x04"],           # far above
        [b"\x04", b"\x01", b"\x03\x04", b"\x06"],  # far above, one absent
        [],
    ):
        per_pattern = [naive_offsets(text, p) for p in patterns]
        assert as_lists(flat.search(p) for p in patterns) == per_pattern
        assert as_lists(flat.search_batch(patterns)) == conjunctive(per_pattern)


@each_codec
def test_search_batch_is_conjunctive(codec):
    text = b"abcabcabd" * 20
    flat = codec(text, alpha=4)
    patterns = [b"abc", b"bd"]
    assert as_lists(flat.search_batch(patterns)) == [
        naive_offsets(text, p) for p in patterns
    ]
    for missing in ([b"abc", b"zz"], [b"zz", b"abc"], [b"abc", b"bd", b"dd"]):
        assert as_lists(flat.search_batch(missing)) == [[] for _ in missing]


# ----------------------------------------------------------------------
# A store with every kind of node location
# ----------------------------------------------------------------------

CITIES = ("Ithaca", "Paris", "Oslo")
INTERESTS = ("music", "chess")
FANNED, REAPPENDED, DELETED, LOG_ONLY = 13, 14, 21, 70


def build_store(encoding):
    """Nodes with absent properties, duplicate edges, and every node
    location: a node updated into a frozen shard and again into the
    LogStore, a node re-appended while its home copy stays live, a
    deleted node, and a node only the LogStore holds."""
    graph = GraphData()
    for node in range(60):
        properties = {"name": f"n{node}"}
        if node % 5:
            properties["city"] = CITIES[node % 3]
        if node % 4:
            properties["interest"] = INTERESTS[node % 2]
        graph.add_node(node, properties)
    for source in range(6):
        for k in range(30):
            graph.add_edge(source, (source * 7 + k * 3) % 60, k % 2, 100 + k)
        for destination in (FANNED, REAPPENDED, DELETED, DELETED, FANNED):
            graph.add_edge(source, destination, 0, 200)
    store = ZipG.compress(graph, num_shards=3, alpha=4, encoding=encoding,
                          extra_property_ids=["extra"])
    store.update_node(FANNED, {"name": "f1", "city": "Oslo", "interest": "chess"})
    store.freeze_logstore()
    store.update_node(FANNED, {"name": "f2", "city": "Ithaca"})
    store.append_node(REAPPENDED, {"name": "r", "city": "Paris", "extra": "e"})
    store.delete_node(DELETED)
    store.append_node(LOG_ONLY, {"name": "l", "city": "Ithaca"})
    for source in range(6):
        store.append_edge(source, 0, LOG_ONLY, 300)
        store.append_edge(source, 1, 999, 300)  # a node that never existed
    return store


@pytest.fixture(scope="module", params=[
    (encoding, mode)
    for encoding in ("succinct", "offsets")
    for mode in ("memory", "mmap")
], ids=lambda p: f"{p[0]}-{p[1]}")
def store(request, tmp_path_factory):
    encoding, mode = request.param
    built = build_store(encoding)
    if mode == "memory":
        return built
    root = tmp_path_factory.mktemp(f"{encoding}-{mode}")
    save_store(built, str(root), fsync=False)
    return load_store(str(root), attach_wal=False, mode=mode)


def node_files(store):
    return [shard.node_file for shard in store.shards]


def subset(record, wanted):
    """The reference subset read: a whole record parsed by the wildcard
    path, cut down to ``wanted`` in request order."""
    return {pid: record[pid] for pid in wanted if pid in record}


# ----------------------------------------------------------------------
# NodeFile: batched property probes and batched search
# ----------------------------------------------------------------------


@settings(max_examples=hypothesis_examples(40), deadline=None)
@given(data=st.data())
def test_get_properties_batch_equals_per_node(store, data):
    node_file = data.draw(st.sampled_from(node_files(store)))
    ids = node_file.node_ids().tolist()
    node_ids = data.draw(st.lists(st.sampled_from(ids), max_size=12))
    wanted = data.draw(st.lists(
        st.sampled_from(["name", "city", "interest", "extra"]), max_size=4))
    got = node_file.get_properties_batch(node_ids, wanted)
    assert got == [node_file.get_properties(node, wanted) for node in node_ids]
    assert got == [subset(node_file.get_properties(node), wanted) for node in node_ids]


def test_get_properties_batch_reads_absent_values(store):
    node_file = node_files(store)[0]
    ids = node_file.node_ids().tolist()
    got = node_file.get_properties_batch(ids, ["extra", "city"])
    assert got == [subset(node_file.get_properties(node), ["extra", "city"])
                   for node in ids]
    assert all("extra" not in properties for properties in got)
    assert any("city" not in properties for properties in got)
    assert node_file.get_properties_batch([], ["city"]) == []
    with pytest.raises(NodeNotFound):
        node_file.get_properties_batch([ids[0], 10_000], ["city"])


def every_record(node_file):
    return {node: node_file.get_properties(node)
            for node in node_file.node_ids().tolist()}


@pytest.mark.parametrize("query", [
    {"city": "Ithaca"},
    {"city": "Ithaca", "interest": "chess"},
    {"interest": "music", "city": "Paris"},
    {"city": "Oslo", "interest": "nothing"},
    {"city": "Nowhere", "interest": "music"},
    {"name": "n7", "city": "Paris", "interest": "chess"},
])
def test_find_nodes_equals_a_scan(store, query):
    for node_file in node_files(store):
        expected = sorted(
            node for node, properties in every_record(node_file).items()
            if all(properties.get(k) == v for k, v in query.items())
        )
        assert node_file.find_nodes(query) == expected


@pytest.mark.parametrize("property_id,prefix", [
    ("city", "I"), ("city", ""), ("name", "n1"), ("interest", "x"),
])
def test_find_nodes_by_prefix_equals_a_scan(store, property_id, prefix):
    for node_file in node_files(store):
        expected = sorted(
            node for node, properties in every_record(node_file).items()
            if property_id in properties
            and properties[property_id].startswith(prefix)
        )
        assert node_file.find_nodes_by_prefix(property_id, prefix) == expected


# ----------------------------------------------------------------------
# Filtered get_neighbor_ids == the per-neighbour reference
# ----------------------------------------------------------------------


def per_node_reference(store, node, edge_type, property_list):
    matches = []
    for destination in store.get_neighbor_ids(node, edge_type):
        try:
            properties = store.get_node_property(destination, list(property_list))
        except NodeNotFound:
            continue
        if all(properties.get(k) == v for k, v in property_list.items()):
            matches.append(destination)
    return matches


FILTERS = [
    {"city": "Ithaca"},
    {"city": "Paris"},
    {"city": "Oslo", "interest": "chess"},
    {"name": "f2"},
    {"extra": "e"},
]


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_filtered_neighbors_equal_per_node_reference(store, cached):
    if cached:
        store.enable_cache(1 << 20)
    try:
        for _ in range(2):  # the second round answers from a warm cache
            for node in range(6):
                for edge_type in ("*", 0, 1):
                    for property_list in FILTERS:
                        got = store.get_neighbor_ids(node, edge_type, property_list)
                        assert got == per_node_reference(
                            store, node, edge_type, property_list)
    finally:
        store.disable_cache()


def test_filtered_neighbors_keep_order_and_duplicates(store):
    got = store.get_neighbor_ids(0, 0, {"city": "Ithaca"})
    assert got.count(FANNED) == 2           # newest version: Ithaca
    assert DELETED not in got and 999 not in got
    assert LOG_ONLY in got
    assert got == [d for d in store.get_neighbor_ids(0, 0) if d in set(got)]
    assert FANNED not in store.get_neighbor_ids(0, 0, {"city": "Oslo"})
    assert REAPPENDED in store.get_neighbor_ids(0, 0, {"extra": "e"})


def test_cached_probes_load_only_the_misses(store, monkeypatch):
    expected = per_node_reference(store, 1, "*", {"city": "Ithaca"})
    store.enable_cache(1 << 20)
    try:
        warm = store.get_neighbor_ids(1, "*")[:5]
        for node in warm:
            store.get_node_property(node, ["city"])
        asked = []
        for shard in store.shards:
            original = shard.get_properties_batch

            def spy(node_ids, property_ids, original=original):
                asked.extend(node_ids)
                return original(node_ids, property_ids)

            monkeypatch.setattr(shard, "get_properties_batch", spy)
        hits_before = store._cache.stats()["hits"]
        assert store.get_neighbor_ids(1, "*", {"city": "Ithaca"}) == expected
        assert asked and not set(asked) & set(warm)
        assert len(asked) == len(set(asked))
        assert store._cache.stats()["hits"] > hits_before
        # The batch filled the gs.node keys get_node_property reads.
        asked_hits = store._cache.stats()["hits"]
        for node in asked:
            store.get_node_property(node, ["city"])
        assert store._cache.stats()["hits"] == asked_hits + len(asked)
    finally:
        store.disable_cache()
