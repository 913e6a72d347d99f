"""The kernel's plain-Python mirrors and the batched edge-range read.

Backward search, scalar SA lookups and short extracts run on lazily
built list/bytes mirrors of the Succinct arrays; TAO's edge loops read
one batched range per fragment. Every fast path here is pinned to an
independent reference (naive scans, the scalar kernels, a plain model
of the graph), and the batching itself is pinned by counting the calls
a store makes into its codec.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from conftest import hypothesis_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.systems import ZipGSystem
from repro.core import GraphData, ZipG
from repro.core.delimiters import DelimiterMap
from repro.core.edgefile import EdgeFile
from repro.core.model import Edge, EdgeData
from repro.core.persistence import load_store, save_store
from repro.core.shard import CompressedShard
from repro.succinct import BitVector, SuccinctFile, succinct_file
from repro.succinct.encodings import register_encoding

EXTRACT_CUTOFF = succinct_file._SCALAR_EXTRACT_CUTOFF
SEARCH_CUTOFF = succinct_file._SCALAR_SEARCH_CUTOFF

# Small alphabets make long repeats, so searches resolve anywhere from
# zero rows to far past the scalar-search cutoff.
small_alphabet_text = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=400
).map(bytes)


def naive_offsets(text, pattern):
    return [i for i in range(len(text) - len(pattern) + 1)
            if text[i:i + len(pattern)] == pattern]


# ----------------------------------------------------------------------
# Succinct kernels: fast paths == scalar reference == naive
# ----------------------------------------------------------------------


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(text=small_alphabet_text, alpha=st.integers(1, 16), data=st.data())
def test_search_equals_scalar_and_naive(text, alpha, data):
    sf = SuccinctFile(text, alpha=alpha)
    start = data.draw(st.integers(0, len(text) - 1))
    size = data.draw(st.integers(1, 4))
    pattern = data.draw(st.one_of(
        st.just(text[start:start + size]),
        st.lists(st.integers(1, 5), min_size=1, max_size=4).map(bytes),
    ))
    expected = naive_offsets(text, pattern)
    assert sf.search(pattern).tolist() == expected
    assert sf.search_scalar(pattern).tolist() == expected
    assert sf.count(pattern) == len(expected)


def test_search_crosses_the_scalar_cutoff():
    # One text, hit counts on both sides of the cutoff.
    text = bytes([1, 2] * 40 + [3] * (SEARCH_CUTOFF - 1) + [4] * (SEARCH_CUTOFF + 1))
    sf = SuccinctFile(text, alpha=8)
    for pattern in (b"\x03", b"\x04", b"\x01\x02", b"\x03\x04"):
        assert sf.search(pattern).tolist() == naive_offsets(text, pattern)


@settings(max_examples=hypothesis_examples(40), deadline=None)
@given(
    text=st.lists(st.integers(1, 255), min_size=3 * EXTRACT_CUTOFF,
                  max_size=6 * EXTRACT_CUTOFF).map(bytes),
    alpha=st.sampled_from([1, 4, 8, 32]),
    data=st.data(),
)
def test_extract_at_the_cutoff_equals_scalar(text, alpha, data):
    sf = SuccinctFile(text, alpha=alpha)
    for length in (EXTRACT_CUTOFF - 1, EXTRACT_CUTOFF, EXTRACT_CUTOFF + 1,
                   3 * alpha + 5):  # the last one spans several anchors
        offset = data.draw(st.integers(0, len(text) - length))
        want = text[offset:offset + length]
        assert sf.extract(offset, length) == want
        assert sf.extract_scalar(offset, length) == want
    requests = data.draw(st.lists(
        st.tuples(st.integers(0, len(text)), st.integers(0, EXTRACT_CUTOFF)),
        min_size=1, max_size=4,
    ))
    assert sf.extract_batch(requests) == [
        sf.extract_scalar(offset, length) for offset, length in requests
    ]


def test_mirrors_are_built_on_first_query_only():
    text = b"abracadabra" * 20 + b"zebra"
    sf = SuccinctFile.from_bytes(SuccinctFile(text, alpha=4).to_bytes())
    npa, marks = sf._npa, sf._sampled_row_marks
    assert npa._npa_list_cache is None
    assert npa._bucket_table_cache is None
    assert npa._row_char_bytes_cache is None
    assert marks._word_list_cache is None and marks._rank_list_cache is None
    assert sf.search(b"zebra").tolist() == [len(text) - 5]  # scalar SA lookup
    assert sf.extract(3, 5) == b"acada"
    assert npa._npa_list_cache is not None
    assert npa._bucket_table_cache is not None
    assert npa._row_char_bytes_cache is not None
    assert marks._word_list_cache is not None


# ----------------------------------------------------------------------
# BitVector mirrors stay coherent under set/clear
# ----------------------------------------------------------------------


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(
    size=st.integers(1, 300),
    ops=st.lists(
        st.tuples(st.sampled_from(["set", "clear", "read"]), st.integers(0, 299)),
        max_size=60,
    ),
)
def test_bitvector_mirrors_after_set_and_clear(size, ops):
    vec = BitVector(size)
    members = set()
    for op, index in ops:
        index %= size
        if op == "set":
            vec.set(index)
            members.add(index)
        elif op == "clear":
            vec.clear(index)
            members.discard(index)
        # Read after every step, so each mutation lands on built caches.
        assert vec[index] == (index in members)
        assert vec.rank1(index) == sum(1 for m in members if m < index)
        assert vec.rank1(size) == len(members) == vec.count()
    assert [vec[i] for i in range(size)] == [i in members for i in range(size)]
    assert vec.word_list == vec.blocks.tolist()


def test_bitvector_mirrors_survive_concurrent_writes():
    # Writers set disjoint bits while readers build the mirrors. A
    # mirror copied from the blocks while a write lands must not be
    # kept, or that bit reads 0 forever.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            vec = BitVector(64 * 64)
            start = threading.Barrier(6)

            def write(first):
                start.wait(timeout=10)
                for index in range(first, len(vec), 4):
                    vec.set(index)

            def read():
                start.wait(timeout=10)
                for index in range(0, len(vec), 97):
                    vec[index]
                    vec.rank1(index)

            threads = [threading.Thread(target=write, args=(k,)) for k in range(4)]
            threads += [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert all(vec[index] for index in range(len(vec)))
            assert vec.rank1(len(vec)) == vec.count() == len(vec)
    finally:
        sys.setswitchinterval(previous)


@settings(max_examples=hypothesis_examples(30), deadline=None)
@given(data=st.data())
def test_deleted_count_equals_naive_count(data):
    counts = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    edges = {
        (source, 0): [Edge(source, d, 0, 100 + d) for d in range(count)]
        for source, count in enumerate(counts)
    }
    shard = CompressedShard(0, {}, edges, DelimiterMap([]), alpha=4)
    fragments = [shard.edge_fragment(source, 0) for source in range(len(counts))]

    def check():
        for fragment in fragments:
            naive = sum(fragment.deleted(i) for i in range(fragment.edge_count))
            assert fragment.deleted_count() == naive

    check()  # builds the rank directory
    for _ in range(data.draw(st.integers(1, 8))):
        fragment = data.draw(st.sampled_from(fragments))
        fragment.mark_deleted(data.draw(st.integers(0, fragment.edge_count - 1)))
        check()  # each delete lands after the directory was built


def test_bare_edgefile_fragment_reads_live():
    """Without a shard's deletion bitmap every edge is live."""
    edges = {(7, 0): [Edge(7, d, 0, 100 + d) for d in range(5)]}
    fragment = EdgeFile(edges, DelimiterMap([]), alpha=4).find_record(7, 0)
    assert fragment.deletions is None
    assert fragment.deleted_count() == 0
    assert not any(fragment.deleted(i) for i in range(fragment.edge_count))


# ----------------------------------------------------------------------
# Range read == per-index reads == a plain model, on every record kind
# ----------------------------------------------------------------------

# (source, edge_type) of each record kind the store below holds.
DIRECT, FRAGMENTED, DELETED, LOGSTORE = (1, 0), (2, 0), (3, 0), (4, 1)


def build_store(encoding):
    """A store holding one record of each kind plus the model of its
    live edges, ``{(source, edge_type): [(ts, dst, props), ...]}``."""
    graph = GraphData()
    model = {}

    def add(source, etype, destination, timestamp, props):
        graph.add_edge(source, destination, etype, timestamp, props)
        model.setdefault((source, etype), []).append((timestamp, destination, props))

    for node in range(1, 6):
        graph.add_node(node, {"name": f"n{node}"})
    for k in range(14):  # direct: one untouched compressed fragment
        add(1, 0, 100 + k, 1000 + 10 * (k // 2), {"w": str(k)} if k % 3 else {})
    for k in range(6):  # fragmented: home shard + frozen shard + LogStore
        add(2, 0, 200 + k, 2000 + 10 * k, {"w": "x" * k})
    for k in range(9):  # deleted: every edge to 301 goes
        add(3, 0, 300 + k % 3, 3000 + k, {"tag": f"t{k}"})
    store = ZipG.compress(graph, num_shards=2, alpha=4, encoding=encoding)

    def append(source, etype, destination, timestamp, props):
        store.append_edge(source, etype, destination, timestamp, props)
        model.setdefault((source, etype), []).append((timestamp, destination, props))

    for k in range(4):
        append(2, 0, 250 + k, 2005 + 10 * k, {"w": f"a{k}"})
    store.freeze_logstore()
    for k in range(3):
        append(2, 0, 260 + k, 1995 + 20 * k, {})
    store.delete_edge(3, 0, 301)
    model[DELETED] = [edge for edge in model[DELETED] if edge[1] != 301]
    for k in range(5):  # a record only the LogStore holds
        append(4, 1, 400 + k, 4000 + k // 2, {"w": str(k)})
    for key in model:
        model[key].sort(key=lambda edge: (edge[0], edge[1]))
    return store, model


@pytest.fixture(scope="module", params=[
    (encoding, mode)
    for encoding in ("succinct", "offsets")
    for mode in ("eager", "mmap")
], ids=lambda p: f"{p[0]}-{p[1]}")
def loaded(request, tmp_path_factory):
    encoding, mode = request.param
    store, model = build_store(encoding)
    root = tmp_path_factory.mktemp(f"{encoding}-{mode}")
    save_store(store, str(root), fsync=False)
    return load_store(str(root), attach_wal=False, mode=mode), model


def test_record_kinds_take_their_paths(loaded):
    store, model = loaded
    layouts = {}
    for key in (DIRECT, FRAGMENTED, DELETED, LOGSTORE):
        record = store.get_edge_record(*key)
        assert record.edge_count == len(model[key])
        layouts[key] = (record.num_fragments, record._direct)
    assert layouts[DIRECT] == (1, True)
    assert layouts[FRAGMENTED] == (3, False)
    assert layouts[DELETED] == (1, False)
    assert layouts[LOGSTORE] == (1, True)


@settings(max_examples=hypothesis_examples(40), deadline=None)
@given(
    key=st.sampled_from([DIRECT, FRAGMENTED, DELETED, LOGSTORE]),
    data=st.data(),
)
def test_range_read_equals_per_index_reads_and_model(loaded, key, data):
    store, model = loaded
    record = store.get_edge_record(*key)
    count = record.edge_count
    begin = data.draw(st.integers(0, count))
    end = data.draw(st.integers(begin, count))
    with_properties = data.draw(st.booleans())
    got = store.get_edge_data_range(record, begin, end, with_properties)
    per_index = []
    for order in range(begin, end):
        fragment, local = record._locate(order)
        per_index.append(fragment.edge_data_at(local, with_properties))
    expected = [
        EdgeData(destination, timestamp, dict(props) if with_properties else {})
        for timestamp, destination, props in model[key][begin:end]
    ]
    assert got == per_index == expected


def test_range_read_bounds(loaded):
    store, _ = loaded
    for key in (DIRECT, FRAGMENTED, LOGSTORE):
        record = store.get_edge_record(*key)
        assert store.get_edge_data_range(record, record.edge_count, record.edge_count) == []
        assert store.get_edge_data_range(record, 5, 2) == []
        with pytest.raises(IndexError):
            store.get_edge_data_range(record, 0, record.edge_count + 1)
        with pytest.raises(IndexError):
            store.get_edge_data_range(record, -1, 1)


def test_range_read_is_traced():
    store, _ = build_store("succinct")
    record = store.get_edge_record(*DIRECT)
    obs.disable_tracing()
    obs.reset()
    obs.enable_tracing()
    try:
        store.get_edge_data_range(record, 0, 3)
        assert "graph_store.get_edge_data_range" in obs.get_tracer().span_summary()
    finally:
        obs.disable_tracing()
        obs.reset()


# ----------------------------------------------------------------------
# Pinned batching: kernel calls per TAO op, through a counting codec
# ----------------------------------------------------------------------

KERNEL_METHODS = ("extract", "extract_batch", "extract_until",
                  "char_at_batch", "search", "count")


class KernelCounts:
    """Outermost kernel calls per method (kernels call one another)."""

    def __init__(self):
        self.calls = Counter()
        self._thread = threading.local()

    def counted(self, method):
        def wrapper(codec, *args, **kwargs):
            if getattr(self._thread, "inside", False):
                return method(codec, *args, **kwargs)
            self._thread.inside = True
            self.calls[method.__name__] += 1
            try:
                return method(codec, *args, **kwargs)
            finally:
                self._thread.inside = False

        return wrapper


COUNTS = KernelCounts()
register_encoding(type("CountingSuccinct", (SuccinctFile,), {
    "encoding_name": "counting-succinct",
    **{name: COUNTS.counted(getattr(SuccinctFile, name)) for name in KERNEL_METHODS},
}))


@pytest.fixture(scope="module")
def counted_system():
    graph = GraphData()
    rng = np.random.default_rng(7)
    for node in range(40):
        graph.add_node(node, {"name": f"n{node}", "city": "Ithaca",
                              "bio": "x" * int(rng.integers(0, 90))})
    for k in range(25):
        graph.add_edge(3, k, 0, 5000 + k, {"since": str(2000 + k), "w": "1" * k})
    return ZipGSystem.load(graph, num_shards=2, alpha=16,
                           encoding="counting-succinct")


def test_assoc_range_makes_at_most_four_kernel_calls(counted_system):
    record = counted_system.store.get_edge_record(3, 0)
    assert record.num_fragments == 1
    for start in (0, 3, 15):
        COUNTS.calls.clear()
        answer = counted_system.edges_from_index(3, 0, start, 10)
        assert sum(COUNTS.calls.values()) <= 4, dict(COUNTS.calls)
        assert [edge.destination for edge in answer] == list(range(start, min(25, start + 10)))


def test_wildcard_obj_get_makes_one_extract(counted_system):
    for node in (0, 3, 39):
        COUNTS.calls.clear()
        properties = counted_system.get_node_property(node, "*")
        assert dict(COUNTS.calls) == {"extract": 1}
        assert properties["name"] == f"n{node}"
