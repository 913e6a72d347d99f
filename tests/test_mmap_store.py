"""Zero-copy mmap-backed snapshot loading (§4.1).

``load_store(mode="mmap")`` maps each generation-numbered shard file
and builds shards as views into the maps; this suite pins the three
properties that make that safe to ship:

* **Parity** -- every query class answers byte-identically to the
  eager (read + CRC + copy) path, across randomized graph layouts,
  update streams, and both registered shard codecs.
* **Versions** -- only version-4 roots load: version 3 (no
  ``encoding`` manifest key) and unknown versions and modes are
  rejected; an untagged shard blob still decodes as Succinct.
* **Crash safety** -- recovery with ``mode="mmap"`` at every injected
  save crash point (and under torn writes) yields the same consistent
  state the eager path recovers.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chaos_seeds, hypothesis_examples
from repro import chaos
from repro.chaos import ChaosInjector, FaultRule, SimulatedCrash
from repro.core import GraphData, ZipG
from repro.core.errors import SnapshotCorruptError, UnsupportedVersionError
from repro.core.persistence import (
    SAVE_CRASH_POINTS,
    attach_wal,
    load_store,
    save_store,
    verify_store,
)
from repro.succinct.encodings import decode_flat_file
from repro.succinct.serialize import FORMAT_SECTION, pack_sections
from repro.succinct.succinct_file import SuccinctFile

CITIES = ("Ithaca", "Boston", "Albany")


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()


def build_store(encoding="succinct"):
    graph = GraphData()
    graph.add_node(1, {"name": "Alice", "city": "Ithaca"})
    graph.add_node(2, {"name": "Bob", "city": "Boston"})
    graph.add_node(3, {"name": "Carol", "city": "Ithaca"})
    graph.add_edge(1, 2, 0, 100, {"w": "5"})
    graph.add_edge(1, 3, 0, 200)
    graph.add_edge(2, 3, 1, 50)
    return ZipG.compress(graph, num_shards=2, alpha=4,
                         logstore_threshold_bytes=4096, encoding=encoding)


def mutate(store):
    store.append_node(9, {"name": "Ida", "city": "Ithaca"})
    store.append_edge(1, 0, 9, timestamp=300)
    store.delete_edge(1, 0, 3)
    store.update_node(2, {"name": "Bobby", "city": "Boston"})


def assert_same_answers(mapped, eager, node_ids):
    """Every query class must agree byte-for-byte between load modes."""
    for node in node_ids:
        assert mapped.has_node(node) == eager.has_node(node), node
        if not eager.has_node(node):
            continue
        assert mapped.get_node_property(node) == \
            eager.get_node_property(node), node
        for etype in (0, 1):
            assert mapped.get_neighbor_ids(node, etype) == \
                eager.get_neighbor_ids(node, etype), (node, etype)
            left = eager.get_edge_record(node, etype)
            right = mapped.get_edge_record(node, etype)
            assert right.edge_count == left.edge_count, (node, etype)
            assert right.destinations() == left.destinations(), (node, etype)
            assert [right.timestamp_at(i) for i in range(right.edge_count)] \
                == [left.timestamp_at(i) for i in range(left.edge_count)]
            assert [right.data_at(i).properties
                    for i in range(right.edge_count)] \
                == [left.data_at(i).properties
                    for i in range(left.edge_count)]
    for city in CITIES:
        assert mapped.get_node_ids({"city": city}) == \
            eager.get_node_ids({"city": city}), city


# ----------------------------------------------------------------------
# Parity: mmap answers are byte-identical to eager
# ----------------------------------------------------------------------


class TestModeParity:
    @pytest.mark.parametrize("encoding", ["succinct", "offsets"])
    def test_fresh_store_parity(self, tmp_path, encoding):
        store = build_store(encoding=encoding)
        root = str(tmp_path / "db")
        save_store(store, root)
        mapped = load_store(root, mode="mmap")
        eager = load_store(root)
        assert mapped.load_mode == "mmap"
        assert eager.load_mode == "eager"
        assert mapped.mapped_bytes > 0
        assert eager.mapped_bytes == 0
        assert mapped.encoding == encoding
        assert_same_answers(mapped, eager, (1, 2, 3))

    def test_mutated_and_frozen_store_parity(self, tmp_path):
        store = build_store()
        mutate(store)
        for i in range(12):
            store.append_edge(2, 1, 100 + i, timestamp=1_000 + i)
        store.freeze_logstore()
        store.append_edge(3, 0, 1, timestamp=5_000)
        root = str(tmp_path / "db")
        save_store(store, root)
        mapped = load_store(root, mode="mmap")
        eager = load_store(root)
        assert_same_answers(mapped, eager, (1, 2, 3, 9))
        assert_same_answers(mapped, store, (1, 2, 3, 9))

    def test_mapped_store_accepts_writes(self, tmp_path):
        """Shards are immutable views; mutations land in the logstore
        and deletion bitmaps, which the mmap path copies (owns)."""
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        mapped = load_store(root, mode="mmap")
        mutate(mapped)
        reference = build_store()
        mutate(reference)
        assert_same_answers(mapped, reference, (1, 2, 3, 9))
        # And the mutated mapped store round-trips through save again.
        root2 = str(tmp_path / "db2")
        save_store(mapped, root2)
        assert_same_answers(load_store(root2, mode="mmap"), reference,
                            (1, 2, 3, 9))

    def test_unknown_mode_rejected(self, tmp_path):
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        with pytest.raises(ValueError, match="mode"):
            load_store(root, mode="bogus")


@st.composite
def graph_and_ops(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    graph = GraphData()
    for node_id in range(num_nodes):
        graph.add_node(node_id, {"city": draw(st.sampled_from(CITIES))})
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        src = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        dst = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        graph.add_edge(src, dst, draw(st.integers(min_value=0, max_value=1)),
                       draw(st.integers(min_value=1, max_value=500)))
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["add_edge", "del_edge", "update_node"]))
        src = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        dst = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        etype = draw(st.integers(min_value=0, max_value=1))
        ts = draw(st.integers(min_value=501, max_value=1000))
        city = draw(st.sampled_from(CITIES))
        ops.append((kind, src, dst, etype, ts, city))
    return graph, ops


class TestPropertyParity:
    @settings(max_examples=hypothesis_examples(25), deadline=None)
    @given(data=graph_and_ops(),
           encoding=st.sampled_from(["succinct", "offsets"]),
           num_shards=st.sampled_from([1, 2, 3]),
           threshold=st.sampled_from([200, 4096]))
    def test_mmap_matches_eager_everywhere(self, tmp_path_factory, data,
                                           encoding, num_shards, threshold):
        """The acceptance property: for random layouts, shardings, and
        update streams (spanning logstore-resident and frozen edges),
        the mmap path answers every query class identically to eager."""
        graph, ops = data
        store = ZipG.compress(graph, num_shards=num_shards, alpha=4,
                              logstore_threshold_bytes=threshold,
                              encoding=encoding)
        for (kind, src, dst, etype, ts, city) in ops:
            if kind == "add_edge":
                store.append_edge(src, etype, dst, timestamp=ts)
            elif kind == "del_edge":
                store.delete_edge(src, etype, dst)
            else:
                store.update_node(src, {"city": city})
        root = str(tmp_path_factory.mktemp("mmap_parity") / "db")
        save_store(store, root)
        mapped = load_store(root, mode="mmap")
        eager = load_store(root)
        node_ids = list(graph.node_ids()) + [max(graph.node_ids()) + 1]
        assert_same_answers(mapped, eager, node_ids)
        assert_same_answers(mapped, store, node_ids)


# ----------------------------------------------------------------------
# Versions: v3 and unknown versions rejected
# ----------------------------------------------------------------------


class TestVersionCompat:
    def test_unknown_version_still_rejected(self, tmp_path):
        """Version 3 (the pre-codec format) is no longer read either."""
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        path = os.path.join(root, "manifest.json")
        for version in (3, 99):
            with open(path) as handle:
                manifest = json.load(handle)
            manifest["version"] = version
            with open(path, "w") as handle:
                json.dump(manifest, handle)
            for mode in ("eager", "mmap"):
                with pytest.raises(UnsupportedVersionError):
                    load_store(root, mode=mode)
            assert [issue.kind for issue in verify_store(root).issues] == [
                "unsupported-version"
            ]

    def test_untagged_blob_decodes_as_succinct(self):
        """Pre-v4 flat files carry no ``__format__`` section; the
        decoder must fall back to the Succinct codec."""
        original = SuccinctFile(b"walk in silence, do not walk away",
                                alpha=4)
        sections = dict(original.sections())
        assert FORMAT_SECTION in sections
        del sections[FORMAT_SECTION]
        decoded = decode_flat_file(pack_sections(sections))
        assert isinstance(decoded, SuccinctFile)
        assert decoded.decompress() == original.decompress()
        assert list(decoded.search(b"walk")) == list(original.search(b"walk"))


# ----------------------------------------------------------------------
# verify_store streaming + corruption under mmap
# ----------------------------------------------------------------------


class TestVerifyStreaming:
    def test_small_chunks_equivalent(self, tmp_path):
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        report = verify_store(root)
        assert report.ok
        tiny = verify_store(root, chunk_bytes=7)
        assert tiny == report

    def test_invalid_chunk_size_rejected(self, tmp_path):
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        with pytest.raises(ValueError):
            verify_store(root, chunk_bytes=0)

    def test_corruption_detected_across_chunk_boundary(self, tmp_path):
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        shard_files = [n for n in os.listdir(root) if n.startswith("shard-")]
        path = os.path.join(root, shard_files[0])
        with open(path, "r+b") as handle:
            handle.seek(10)
            byte = handle.read(1)
            handle.seek(10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        report = verify_store(root, chunk_bytes=7)
        assert not report.ok
        assert any(issue.kind == "file-corrupt" for issue in report.issues)

    def test_truncated_shard_rejected_by_mmap_load(self, tmp_path):
        """mmap load validates sizes up front (CRC is verify_store's
        job); a truncated file must still fail fast, not map."""
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        shard_files = [n for n in os.listdir(root) if n.startswith("shard-")]
        path = os.path.join(root, shard_files[0])
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        with pytest.raises(SnapshotCorruptError):
            load_store(root, mode="mmap")


# ----------------------------------------------------------------------
# Crash recovery with mode="mmap"
# ----------------------------------------------------------------------


class TestMmapCrashRecovery:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_crash_at_every_save_point_recovers_via_mmap(self, tmp_path,
                                                         seed):
        """The eager crash-recovery acceptance matrix, recovered with
        ``mode="mmap"``: whichever save step the crash hits, the mapped
        recovery must yield the same complete mutated state."""
        for index, point in enumerate(SAVE_CRASH_POINTS):
            root = str(tmp_path / f"run{index}")
            store = build_store()
            save_store(store, root)
            attach_wal(store, root)
            mutate(store)
            injector = ChaosInjector(seed=seed, rules=[
                FaultRule(site=point, fault="crash", times=1),
            ])
            with chaos.injected(injector):
                with pytest.raises(SimulatedCrash):
                    save_store(store, root)
            chaos.uninstall()
            loaded = load_store(root, mode="mmap")
            assert loaded.load_mode == "mmap"
            assert_same_answers(loaded, store, (1, 2, 3, 9))

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_torn_shard_write_recovers_via_mmap(self, tmp_path, seed):
        """A torn shard write leaves a short file; the mmap loader's
        size check must route recovery to the previous generation."""
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        mutate(store)
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_SAVE_WRITE, fault="torn_write"),
        ])
        with chaos.injected(injector):
            with pytest.raises(SimulatedCrash):
                save_store(store, root)
        chaos.uninstall()
        loaded = load_store(root, mode="mmap")
        assert_same_answers(loaded, store, (1, 2, 3, 9))
