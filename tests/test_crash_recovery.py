"""Crash-safety: kill the process model at every injected crash point
during save_store and WAL appends; recovery must always yield a
consistent pre- or post-state store."""

import json
import os

import pytest

from conftest import chaos_seeds
from repro import chaos
from repro.chaos import ChaosInjector, FaultRule, SimulatedCrash
from repro.core import GraphData, ZipG
from repro.core.errors import (
    GraphFormatError,
    ManifestCorruptError,
    ManifestMissingError,
    RecoveryError,
    SnapshotCorruptError,
    StoreVersionConflictError,
)
from repro.core.persistence import (
    SAVE_CRASH_POINTS,
    attach_wal,
    load_store,
    save_store,
    verify_store,
)
from repro.core.wal import (
    CRASH_POINT_POST_FSYNC,
    CRASH_POINT_PRE_FSYNC,
    WriteAheadLog,
    read_records,
    repair_torn_tail,
)


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()


def build_store():
    graph = GraphData()
    graph.add_node(1, {"name": "Alice", "city": "Ithaca"})
    graph.add_node(2, {"name": "Bob", "city": "Boston"})
    graph.add_node(3, {"name": "Carol", "city": "Ithaca"})
    graph.add_edge(1, 2, 0, 100, {"w": "5"})
    graph.add_edge(1, 3, 0, 200)
    graph.add_edge(2, 3, 1, 50)
    return ZipG.compress(graph, num_shards=2, alpha=4,
                         logstore_threshold_bytes=4096)


def mutate(store):
    """The reference update stream layered on top of build_store()."""
    store.append_node(9, {"name": "Ida", "city": "Ithaca"})
    store.append_edge(1, 0, 9, timestamp=300)
    store.delete_edge(1, 0, 3)
    store.update_node(2, {"name": "Bobby", "city": "Boston"})


def assert_matches(loaded, reference):
    for node in (1, 2, 3, 9):
        if reference.has_node(node):
            assert loaded.get_node_property(node) == \
                reference.get_node_property(node), node
        else:
            assert not loaded.has_node(node)
        left = reference.get_edge_record(node, 0)
        right = loaded.get_edge_record(node, 0)
        assert right.edge_count == left.edge_count, node
        assert right.destinations() == left.destinations(), node
    assert loaded.get_node_ids({"city": "Ithaca"}) == \
        reference.get_node_ids({"city": "Ithaca"})


# ----------------------------------------------------------------------
# The WAL itself
# ----------------------------------------------------------------------


class TestWal:
    def test_records_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        assert wal.append_record("node", [9, {"k": "v"}]) == 1
        assert wal.append_record("del_node", [9]) == 2
        wal.close()
        records, torn = read_records(path)
        assert not torn
        assert [(r.lsn, r.op, r.args) for r in records] == [
            (1, "node", [9, {"k": "v"}]),
            (2, "del_node", [9]),
        ]

    def test_torn_tail_dropped(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_record("node", [1, {}])
        wal.append_record("node", [2, {}])
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"deadbeef {garbage")  # torn in-flight record
        records, torn = read_records(path)
        assert torn
        assert [r.lsn for r in records] == [1, 2]

    def test_corrupt_middle_record_stops_replay_prefix(self, tmp_path):
        """A bad record with another after it is not a torn tail (a
        crash tears only the last write): reading stops with a typed
        error instead of returning the prefix before it, and repair
        refuses to truncate the acknowledged records."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        for lsn in range(1, 4):
            wal.append_record("node", [lsn, {}])
        wal.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = b"00000000 [corrupt]\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        size = os.path.getsize(path)
        with pytest.raises(RecoveryError, match="line 2"):
            read_records(path)
        with pytest.raises(RecoveryError):
            repair_torn_tail(path)
        assert os.path.getsize(path) == size

    def test_rotate_truncates_but_lsns_continue(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_record("node", [1, {}])
        wal.rotate()
        assert os.path.getsize(path) == 0
        assert wal.append_record("node", [2, {}]) == 2

    def test_every_append_fsyncs(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or
                            real_fsync(fd))
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        for lsn in range(3):
            wal.append_record("node", [lsn, {}])
            assert len(calls) == lsn + 1
        wal.close()


# ----------------------------------------------------------------------
# WAL-armed stores
# ----------------------------------------------------------------------


class TestWalRecovery:
    def test_mutations_survive_without_second_save(self, tmp_path):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        mutate(store)
        loaded = load_store(root)
        assert_matches(loaded, store)

    def test_corrupt_middle_record_refuses_recovery(self, tmp_path):
        """One flipped byte in record 2 of 3: load_store and attach_wal
        raise instead of replaying LSN 1 alone, the log keeps every
        byte, and verify_store names the damage."""
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        store.append_node(9, {"name": "Ida"})
        store.append_edge(1, 0, 9, timestamp=300)
        store.delete_edge(1, 0, 3)
        store.wal.close()
        path = os.path.join(root, "wal.log")
        data = bytearray(open(path, "rb").read())
        second = data.index(b"\n") + 1
        data[second + 12] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(RecoveryError, match="line 2"):
            load_store(root)
        with pytest.raises(RecoveryError):
            attach_wal(build_store(), root)
        assert open(path, "rb").read() == bytes(data)
        kinds = [issue.kind for issue in verify_store(root).issues]
        assert kinds == ["wal-corrupt"]

    def test_freeze_replayed_at_original_point(self, tmp_path):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        store.append_edge(1, 0, 7, timestamp=400)
        store.freeze_logstore()
        store.append_edge(1, 0, 8, timestamp=500)
        loaded = load_store(root)
        assert loaded.freeze_count == store.freeze_count
        assert loaded.num_shards == store.num_shards
        assert_matches(loaded, store)

    def test_snapshot_rotates_wal_and_skips_replay(self, tmp_path):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        mutate(store)
        save_store(store, root)  # covers the WAL; rotates it
        assert os.path.getsize(os.path.join(root, "wal.log")) == 0
        loaded = load_store(root)
        assert_matches(loaded, store)

    def test_no_double_apply_when_crash_before_rotate(self, tmp_path):
        """Crash after manifest commit but before WAL rotation: the
        un-rotated records are <= the manifest cutoff and must not be
        re-applied on load."""
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        store.append_edge(1, 0, 9, timestamp=300)
        injector = ChaosInjector(rules=[
            FaultRule(site="save.committed", fault="crash"),
        ])
        with chaos.injected(injector):
            with pytest.raises(SimulatedCrash):
                save_store(store, root)
        assert os.path.getsize(os.path.join(root, "wal.log")) > 0
        loaded = load_store(root)
        record = loaded.get_edge_record(1, 0)
        assert record.destinations() == store.get_edge_record(1, 0).destinations()
        assert record.edge_count == 3  # not 4: LSN cutoff prevented re-apply


#: PropertyLists the freeze serializers cannot write.
BAD_PROPERTIES = {
    "unknown-pid": {"bogus": "x"},
    "non-str": {"name": 5},
    "control-byte": {"name": "bad\x01value"},
    "lone-surrogate": {"name": "\ud800"},
}


class TestRejectedAppends:
    """A bad append is rejected before it is logged or applied, so it
    can neither wedge later freezes nor make the root unrecoverable."""

    @pytest.mark.parametrize("bad", sorted(BAD_PROPERTIES))
    @pytest.mark.parametrize("kind", ["node", "edge"])
    def test_rejected_append_leaves_store_and_wal(self, tmp_path, kind, bad):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        wal = attach_wal(store, root)
        store.append_node(9, {"name": "Ida"})
        logged = open(wal.path, "rb").read()
        edges = store.get_edge_record(1, 0).edge_count
        with pytest.raises(GraphFormatError):
            if kind == "node":
                store.append_node(10, BAD_PROPERTIES[bad])
            else:
                store.append_edge(1, 0, 10, timestamp=7,
                                  properties=BAD_PROPERTIES[bad])
        assert open(wal.path, "rb").read() == logged
        assert wal.last_lsn == 1
        assert not store.has_node(10)
        assert store.get_edge_record(1, 0).edge_count == edges
        store.freeze_logstore()
        store.append_edge(1, 0, 10, timestamp=8, properties={"w": "1"})
        assert_matches(load_store(root), store)


# ----------------------------------------------------------------------
# Typed recovery errors
# ----------------------------------------------------------------------


class TestRecoveryErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestMissingError):
            load_store(str(tmp_path))

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ManifestCorruptError):
            load_store(str(tmp_path))

    def test_corrupt_snapshot_file(self, tmp_path):
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        victim = next(n for n in os.listdir(root) if n.startswith("shard-0"))
        path = os.path.join(root, victim)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            load_store(root)

    def test_truncated_snapshot_file(self, tmp_path):
        root = str(tmp_path / "db")
        save_store(build_store(), root)
        victim = next(n for n in os.listdir(root) if n.startswith("logstore"))
        path = os.path.join(root, victim)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(SnapshotCorruptError):
            load_store(root)

    def test_save_refuses_newer_manifest(self, tmp_path):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        with open(os.path.join(root, "manifest.json")) as handle:
            manifest = json.load(handle)
        manifest["version"] = 99
        with open(os.path.join(root, "manifest.json"), "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreVersionConflictError):
            save_store(store, root)


# ----------------------------------------------------------------------
# Kill at every crash point: the acceptance loop
# ----------------------------------------------------------------------


WAL_CRASH_POINTS = (CRASH_POINT_PRE_FSYNC, CRASH_POINT_POST_FSYNC)


class TestCrashAtEveryPoint:
    @pytest.mark.parametrize("point", SAVE_CRASH_POINTS)
    def test_save_crash_recovers_full_state(self, tmp_path, point):
        """With a WAL attached, every mutation is durable before it is
        applied -- so whichever save step the crash hits, recovery
        yields the complete mutated state (from the new snapshot if the
        commit landed, from the old snapshot + WAL replay if not)."""
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        mutate(store)
        injector = ChaosInjector(rules=[
            FaultRule(site=point, fault="crash", times=1),
        ])
        with chaos.injected(injector):
            with pytest.raises(SimulatedCrash):
                save_store(store, root)
        assert injector.injection_log == [(point, "crash")]
        assert_matches(load_store(root), store)

    def test_crash_at_each_data_file_write(self, tmp_path):
        """save.file fires once per data file; kill at each occurrence."""
        probe_root = str(tmp_path / "probe")
        probe = build_store()
        save_store(probe, probe_root)
        file_count = sum(
            1 for n in os.listdir(probe_root) if n != "manifest.json"
        )
        assert file_count >= 3  # shards + logstore + pointers
        for position in range(file_count):
            root = str(tmp_path / f"db{position}")
            store = build_store()
            save_store(store, root)
            attach_wal(store, root)
            mutate(store)
            injector = ChaosInjector(rules=[
                FaultRule(site="save.file", fault="crash",
                          after=position, times=1),
            ])
            with chaos.injected(injector):
                with pytest.raises(SimulatedCrash):
                    save_store(store, root)
            assert_matches(load_store(root), store)

    def test_torn_snapshot_write_recovers_previous(self, tmp_path):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        mutate(store)
        injector = ChaosInjector(seed=5, rules=[
            FaultRule(site=chaos.SITE_SAVE_WRITE, fault="torn_write"),
        ])
        with chaos.injected(injector):
            with pytest.raises(SimulatedCrash):
                save_store(store, root)
        assert_matches(load_store(root), store)

    @pytest.mark.parametrize("point", WAL_CRASH_POINTS)
    def test_wal_append_crash_pre_or_post_state(self, tmp_path, point):
        """Kill between WAL append and fsync (and right after): the
        recovered store holds either the pre-append or post-append
        state, never anything else."""
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        before = store.get_edge_record(1, 0).edge_count
        injector = ChaosInjector(rules=[
            FaultRule(site=point, fault="crash", times=1),
        ])
        with chaos.injected(injector):
            with pytest.raises(SimulatedCrash):
                store.append_edge(1, 0, 9, timestamp=300)
        loaded = load_store(root)
        count = loaded.get_edge_record(1, 0).edge_count
        assert count in (before, before + 1)
        if count == before + 1:
            assert 9 in loaded.get_edge_record(1, 0).destinations()

    def test_torn_wal_write_recovers_pre_state(self, tmp_path):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        store.append_edge(1, 0, 7, timestamp=250)  # durable record
        injector = ChaosInjector(seed=3, rules=[
            FaultRule(site=chaos.SITE_WAL_WRITE, fault="torn_write",
                      keep_bytes=10),
        ])
        with chaos.injected(injector):
            with pytest.raises(SimulatedCrash):
                store.append_edge(1, 0, 9, timestamp=300)
        loaded = load_store(root)
        destinations = loaded.get_edge_record(1, 0).destinations()
        assert 7 in destinations and 9 not in destinations

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_acceptance_all_points_all_seeds(self, tmp_path, seed):
        """The issue's acceptance gate: for each seed, crash at every
        save crash point and every WAL fsync boundary; load_store must
        recover a consistent store in 100% of runs."""
        points = list(SAVE_CRASH_POINTS) + list(WAL_CRASH_POINTS)
        for index, point in enumerate(points):
            root = str(tmp_path / f"run{index}")
            store = build_store()
            save_store(store, root)
            attach_wal(store, root)
            store.append_node(20 + index, {"name": f"s{seed}"})
            injector = ChaosInjector(seed=seed, rules=[
                FaultRule(site=point, fault="crash", times=1),
            ])
            with chaos.injected(injector):
                try:
                    store.append_edge(1, 0, 9, timestamp=300)
                    save_store(store, root)
                    crashed = False
                except SimulatedCrash:
                    crashed = True
            assert crashed, point
            loaded = load_store(root)  # recovery must never raise
            # Consistency: the recovered state answers queries and is
            # either pre- or post- the in-flight mutation.
            assert loaded.get_node_property(20 + index)["name"] == f"s{seed}"
            count = loaded.get_edge_record(1, 0).edge_count
            assert count in (3, 4), (point, count)
