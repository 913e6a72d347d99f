"""Tests for the vectorized Succinct query kernels, the serial shard
fan-out executor, and the LogStore pointer/size bugfixes.

The kernel tests are property tests: the batched paths must be
byte-identical to the scalar reference paths across sampling rates and
random inputs. The regression tests pin the two confirmed bugs --
dangling ACTIVE_LOGSTORE pointers after physical edge deletes, and the
freeze threshold firing on tombstoned (dead) payload.
"""

import threading

import numpy as np
import pytest

from repro.core import GraphData, ShardExecutor, ZipG
from repro.core.logstore import LogStore
from repro.core.pointers import ACTIVE_LOGSTORE, UpdatePointerTable
from repro.succinct import AccessStats, SuccinctFile

ALPHAS = [1, 4, 32]


def random_text(rng, size):
    return bytes(rng.integers(1, 9, size, dtype=np.uint8))


# ----------------------------------------------------------------------
# Kernel parity: batched == scalar, byte for byte
# ----------------------------------------------------------------------


class TestKernelParity:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decompress_round_trip(self, alpha):
        rng = np.random.default_rng(alpha)
        for _ in range(10):
            text = random_text(rng, int(rng.integers(1, 800)))
            assert SuccinctFile(text, alpha=alpha).decompress() == text

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_extract_matches_scalar(self, alpha):
        rng = np.random.default_rng(100 + alpha)
        text = random_text(rng, 500)
        sf = SuccinctFile(text, alpha=alpha)
        for _ in range(30):
            offset = int(rng.integers(0, len(text) + 1))
            length = int(rng.integers(0, len(text)))
            assert sf.extract(offset, length) == sf.extract_scalar(offset, length)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_extract_batch_matches_scalar(self, alpha):
        rng = np.random.default_rng(200 + alpha)
        text = random_text(rng, 400)
        sf = SuccinctFile(text, alpha=alpha)
        requests = [
            (int(rng.integers(0, len(text))), int(rng.integers(0, 60)))
            for _ in range(12)
        ] + [(0, 0), (len(text), 5)]  # empty + clamped tail
        expected = [sf.extract_scalar(o, n) for o, n in requests]
        assert sf.extract_batch(requests) == expected

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_char_at_batch_matches_scalar(self, alpha):
        rng = np.random.default_rng(300 + alpha)
        text = random_text(rng, 300)
        sf = SuccinctFile(text, alpha=alpha)
        offsets = rng.integers(0, len(text), 50)
        chars = sf.char_at_batch(offsets)
        assert chars.dtype == np.uint8
        assert chars.tolist() == [sf.char_at(int(o)) for o in offsets]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_search_matches_scalar(self, alpha):
        rng = np.random.default_rng(400 + alpha)
        text = random_text(rng, 600)
        sf = SuccinctFile(text, alpha=alpha)
        for size in (1, 2, 3):  # 1-byte patterns exercise the many-hit path
            for _ in range(8):
                start = int(rng.integers(0, len(text) - size))
                pattern = text[start : start + size]
                batched = sf.search(pattern)
                assert batched.tolist() == sf.search_scalar(pattern).tolist()

    def test_search_miss_and_empty(self):
        sf = SuccinctFile(b"abcabc", alpha=2)
        assert sf.search(b"zzz").tolist() == []
        assert sf.search(b"").tolist() == sf.search_scalar(b"").tolist()

    def test_batched_kernel_counters(self):
        rng = np.random.default_rng(9)
        text = random_text(rng, 2000)
        sf = SuccinctFile(text, alpha=32)
        before = sf.stats.snapshot()
        sf.extract(100, 512)
        delta = sf.stats.delta_since(before)
        assert delta.batch_kernel_calls == 1
        assert delta.npa_batched_hops > 0
        assert delta.npa_batched_hops <= delta.npa_hops
        # A one-byte pattern matches many rows -> batched SA resolution.
        before = sf.stats.snapshot()
        hits = sf.search(text[:1])
        assert len(hits) > 8
        delta = sf.stats.delta_since(before)
        assert delta.batch_kernel_calls == 1
        assert delta.npa_batched_hops == delta.npa_hops

    def test_scalar_residue_counter(self):
        sf = SuccinctFile(b"abcdefgh" * 40, alpha=32)
        sf.stats.reset()
        sf.extract_scalar(3, 64)
        assert sf.stats.npa_batched_hops == 0
        assert sf.stats.scalar_npa_hops == sf.stats.npa_hops > 0


# ----------------------------------------------------------------------
# AccessStats thread-safety helpers
# ----------------------------------------------------------------------


class TestAccessStats:
    def test_add_is_atomic_under_threads(self):
        import threading

        stats = AccessStats()

        def work():
            for _ in range(1000):
                stats.add(npa_hops=2, npa_batched_hops=1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.npa_hops == 8000
        assert stats.npa_batched_hops == 4000
        assert stats.scalar_npa_hops == 4000

    def test_merge_counts_new_fields(self):
        a = AccessStats()
        b = AccessStats(npa_hops=5, npa_batched_hops=3, batch_kernel_calls=2)
        a.merge(b)
        assert a.npa_batched_hops == 3
        assert a.batch_kernel_calls == 2
        assert a.delta_since(AccessStats()).npa_hops == 5


# ----------------------------------------------------------------------
# ShardExecutor
# ----------------------------------------------------------------------


class TestShardExecutor:
    def test_map_preserves_order(self):
        executor = ShardExecutor()
        assert executor.map(lambda x: x * x, range(20)) == [
            x * x for x in range(20)
        ]

    def test_map_serial_when_one_worker(self):
        # The caller's thread is the only worker: every item runs on it.
        seen = set()

        def work(x):
            seen.add(threading.get_ident())
            return x + 1

        assert ShardExecutor().map(work, [1, 2, 3]) == [2, 3, 4]
        assert seen == {threading.get_ident()}

    def test_map_propagates_exceptions(self):
        def boom(x):
            raise RuntimeError("shard failure")

        with pytest.raises(RuntimeError, match="shard failure"):
            ShardExecutor().map(boom, [1, 2])

    def test_shared_stats_items_never_race(self):
        shared = AccessStats()
        seen_threads = set()

        def work(index):
            # Unlocked increment: safe because map never leaves the
            # caller's thread.
            seen_threads.add(threading.get_ident())
            shared.npa_hops += 1
            return index

        assert ShardExecutor().map(work, range(50)) == list(range(50))
        assert shared.npa_hops == 50
        assert seen_threads == {threading.get_ident()}

    def test_invalid_worker_count(self):
        # The pool width knob is gone; no worker count is accepted.
        with pytest.raises(TypeError):
            ShardExecutor(max_workers=1)
        with pytest.raises(TypeError):
            ShardExecutor(4)
        with pytest.raises(TypeError):
            ZipG.compress(GraphData(), max_workers=1)

    def test_store_fanout_matches_serial(self):
        graph = GraphData()
        for node_id in range(16):
            graph.add_node(node_id, {"name": f"n{node_id}", "city": "Ithaca"})
            graph.add_edge(node_id, (node_id + 1) % 16, 0, node_id, {"w": "1"})
        store = ZipG.compress(graph, num_shards=4, alpha=4)
        locations = [store.logstore] + store.shards
        expected = sorted(
            node
            for location in locations
            for node in location.find_live_nodes({"city": "Ithaca"})
        )
        assert store.get_node_ids({"city": "Ithaca"}) == expected == list(range(16))
        expected_edges = sorted(
            (s, t, d.destination)
            for location in locations
            for s, t, d in location.find_edges_by_property("w", "1")
        )
        assert [
            (s, t, d.destination) for s, t, d in store.find_edges("w", "1")
        ] == expected_edges

    def test_broadcasts_spawn_no_shard_threads(self):
        from repro.cluster import ReplicatedZipGCluster

        graph = GraphData()
        for node_id in range(12):
            graph.add_node(node_id, {"city": "Ithaca"})
            graph.add_edge(node_id, (node_id + 1) % 12, 0, node_id, {"w": "1"})
        store = ZipG.compress(graph, num_shards=4, alpha=4)
        replicated = ReplicatedZipGCluster(store, num_servers=2)
        placed = ReplicatedZipGCluster(store, num_servers=2, replication_factor=1)
        for target in (store, placed, replicated):
            assert target.get_node_ids({"city": "Ithaca"}) == list(range(12))
        for target in (store, replicated):
            assert len(target.find_edges("w", "1")) == 12
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("zipg-shard")
        ]


# ----------------------------------------------------------------------
# Regression: dangling ACTIVE_LOGSTORE pointers (confirmed bug)
# ----------------------------------------------------------------------


def one_node_store():
    graph = GraphData()
    graph.add_node(1, {"name": "Alice"})
    graph.add_node(2, {"name": "Bob"})
    return ZipG.compress(graph, num_shards=1, alpha=4)


class TestDanglingPointerRegression:
    def test_delete_edge_prunes_empty_logstore_bucket(self):
        store = one_node_store()
        store.append_edge(1, 0, 2, timestamp=10)
        assert store._table(1).edge_shards(1, 0) == [ACTIVE_LOGSTORE]
        store.delete_edge(1, 0, 2)  # physically empties the bucket
        assert store._table(1).edge_shards(1, 0) == []
        assert store.node_fragment_count(1) == 1

    def test_fragment_count_one_after_append_delete_freeze(self):
        # The confirmed repro: append edge -> delete edge -> freeze.
        store = one_node_store()
        store.append_edge(1, 0, 2, timestamp=10)
        store.delete_edge(1, 0, 2)
        store.freeze_logstore()
        assert store.node_fragment_count(1) == 1
        # And queries no longer visit a LogStore that holds nothing.
        assert store._edge_locations(1, 0) == [store.shards[store.route(1)]]

    def test_freeze_drops_stale_pointers_left_by_older_stores(self):
        # Simulate the pre-fix state: a stale ACTIVE pointer whose
        # bucket is already gone (e.g. left by an older code path).
        store = one_node_store()
        store._table(1).add_edge_pointer(1, 0, ACTIVE_LOGSTORE)
        store.freeze_logstore()
        assert store._table(1).edge_shards(1, 0) == []
        assert store.node_fragment_count(1) == 1

    def test_freeze_drops_tombstoned_node_pointer(self):
        store = one_node_store()
        store.append_node(3, {"name": "Carol"})
        store.delete_node(3)
        store.freeze_logstore()
        assert store._table(3).node_shards(3) == []
        assert not store.has_node(3)

    def test_partial_delete_keeps_pointer(self):
        store = one_node_store()
        store.append_edge(1, 0, 2, timestamp=10)
        store.append_edge(1, 0, 5, timestamp=20)
        store.delete_edge(1, 0, 2)  # bucket still holds the edge to 5
        assert store._table(1).edge_shards(1, 0) == [ACTIVE_LOGSTORE]
        record = store.get_edge_record(1, 0)
        assert record.destinations() == [5]

    def test_delete_then_reappend_routes_correctly(self):
        store = one_node_store()
        store.append_edge(1, 0, 2, timestamp=10)
        store.delete_edge(1, 0, 2)
        store.append_edge(1, 0, 7, timestamp=30)
        assert store._table(1).edge_shards(1, 0) == [ACTIVE_LOGSTORE]
        store.freeze_logstore()
        assert store.get_edge_record(1, 0).destinations() == [7]
        assert store.node_fragment_count(1) == 2  # home + frozen shard

    def test_pointer_removal_helpers(self):
        table = UpdatePointerTable()
        table.add_node_pointer(1, 3)
        table.add_node_pointer(1, ACTIVE_LOGSTORE)
        table.add_edge_pointer(1, 0, ACTIVE_LOGSTORE)
        table.remove_node_pointer(1, ACTIVE_LOGSTORE)
        assert table.node_shards(1) == [3]
        table.remove_node_pointer(1, 99)  # no-op
        table.drop_active()
        assert table.edge_shards(1, 0) == []
        assert table.fragment_count(1) == 1


# ----------------------------------------------------------------------
# Regression: freeze-threshold accounting under deletes
# ----------------------------------------------------------------------


class TestLogStoreSizeAccounting:
    def test_delete_node_releases_size(self):
        log = LogStore()
        log.append_node(1, {"name": "Alice", "city": "Ithaca"})
        size = log.size_bytes()
        assert size > 0
        log.delete_node(1)
        assert log.size_bytes() == 0
        # Revive: size comes back, exactly once.
        log.append_node(1, {"name": "Alice", "city": "Ithaca"})
        assert log.size_bytes() == size

    def test_double_delete_subtracts_once(self):
        log = LogStore()
        log.append_node(1, {"name": "Alice"})
        log.delete_node(1)
        log.delete_node(1)
        assert log.size_bytes() == 0

    def test_overwrite_live_node_keeps_accounting(self):
        log = LogStore()
        log.append_node(1, {"name": "Alice"})
        log.append_node(1, {"name": "Al"})
        expected = LogStore._node_size(1, {"name": "Al"})
        assert log.size_bytes() == expected

    def test_revive_with_different_properties(self):
        log = LogStore()
        log.append_node(1, {"name": "Alice", "city": "Ithaca"})
        log.delete_node(1)
        log.append_node(1, {"name": "Al"})
        assert log.size_bytes() == LogStore._node_size(1, {"name": "Al"})

    def test_delete_heavy_workload_does_not_trigger_freeze(self):
        graph = GraphData()
        graph.add_node(1, {"name": "Alice"})
        store = ZipG.compress(
            graph, num_shards=1, alpha=4, logstore_threshold_bytes=600
        )
        # Append/delete churn whose *live* payload stays tiny: with dead
        # payload wrongly counted, the threshold fires spuriously.
        for round_index in range(20):
            store.append_node(1000 + round_index, {"name": "x" * 40})
            store.delete_node(1000 + round_index)
        assert store.freeze_count == 0
        assert store.logstore.size_bytes() == 0

    def test_edge_tombstone_set_removed(self):
        assert not hasattr(LogStore(), "_edge_tombstones")
