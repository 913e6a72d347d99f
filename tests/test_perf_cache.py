"""The memory-budgeted hot-set cache (repro.perf): budget accounting,
segmented-LRU behavior, single-flight loads, epoch invalidation on the
live store, and crash/failover freshness with the cache enabled."""

import threading
import time

import numpy as np
import pytest

from conftest import chaos_seeds
from repro import chaos, obs
from repro.chaos import ChaosInjector, FaultRule, SimulatedCrash
from repro.cluster.replication import ReplicatedZipGCluster
from repro.core import GraphData, ZipG
from repro.core.model import EdgeData
from repro.core.persistence import attach_wal, load_store, save_store
from repro.perf import (
    ENTRY_OVERHEAD_BYTES,
    PROTECTED_FRACTION,
    Epoch,
    HotSetCache,
    estimate_size,
)

#: put() charges estimate_size(payload) + ENTRY_OVERHEAD_BYTES; a
#: 52-byte bytes payload estimates to 100, so one entry costs 196.
_ENTRY = 100 + ENTRY_OVERHEAD_BYTES
_PAYLOAD = b"x" * 52


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()


def build_store(**kwargs):
    graph = GraphData()
    graph.add_node(1, {"name": "Alice", "city": "Ithaca"})
    graph.add_node(2, {"name": "Bob", "city": "Boston"})
    graph.add_node(3, {"name": "Carol", "city": "Ithaca"})
    graph.add_edge(1, 2, 0, 100, {"w": "5"})
    graph.add_edge(1, 3, 0, 200)
    graph.add_edge(2, 3, 1, 50)
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("alpha", 4)
    kwargs.setdefault("logstore_threshold_bytes", 1 << 20)
    return ZipG.compress(graph, **kwargs)


# ----------------------------------------------------------------------
# Budget + size estimation units
# ----------------------------------------------------------------------


class TestCacheBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotSetCache(0)
        with pytest.raises(ValueError):
            HotSetCache(-5)

    def test_protected_bytes(self):
        cache = HotSetCache(1000)
        assert (cache.budget_bytes, cache.protected_bytes) == (1000, 800)


class TestEstimateSize:
    def test_scalar_types(self):
        assert estimate_size(None) == 8
        assert estimate_size(True) == 28
        assert estimate_size(7) == 32
        assert estimate_size(b"abcd") == 4 + 48
        assert estimate_size("abcd") == 4 + 56

    def test_numpy_arrays_use_nbytes(self):
        array = np.zeros(100, dtype=np.int64)
        assert estimate_size(array) == array.nbytes + 96

    def test_containers_recurse(self):
        assert estimate_size([7, 7]) == 56 + 64
        assert estimate_size({"k": 7}) == 64 + (1 + 56) + 32

    def test_fallback_for_exotic_objects(self):
        assert estimate_size(object()) > 0

    def test_dataclasses_recurse_into_fields(self):
        # A cached find_edges result is a list of (src, etype, EdgeData):
        # each entry must pay for its property dict, not a flat 48 B.
        assert estimate_size(EdgeData(1, 2, {"k": "v" * 1000})) > 1000


class TestEpoch:
    def test_bump_is_monotone(self):
        epoch = Epoch()
        assert epoch.value == 0
        assert epoch.bump() == 1
        assert epoch.bump() == 2
        assert int(epoch) == 2


# ----------------------------------------------------------------------
# Segmented-LRU behavior under the byte budget
# ----------------------------------------------------------------------


class TestHotSetCache:
    def test_put_get_roundtrip_and_negative_caching(self):
        cache = HotSetCache(1 << 16)
        assert cache.get("missing") == (False, None)
        assert cache.put("k", None)  # None is a cachable value
        assert cache.get("k") == (True, None)

    def test_eviction_keeps_bytes_under_budget(self):
        budget = 10 * _ENTRY
        cache = HotSetCache(budget)
        for i in range(50):
            assert cache.put(i, _PAYLOAD)
            assert cache.bytes_used <= budget
        assert len(cache) <= 10
        snap = cache.stats()
        assert snap["evictions"] == 40
        assert snap["bytes"] <= budget

    def test_oversized_entry_rejected(self):
        cache = HotSetCache(256)
        assert not cache.put("huge", b"x" * 1024)
        assert len(cache) == 0

    def test_reput_replaces_without_double_charge(self):
        cache = HotSetCache(1 << 16)
        cache.put("k", _PAYLOAD)
        cache.put("k", _PAYLOAD)
        assert cache.bytes_used == _ENTRY
        assert len(cache) == 1

    def test_rereferenced_entry_survives_scan(self):
        # A promoted (twice-touched) entry must outlive a one-touch
        # scan that is much larger than the whole budget. At the 0.8
        # protected fraction, probation keeps room for two entries.
        cache = HotSetCache(10 * _ENTRY)
        assert cache.protected_bytes == int(10 * _ENTRY * PROTECTED_FRACTION)
        cache.put("hot", _PAYLOAD)
        assert cache.get("hot")[0]  # promote to protected
        for i in range(100):
            cache.put(i, _PAYLOAD)
        assert cache.get("hot")[0]

    def test_clear_preserves_counters(self):
        cache = HotSetCache(1 << 16)
        cache.put("k", _PAYLOAD)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0
        assert cache.stats()["hits"] == 1

    def test_get_or_load_single_flight(self):
        cache = HotSetCache(1 << 20)
        started = threading.Event()
        release = threading.Event()
        calls = []

        def loader():
            calls.append(1)
            started.set()
            release.wait(5)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_load("k", loader))
            )
            for _ in range(5)
        ]
        for thread in threads:
            thread.start()
        assert started.wait(5)
        release.set()
        for thread in threads:
            thread.join(5)
        assert results == ["value"] * 5
        assert len(calls) == 1  # one loader execution for 5 callers

    def test_get_or_load_late_caller_does_not_reload(self, monkeypatch):
        """Regression: the leader used to unpublish its flight *before*
        caching the value, so a caller arriving in between missed both
        the cache and the flight table and ran the loader again."""
        cache = HotSetCache(1 << 20)
        calls, late, callers = [], [], []

        def loader():
            calls.append(1)
            return "value"

        real_put = cache.put

        def put_with_late_caller(key, value):
            if not callers:  # a second caller arrives as the leader caches
                callers.append(threading.Thread(
                    target=lambda: late.append(cache.get_or_load(key, loader))
                ))
                callers[0].start()
                callers[0].join(0.2)
            return real_put(key, value)

        monkeypatch.setattr(cache, "put", put_with_late_caller)
        assert cache.get_or_load("k", loader) == "value"
        callers[0].join(5)
        assert late == ["value"]
        assert len(calls) == 1
        snap = cache.stats()
        assert (snap["misses"], snap["coalesced_loads"]) == (1, 1)

    def test_get_or_load_propagates_loader_errors(self):
        cache = HotSetCache(1 << 16)

        def loader():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_load("k", loader)
        assert cache.get("k") == (False, None)  # nothing cached

    def test_metrics_exported_through_obs(self):
        cache = HotSetCache(1 << 16)
        cache.put("k", _PAYLOAD)
        cache.get("k")
        cache.get("absent")
        counters = obs.get_registry().collected_counters()
        for name in ("zipg_cache_hits_total", "zipg_cache_misses_total",
                     "zipg_cache_evictions_total", "zipg_cache_bytes_total"):
            assert name in counters, name
        assert counters["zipg_cache_hits_total"] >= 1.0
        assert counters["zipg_cache_misses_total"] >= 1.0


# ----------------------------------------------------------------------
# Epoch invalidation on the live store
# ----------------------------------------------------------------------


def _twin_stores():
    """One cached and one uncached store built from the same graph."""
    cached, oracle = build_store(), build_store()
    cached.enable_cache(1 << 20)
    return cached, oracle


def _apply_both(cached, oracle, fn):
    fn(cached)
    fn(oracle)


def _assert_agree(cached, oracle):
    for node in (1, 2, 3, 9):
        assert cached.has_node(node) == oracle.has_node(node), node
        if oracle.has_node(node):
            assert cached.get_node_property(node) == \
                oracle.get_node_property(node), node
            # Read after the wildcard: the property subset is part of
            # the key, so this must not be answered with all properties.
            assert cached.get_node_property(node, ["city"]) == \
                oracle.get_node_property(node, ["city"]), node
        for edge_type in (0, 1):
            assert cached.get_neighbor_ids(node, edge_type) == \
                oracle.get_neighbor_ids(node, edge_type), (node, edge_type)
    assert cached.get_node_ids({"city": "Ithaca"}) == \
        oracle.get_node_ids({"city": "Ithaca"})
    assert cached.find_edges("w", "5") == oracle.find_edges("w", "5")


class TestStoreEpochInvalidation:
    def test_repeat_reads_hit_the_cache(self):
        store = build_store()
        cache = store.enable_cache(1 << 20)
        first = store.get_neighbor_ids(1, 0)
        assert store.get_neighbor_ids(1, 0) == first
        assert cache.stats()["hits"] >= 1

    @pytest.mark.parametrize("mutate", [
        lambda s: s.append_node(9, {"name": "Ida", "city": "Ithaca"}),
        lambda s: s.append_edge(1, 0, 3, timestamp=900),
        lambda s: s.delete_edge(1, 0, 2),
        lambda s: s.delete_node(3),
        lambda s: s.update_node(2, {"name": "Bobby", "city": "Ithaca"}),
        lambda s: s.update_edge(1, 0, 2, timestamp=150, properties={"w": "7"}),
    ], ids=["append_node", "append_edge", "delete_edge", "delete_node",
            "update_node", "update_edge"])
    def test_mutation_invalidates_cached_reads(self, mutate):
        cached, oracle = _twin_stores()
        _assert_agree(cached, oracle)  # warm every cached read path
        _apply_both(cached, oracle, mutate)
        _assert_agree(cached, oracle)  # stale answers would differ here

    def test_freeze_and_compact_invalidate(self):
        cached, oracle = _twin_stores()
        _assert_agree(cached, oracle)
        for step in (
            lambda s: s.append_edge(1, 0, 9, timestamp=901),
            lambda s: s.append_node(9, {"name": "Ida", "city": "Ithaca"}),
            lambda s: s.freeze_logstore(),
            lambda s: s.append_edge(9, 0, 1, timestamp=902),
            lambda s: s.compact_frozen_shards(),
        ):
            _apply_both(cached, oracle, step)
            _assert_agree(cached, oracle)

    def test_disable_cache_reverts_to_uncached_path(self):
        cached, oracle = _twin_stores()
        _assert_agree(cached, oracle)
        cached.disable_cache()
        assert cached.cache is None
        _assert_agree(cached, oracle)

    def test_wal_replay_bumps_epoch(self):
        store = build_store()
        before = store.epoch.value
        store.apply_wal_record("node", [9, {"name": "Ida"}])
        assert store.epoch.value > before


# ----------------------------------------------------------------------
# Concurrency: readers racing a writer must never see stale data and
# the byte budget must hold at every sample.
# ----------------------------------------------------------------------


class TestConcurrentHammer:
    def test_readers_racing_appends_see_fresh_monotone_results(self):
        store = build_store()
        budget = 32 * 1024
        cache = store.enable_cache(budget)
        writes = 60
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for i in range(writes):
                    store.append_edge(1, 0, 100 + i, timestamp=1000 + i)
                    time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                last = 0
                while not stop.is_set():
                    count = len(store.get_neighbor_ids(1, 0))
                    # Appends only: a shrinking result is a stale read.
                    assert count >= last, (count, last)
                    last = count
                    assert cache.bytes_used <= budget
                    store.get_node_property(2)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors, errors
        # Final cached answer equals the uncached truth.
        final = store.get_neighbor_ids(1, 0)
        store.disable_cache()
        assert final == store.get_neighbor_ids(1, 0)
        assert len(final) == 2 + writes


# ----------------------------------------------------------------------
# Chaos: crash recovery and replica failover with the cache enabled
# ----------------------------------------------------------------------


class TestCacheUnderChaos:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_no_stale_read_survives_crash_recovery(self, tmp_path, seed):
        root = str(tmp_path / "db")
        store = build_store()
        save_store(store, root)
        attach_wal(store, root)
        store.enable_cache(64 * 1024)
        store.get_neighbor_ids(1, 0)  # warm
        store.get_node_property(2)
        store.append_node(9, {"name": "Ida", "city": "Ithaca"})
        store.append_edge(1, 0, 9, timestamp=300)
        store.delete_edge(1, 0, 3)
        store.update_node(2, {"name": "Bobby", "city": "Boston"})
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site="save.*", fault="crash", probability=0.5),
        ])
        chaos.install(injector)
        try:
            save_store(store, root)
        except SimulatedCrash:
            pass
        finally:
            chaos.uninstall()
        loaded = load_store(root)
        loaded.enable_cache(64 * 1024)
        for _ in range(2):  # second pass reads through the cache
            assert loaded.get_node_property(2) == store.get_node_property(2)
            assert loaded.get_node_property(9) == store.get_node_property(9)
            assert loaded.get_neighbor_ids(1, 0) == \
                store.get_neighbor_ids(1, 0)
            assert loaded.get_node_ids({"city": "Ithaca"}) == \
                store.get_node_ids({"city": "Ithaca"})

    def test_replica_failover_serves_fresh_data(self):
        store = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=3,
                                        replication_factor=2)
        store.enable_cache(64 * 1024)
        before = cluster.get_node_ids({"city": "Ithaca"})
        assert cluster.get_node_ids({"city": "Ithaca"}) == before  # cached
        store.append_node(9, {"name": "Ida", "city": "Ithaca"})
        cluster.fail_server(1)
        after = cluster.get_node_ids({"city": "Ithaca"})
        assert 9 in after and set(before) <= set(after)
