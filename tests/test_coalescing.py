"""Single-flight coalescing (repro.perf.coalesce) and the cluster's
shared broadcast fan-outs."""

import threading
import time

import pytest

from repro import chaos, obs
from repro.chaos import ChaosInjector, FaultInjected, FaultRule
from repro.cluster.replication import ReplicatedZipGCluster
from repro.core import GraphData, ZipG
from repro.obs.metrics import Counter
from repro.perf import SingleFlight


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
    return ZipG.compress(graph, num_shards=2, alpha=4,
                         logstore_threshold_bytes=1 << 20)


def _await(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


# ----------------------------------------------------------------------
# SingleFlight
# ----------------------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_callers_share_one_execution(self):
        flights = SingleFlight()
        release = threading.Event()
        calls = []

        def fn():
            calls.append(1)
            release.wait(5)
            return "result"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(flights.do("k", fn))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        _await(lambda: flights.shared == 3)
        release.set()
        for thread in threads:
            thread.join(5)
        assert results == ["result"] * 4
        assert len(calls) == 1
        assert flights.shared == 3

    def test_sequential_calls_do_not_share(self):
        flights = SingleFlight()
        assert flights.do("k", lambda: 1) == 1
        assert flights.do("k", lambda: 2) == 2  # flight already retired
        assert flights.shared == 0

    def test_leader_error_propagates_to_followers(self):
        flights = SingleFlight()
        entered = threading.Event()
        release = threading.Event()

        def fn():
            entered.set()
            release.wait(5)
            raise FaultInjected("boom")

        outcomes = []

        def call():
            try:
                flights.do("k", fn)
            except FaultInjected as exc:
                outcomes.append(exc)

        leader = threading.Thread(target=call)
        leader.start()
        assert entered.wait(5)
        follower = threading.Thread(target=call)
        follower.start()
        _await(lambda: flights.shared == 1)
        release.set()
        leader.join(5)
        follower.join(5)
        assert len(outcomes) == 2

    def test_on_shared_hook_fires_per_follower(self):
        shared_calls = []
        flights = SingleFlight()
        release = threading.Event()
        entered = threading.Event()

        def fn():
            entered.set()
            release.wait(5)
            return 0

        def call():
            flights.do("k", fn, on_shared=lambda: shared_calls.append(1))

        leader = threading.Thread(target=call)
        leader.start()
        assert entered.wait(5)
        follower = threading.Thread(target=call)
        follower.start()
        _await(lambda: flights.shared == 1)
        release.set()
        leader.join(5)
        follower.join(5)
        assert len(shared_calls) == 1


# ----------------------------------------------------------------------
# Shared broadcast fan-outs (ReplicatedZipGCluster._broadcast)
# ----------------------------------------------------------------------


def coalesced_fanouts():
    return sum(m.value for m in obs.get_registry().metrics()
               if isinstance(m, Counter)
               and m.name == "zipg_executor_coalesced_fanouts_total")


def gate_first_fanout(monkeypatch, store):
    """Make the store's first fan-out block until ``release`` is set;
    returns ``(entered, release, fanouts)``."""
    entered, release = threading.Event(), threading.Event()
    fanouts = []
    real = store.executor.map

    def gated(*args, **kwargs):
        fanouts.append(1)
        if len(fanouts) == 1:
            entered.set()
            release.wait(5)
        return real(*args, **kwargs)

    monkeypatch.setattr(store.executor, "map", gated)
    return entered, release, fanouts


class TestMapShared:
    """Identical concurrent broadcasts share one fan-out through the
    cluster's SingleFlight (formerly ``ShardExecutor.map_shared``)."""

    def test_none_key_bypasses_coalescing(self, monkeypatch):
        cluster = ReplicatedZipGCluster(build_store(), num_servers=2,
                                        replication_factor=1)

        def no_flights(*args):
            raise AssertionError("args_key=None must not single-flight")

        monkeypatch.setattr(cluster._broadcast_flights, "do", no_flights)
        hits = cluster._broadcast("get_node_ids", "find_live_nodes",
                                  [{"city": "Ithaca"}], list, False)
        assert sorted(node for unit in hits for node in unit) == [1, 3]

    def test_concurrent_identical_fanouts_share_one_execution(self, monkeypatch):
        store = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=2,
                                        replication_factor=1)
        entered, release, fanouts = gate_first_fanout(monkeypatch, store)
        before = coalesced_fanouts()
        results = [None, None]

        def call(slot):
            results[slot] = cluster.get_node_ids({"city": "Ithaca"})

        leader = threading.Thread(target=call, args=(0,))
        leader.start()
        assert entered.wait(5)
        follower = threading.Thread(target=call, args=(1,))
        follower.start()
        _await(lambda: cluster._broadcast_flights.shared == 1)
        release.set()
        leader.join(5)
        follower.join(5)
        assert results[0] == results[1] == [1, 3]
        assert len(fanouts) == 1  # one fan-out total, not two
        assert coalesced_fanouts() - before == 1

    def test_different_keys_do_not_share(self, monkeypatch):
        store = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=2,
                                        replication_factor=1)
        entered, release, fanouts = gate_first_fanout(monkeypatch, store)
        results = {}

        def call(city):
            results[city] = cluster.get_node_ids({"city": city})

        leader = threading.Thread(target=call, args=("Ithaca",))
        leader.start()
        assert entered.wait(5)
        call("Boston")  # runs its own fan-out while the leader is parked
        release.set()
        leader.join(5)
        assert results == {"Ithaca": [1, 3], "Boston": [2]}
        assert len(fanouts) == 2
        assert cluster._broadcast_flights.shared == 0

    def test_broadcast_after_write_is_not_shared(self, monkeypatch):
        store = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=2,
                                        replication_factor=1)
        entered, release, fanouts = gate_first_fanout(monkeypatch, store)
        results = {}

        def before_write():
            results["before"] = cluster.get_node_ids({"city": "Ithaca"})

        leader = threading.Thread(target=before_write)
        leader.start()
        assert entered.wait(5)
        cluster.append_node(9, {"city": "Ithaca"})  # bumps the store epoch
        # Same query, new epoch: a fresh fan-out that sees the write.
        assert cluster.get_node_ids({"city": "Ithaca"}) == [1, 3, 9]
        release.set()
        leader.join(5)
        assert len(fanouts) == 2
        assert cluster._broadcast_flights.shared == 0


# ----------------------------------------------------------------------
# The cluster's coalesced broadcast
# ----------------------------------------------------------------------


class TestClusterKnobs:
    def test_broadcast_flight_key_embeds_epoch(self, monkeypatch):
        store = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=2,
                                        replication_factor=1)
        keys = []
        real = cluster._broadcast_flights.do

        def spy(flight_key, fn, **kwargs):
            keys.append(flight_key)
            return real(flight_key, fn, **kwargs)

        monkeypatch.setattr(cluster._broadcast_flights, "do", spy)
        expected = cluster.get_node_ids({"city": "Ithaca"})
        assert cluster.get_node_ids({"city": "Ithaca"}) == expected
        assert keys[0] is not None and keys[0] == keys[1]
        store.append_node(9, {"city": "Ithaca"})  # bumps the store epoch
        cluster.get_node_ids({"city": "Ithaca"})
        assert keys[2] != keys[1]

    def test_no_retries_control(self):
        store = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=2,
                                        replication_factor=1)
        chaos.install(ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_EXECUTOR_CALL, times=1),
        ]))
        with pytest.raises(FaultInjected):
            cluster.get_node_ids({"city": "Ithaca"})
