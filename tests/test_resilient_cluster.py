"""Replica failover, degraded queries, and cluster thread-safety.

With ``ZIPG_TRANSPORT=socket`` in the environment, every cluster these
tests build dispatches per-server operations over real loopback RPC
(a :class:`repro.server.loopback.LoopbackCluster` sharing the store)
instead of the in-process transport -- same assertions, full framed
wire path.
"""

import threading

import pytest

from conftest import (
    TransportHook,
    contract_probe,
    contract_rows,
    outcome_under,
    socket_transport_enabled,
)
from repro import chaos, obs
from repro.chaos import ChaosInjector, FaultInjected, FaultRule
from repro.cluster import PartialResult, ReplicatedZipGCluster, ShardUnavailable
from repro.cluster.replication import LOGSTORE_UNIT
from repro.core import GraphData, NodeNotFound, ReplicaCallError, ZipG

#: Loopback harnesses opened by build_cluster under ZIPG_TRANSPORT=
#: socket; torn down after each test.
_loopbacks = []


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()
    while _loopbacks:
        _loopbacks.pop().close()


def build_cluster(num_servers=4, replication_factor=2, **kwargs):
    graph = GraphData()
    for i in range(24):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
        graph.add_edge(i, (i + 1) % 24, 0, timestamp=i,
                       properties={"w": str(i % 3)})
    store = ZipG.compress(graph, num_shards=4, alpha=8,
                          logstore_threshold_bytes=1 << 20)
    cluster = ReplicatedZipGCluster(store, num_servers=num_servers,
                                    replication_factor=replication_factor,
                                    **kwargs)
    if socket_transport_enabled():
        from repro.server.loopback import LoopbackCluster

        loopback = LoopbackCluster(store, num_servers)
        _loopbacks.append(loopback)
        cluster.transport = loopback.transport
    return cluster, store


class TestFailover:
    def test_one_replica_failed_per_shard_still_succeeds(self):
        """The issue's acceptance gate: with one replica of every shard
        erroring, queries succeed via failover with zero exceptions
        raised to the caller."""
        cluster, store = build_cluster()
        expected_nodes = store.get_node_ids({"kind": "x"})
        expected_edges = store.find_edges("w", "1")
        failovers = obs.counter("zipg_replica_failovers_total")
        before = failovers.value
        for shard in store.shards:
            primary = cluster.replica_servers(shard.shard_id)[0]
            injector = ChaosInjector(seed=shard.shard_id, rules=[
                FaultRule(site=chaos.SITE_REPLICA_CALL,
                          match={"shard": shard.shard_id, "server": primary}),
            ])
            with chaos.injected(injector):
                assert cluster.get_node_ids({"kind": "x"}) == expected_nodes
                assert cluster.find_edges("w", "1") == expected_edges
        assert failovers.value > before

    def test_failed_server_routes_around(self):
        cluster, store = build_cluster()
        expected = store.get_node_ids({"kind": "x"})
        cluster.fail_server(1)
        assert cluster.get_node_ids({"kind": "x"}) == expected
        for shard in store.shards:
            assert 1 not in cluster.live_replicas(shard.shard_id) or \
                1 not in cluster.down_servers

    def test_replica_call_error_carries_attempts(self):
        cluster, _ = build_cluster()
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL, match={"shard": 1}),
        ])
        with chaos.injected(injector):
            with pytest.raises(ReplicaCallError) as info:
                cluster.call_on_shard(1, lambda server: server)
        error = info.value
        assert error.shard_id == 1
        assert len(error.attempts) == cluster.replication_factor
        assert {s for s, _ in error.attempts} == \
            set(cluster.replica_servers(1))

    def test_call_on_shard_rotates_over_live_replicas(self):
        cluster, _ = build_cluster()
        served = [cluster.call_on_shard(0, lambda server: server)
                  for _ in range(4)]
        assert set(served) == set(cluster.replica_servers(0))

    def test_get_node_property_fails_over(self):
        cluster, store = build_cluster()
        shard_id = store.route(3)
        primary = cluster.replica_servers(shard_id)[0]
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL,
                      match={"shard": shard_id, "server": primary}),
        ])
        with chaos.injected(injector):
            assert cluster.get_node_property(3, "name") == {"name": "n3"}


class TestFailoverContract:
    @pytest.mark.parametrize("unit,condition,seed,expected", contract_rows({
        ("logstore", "down"): ShardUnavailable,
        ("logstore", "raises"): ReplicaCallError,
        ("logstore", "catching_up"): ShardUnavailable,
    }))
    def test_one_affected_server(self, unit, condition, seed, expected):
        """Replicated shards and the node-property read fail over to
        the next live replica; the unreplicated LogStore unit surfaces
        the exact typed error instead."""
        cluster, store = build_cluster()
        cluster.append_node(99, {"name": "late", "kind": "x"})
        server, probe, answer = contract_probe(cluster, store, unit)
        outcome = outcome_under(cluster, condition, server, probe, seed,
                                catch_up_call="apply_write")
        if expected is None:
            assert outcome == answer
        else:
            assert type(outcome) is expected

    def test_miss_is_node_not_found_after_one_rpc(self):
        """A miss is an answer: the first caught-up replica's
        NodeNotFound reaches the caller as is, like the embedded
        store's, without trying the other replica."""
        cluster, store = build_cluster()
        with pytest.raises(NodeNotFound):
            store.get_node_property(999, "name")
        hook = TransportHook(cluster)
        failovers = obs.counter("zipg_replica_failovers_total")
        before = failovers.value
        with pytest.raises(NodeNotFound):
            cluster.get_node_property(999, "name")
        assert [method for _s, method, _u, _c in hook.calls] == \
            ["get_node_property"]
        assert failovers.value == before


class TestPartialResults:
    def fail_shard(self, cluster, shard_id):
        for server in cluster.replica_servers(shard_id):
            cluster.fail_server(server)

    def test_all_replicas_down_surfaces_structured_error(self):
        """Second acceptance gate: a shard with every replica down
        surfaces a structured per-shard error in partial mode instead
        of raising."""
        cluster, store = build_cluster()
        full = store.get_node_ids({"kind": "x"})
        self.fail_shard(cluster, 2)
        result = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert isinstance(result, PartialResult)
        assert not result.complete
        assert result.attempted == store.num_shards + 1
        assert [e.shard_id for e in result.errors] == [2]
        assert isinstance(result.errors[0].error, ShardUnavailable)
        assert set(result.value) <= set(full)

    def test_partial_false_raises(self):
        cluster, _ = build_cluster()
        self.fail_shard(cluster, 2)
        with pytest.raises(ShardUnavailable):
            cluster.get_node_ids({"kind": "x"})

    def test_partial_find_edges_drops_only_failed_shard(self):
        cluster, store = build_cluster()
        full = store.find_edges("w", "1")
        self.fail_shard(cluster, 1)
        result = cluster.find_edges("w", "1", partial_results=True)
        assert [e.shard_id for e in result.errors] == [1]
        # Surviving hits are a subset of the full answer, still in the
        # find_edges sort order (EdgeData is unhashable; compare by eq).
        assert result.value == [hit for hit in full if hit in result.value]
        assert len(result.value) < len(full)

    def test_injected_errors_yield_replica_call_errors(self):
        cluster, _ = build_cluster()
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL, match={"shard": 0}),
        ])
        with chaos.injected(injector):
            result = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert [e.shard_id for e in result.errors] == [0]
        error = result.errors[0]
        assert isinstance(error.error, ReplicaCallError)
        assert error.servers_tried == [s for s, _ in error.error.attempts]

    def test_logstore_server_down_is_a_structured_unit(self):
        cluster, store = build_cluster()
        store.append_node(99, {"name": "late", "kind": "x"})
        cluster.fail_server(cluster.logstore_server)
        # Server 0 also hosts shard replicas; shard 0's other replica
        # keeps it alive, but the unreplicated logstore unit fails.
        result = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert LOGSTORE_UNIT in [e.shard_id for e in result.errors]
        assert 99 not in result.value

    def test_complete_partial_result_when_healthy(self):
        cluster, store = build_cluster()
        result = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert result.complete and result.errors == []
        assert result.value == store.get_node_ids({"kind": "x"})


class TestBroadcastRetries:
    """``retries`` adds :meth:`_failover` passes to a broadcast unit
    whose candidates all failed; point reads make one pass."""

    def unit_faults(self, store):
        """One injected ``replica_call`` fault per broadcast unit."""
        units = [LOGSTORE_UNIT] + [shard.shard_id for shard in store.shards]
        return ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL, match={"shard": unit},
                      times=1)
            for unit in units
        ]), len(units)

    def test_one_fault_per_unit_is_absorbed(self):
        cluster, store = build_cluster(replication_factor=1, retries=1)
        expected_nodes = store.get_node_ids({"kind": "x"})
        expected_edges = store.find_edges("w", "1")
        injector, units = self.unit_faults(store)
        with chaos.injected(injector):
            result = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert result.complete and result.value == expected_nodes
        assert len(injector.injection_log) == units
        injector, units = self.unit_faults(store)
        with chaos.injected(injector):
            assert cluster.find_edges("w", "1") == expected_edges
        assert len(injector.injection_log) == units

    def test_without_retries_the_fault_is_the_units_error(self):
        cluster, _ = build_cluster(replication_factor=1, retries=0)
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL, match={"shard": 1},
                      times=1),
        ])
        with chaos.injected(injector):
            result = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert [e.shard_id for e in result.errors] == [1]
        assert isinstance(result.errors[0].error, ReplicaCallError)
        assert result.errors[0].servers_tried == cluster.replica_servers(1)

    def test_point_read_makes_one_pass(self):
        cluster, store = build_cluster(replication_factor=1, retries=1)
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL,
                      match={"shard": store.route(3)}, times=1),
        ])
        with chaos.injected(injector):
            with pytest.raises(ReplicaCallError):
                cluster.get_node_property(3, "name")

    def test_cluster_leaves_the_store_policy_alone(self):
        """The cluster's retries apply to its own broadcasts only: a
        fan-out fault on the bare store still reaches the caller."""
        cluster, store = build_cluster(num_servers=2, retries=2)
        assert cluster.retries == 2
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_EXECUTOR_CALL, times=1),
        ])
        with chaos.injected(injector):
            with pytest.raises(FaultInjected):
                store.get_node_ids({"kind": "x"})


class TestThreadSafety:
    def test_rotation_and_failures_hammered_concurrently(self):
        """fail/recover racing routed reads must never corrupt the
        rotation or down-set state (satellite: the _state_lock)."""
        cluster, store = build_cluster(num_servers=4, replication_factor=3)
        errors = []
        stop = threading.Event()

        def flapper():
            while not stop.is_set():
                for server in (1, 2):
                    cluster.fail_server(server)
                    cluster.recover_server(server)

        def reader():
            try:
                for _ in range(300):
                    cluster.call_on_shard(0, lambda server: server)
                    cluster.server_of_shard(1)
                    cluster.live_replicas(2)
                    cluster.down_servers
            except ReplicaCallError:
                pass  # a read can lose the race; state must stay sane
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        flap = threading.Thread(target=flapper)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        flap.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        flap.join()
        assert errors == []
        cluster.recover_server(1)
        cluster.recover_server(2)
        assert cluster.down_servers == set()
        assert cluster.is_available()

    def test_degraded_query_metric_incremented(self):
        cluster, _ = build_cluster()
        counter = obs.counter("zipg_degraded_queries_total",
                              labels={"query": "get_node_ids"})
        before = counter.value
        for server in cluster.replica_servers(3):
            cluster.fail_server(server)
        cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert counter.value == before + 1
