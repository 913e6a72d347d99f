"""Replica re-admission: LSN tracking, catch-up replay, failure paths.

The bug these tests pin down: ``recover_server`` used to re-admit a
replica to read rotation immediately, even though it missed every
replicated write acknowledged while it was down -- reads routed to it
returned stale data.  Recovery now replays the missed oplog tail
(``apply_write`` RPCs) while holding the replica out of rotation, and
a replica whose replay fails goes back to down.
"""

import pytest

from conftest import TransportHook, chaos_seeds
from repro import chaos, obs
from repro.chaos import ChaosInjector, FaultRule
from repro.cluster import ReplicatedZipGCluster, ShardUnavailable
from repro.cluster.replication import LOGSTORE_UNIT
from repro.core import GraphData, ReplicaCallError, ZipG
from repro.core.errors import TransportError
from repro.core.model import EdgeData
from repro.server.loopback import LoopbackCluster
from repro.server.transport import InProcessTransport


def build_graph(extra_nodes=0):
    graph = GraphData()
    for i in range(12 + extra_nodes):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
        graph.add_edge(i, (i + 1) % 12, 0, timestamp=i)
    return graph


def build_cluster(num_servers=3, replication_factor=2):
    store = ZipG.compress(build_graph(), num_shards=3, alpha=8,
                          logstore_threshold_bytes=1 << 20)
    cluster = ReplicatedZipGCluster(store, num_servers=num_servers,
                                    replication_factor=replication_factor)
    return cluster, store


class RecordingTransport(InProcessTransport):
    """In-process transport that records calls and can fail servers."""

    def __init__(self, store, cluster=None, fail_servers=()):
        super().__init__(store)
        self.cluster = cluster
        self.fail_servers = set(fail_servers)
        self.calls = []
        self.replay_observations = []

    def call(self, server_id, method, args, unit=None, kwargs=None):
        self.calls.append((server_id, method, list(args)))
        if method == "apply_write" and server_id in self.fail_servers:
            raise TransportError(f"server {server_id} unreachable")
        if method == "apply_write" and self.cluster is not None:
            # Snapshot mid-replay state so tests can assert the server
            # was held out of rotation while its tail replayed.
            self.replay_observations.append((
                server_id,
                set(self.cluster.catching_up_servers),
                obs.gauge("zipg_replicas_catching_up").value,
            ))
        return super().call(server_id, method, args, unit=unit, kwargs=kwargs)


class TestLsnTracking:
    def test_commit_lsn_advances_per_write(self):
        cluster, _ = build_cluster()
        assert cluster.commit_lsn == 0
        cluster.append_node(100, {"name": "a", "kind": "x"})
        assert cluster.commit_lsn == 1
        cluster.append_edge(100, 0, 1, timestamp=9)
        assert cluster.commit_lsn == 2

    def test_live_servers_acknowledge_every_lsn(self):
        cluster, _ = build_cluster()
        cluster.append_node(100, {"name": "a", "kind": "x"})
        cluster.append_node(101, {"name": "b", "kind": "y"})
        for server in range(cluster.num_servers):
            assert cluster.applied_lsn(server) == cluster.commit_lsn

    def test_downed_server_falls_behind(self):
        cluster, _ = build_cluster()
        cluster.fail_server(1)
        cluster.append_node(100, {"name": "a", "kind": "x"})
        assert cluster.applied_lsn(1) == 0
        assert cluster.applied_lsn(0) == cluster.commit_lsn == 1


class TestCatchUp:
    def test_recover_replays_missed_tail(self):
        cluster, store = build_cluster()
        transport = RecordingTransport(store, cluster=cluster)
        cluster.transport = transport
        cluster.fail_server(1)
        cluster.append_node(100, {"name": "a", "kind": "x"})
        cluster.append_node(101, {"name": "b", "kind": "y"})
        behind = cluster.commit_lsn - cluster.applied_lsn(1)
        assert behind == 2
        transport.calls.clear()
        cluster.recover_server(1)
        replayed = [args for server, method, args in transport.calls
                    if server == 1 and method == "apply_write"]
        assert [lsn for lsn, _op, _args in replayed] == [1, 2]
        assert cluster.applied_lsn(1) == cluster.commit_lsn
        assert cluster.down_servers == set()
        assert cluster.catching_up_servers == set()

    def test_replica_held_out_of_rotation_during_replay(self):
        cluster, store = build_cluster()
        transport = RecordingTransport(store, cluster=cluster)
        cluster.transport = transport
        cluster.fail_server(1)
        cluster.append_node(100, {"name": "a", "kind": "x"})
        transport.replay_observations.clear()
        cluster.recover_server(1)
        # Every replayed record saw server 1 mid-catch-up and the gauge
        # raised; both drained once the tail finished.
        assert transport.replay_observations
        for server, catching_up, gauge_value in transport.replay_observations:
            assert server == 1
            assert 1 in catching_up
            assert gauge_value >= 1
        assert cluster.catching_up_servers == set()
        assert obs.gauge("zipg_replicas_catching_up").value == 0

    def test_recover_without_missed_writes_skips_replay(self):
        cluster, store = build_cluster()
        transport = RecordingTransport(store, cluster=cluster)
        cluster.transport = transport
        cluster.fail_server(2)
        transport.calls.clear()
        cluster.recover_server(2)
        assert transport.calls == []
        assert cluster.down_servers == set()

    def test_recover_unknown_server_rejected(self):
        cluster, _ = build_cluster()
        with pytest.raises(IndexError):
            cluster.recover_server(99)

    def test_failed_catchup_keeps_server_down(self):
        cluster, store = build_cluster()
        transport = RecordingTransport(store, cluster=cluster,
                                       fail_servers={1})
        cluster.transport = transport
        failures = obs.counter("zipg_replica_catchup_failures_total")
        before = failures.value
        cluster.fail_server(1)
        cluster.append_node(100, {"name": "a", "kind": "x"})
        cluster.recover_server(1)
        assert cluster.down_servers == {1}
        assert cluster.catching_up_servers == set()
        assert failures.value == before + 1
        assert obs.gauge("zipg_replicas_catching_up").value == 0
        # The tail is still owed: a later, successful recovery replays
        # it and re-admits the server.
        transport.fail_servers.clear()
        cluster.recover_server(1)
        assert cluster.down_servers == set()
        assert cluster.applied_lsn(1) == cluster.commit_lsn

    def test_write_failure_marks_server_down_until_catchup(self):
        """A replica that fails an apply_write mid-write is quarantined
        (down) so reads cannot route to its stale store."""
        cluster, store = build_cluster()
        transport = RecordingTransport(store, cluster=cluster,
                                       fail_servers={2})
        cluster.transport = transport
        cluster.append_node(100, {"name": "a", "kind": "x"})
        assert 2 in cluster.down_servers
        assert cluster.applied_lsn(2) < cluster.commit_lsn
        transport.fail_servers.clear()
        cluster.recover_server(2)
        assert cluster.down_servers == set()
        assert cluster.applied_lsn(2) == cluster.commit_lsn


class TestLogStoreDuringCatchUp:
    def test_logstore_unit_never_reads_a_catching_up_server(self):
        """The unreplicated LogStore unit must not be read from its
        server while that server replays its missed tail: the unit is
        ShardUnavailable for the duration, never a stale answer."""
        cluster, store = build_cluster()
        server = cluster.logstore_server
        cluster.fail_server(server)
        cluster.append_node(100, {"name": "late", "kind": "x"})
        during = []

        def broadcast_mid_replay(target, method):
            if target == server and method == "apply_write" and not during:
                during.append(cluster.get_node_ids({"kind": "x"},
                                                   partial_results=True))

        hook = TransportHook(cluster, on_call=broadcast_mid_replay)
        cluster.recover_server(server)
        assert len(during) == 1
        logstore_calls = [(target, catching_up)
                          for target, _method, unit, catching_up in hook.calls
                          if unit == LOGSTORE_UNIT]
        assert all(target not in catching_up
                   for target, catching_up in logstore_calls)
        errors = {e.shard_id: e.error for e in during[0].errors}
        assert list(errors) == [LOGSTORE_UNIT]
        assert isinstance(errors[LOGSTORE_UNIT], ShardUnavailable)
        # Caught up and re-admitted: the unit answers again.
        assert cluster.catching_up_servers == set()
        assert 100 in cluster.get_node_ids({"kind": "x"})

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_reads_mid_replay_under_replica_faults(self, seed):
        """Seeded replica-call faults while a server replays: every
        read mid-replay is the right answer or a typed error, and none
        is routed to the catching-up server."""
        cluster, store = build_cluster()
        cluster.fail_server(1)
        cluster.append_node(100, {"name": "late", "kind": "x"})
        expected = {node: store.get_node_property(node, "name")
                    for node in (*range(12), 100)}
        answers = {}

        def reads_mid_replay(target, method):
            if target == 1 and method == "apply_write" and not answers:
                for node in expected:
                    try:
                        answers[node] = cluster.get_node_property(node, "name")
                    except ReplicaCallError as exc:
                        answers[node] = exc

        hook = TransportHook(cluster, on_call=reads_mid_replay)
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL, probability=0.3),
        ])
        with chaos.injected(injector):
            cluster.recover_server(1)
        assert answers.keys() == expected.keys()
        for node, answer in answers.items():
            assert answer == expected[node] or isinstance(answer,
                                                          ReplicaCallError)
        assert all(target not in catching_up
                   for target, method, _unit, catching_up in hook.calls
                   if method == "get_node_property")
        assert cluster.applied_lsn(1) == cluster.commit_lsn


class TestCatchUpOverRpc:
    def test_recovered_replica_replays_over_the_wire(self):
        """End-to-end over real sockets: private per-server stores, a
        server that misses writes while down, and a recovery that
        replays the tail so the replica's own store converges."""
        graph = build_graph()
        master = ZipG.compress(graph, num_shards=2, alpha=8,
                               logstore_threshold_bytes=1 << 20)

        def replica_factory(server_id):
            return ZipG.compress(build_graph(), num_shards=2, alpha=8,
                                 logstore_threshold_bytes=1 << 20)

        cluster = ReplicatedZipGCluster(master, num_servers=2,
                                        replication_factor=2)
        with LoopbackCluster(master, num_servers=2,
                             replica_factory=replica_factory) as loopback:
            cluster.transport = loopback.transport
            cluster.append_node(200, {"name": "early", "kind": "x"})
            # Both private replicas applied the first write.
            for server in loopback.servers:
                assert server.store.get_node_property(200, ("name",)) == \
                    {"name": "early"}
            cluster.fail_server(1)
            cluster.append_node(201, {"name": "missed", "kind": "x"})
            cluster.append_edge(200, 0, 201, timestamp=5)
            # Server 1's private store missed both mutations.
            assert loopback.servers[0].store.get_node_property(
                201, ("name",)) == {"name": "missed"}
            with pytest.raises(Exception):
                loopback.servers[1].store.get_node_property(201, ("name",))
            cluster.recover_server(1)
            assert cluster.down_servers == set()
            assert cluster.applied_lsn(1) == cluster.commit_lsn
            # The replayed tail converged the private replica.
            assert loopback.servers[1].store.get_node_property(
                201, ("name",)) == {"name": "missed"}
            assert loopback.servers[1].store.get_neighbor_ids(200) == \
                loopback.servers[0].store.get_neighbor_ids(200)


class ApplyWriteLog(TransportHook):
    """A :class:`TransportHook` that also keeps every shipped
    ``apply_write`` as ``(server, lsn, op)``."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.writes = []

    def call(self, server_id, method, args, unit=None, kwargs=None):
        if method == "apply_write":
            self.writes.append((server_id, args[0], args[1]))
        return super().call(server_id, method, args, unit=unit, kwargs=kwargs)


class TestReplicatedUpdates:
    """``update_node`` / ``update_edge`` replicate as a delete record
    and then an append record.  Running them as the store's own
    ``update_*`` would change only the master and skip the oplog."""

    UPDATED_NODE = {"name": "renamed", "kind": "z"}
    UPDATED_EDGES = [EdgeData(4, 50, {"name": "e"})]

    @staticmethod
    def replica(_server_id):
        return ZipG.compress(build_graph(), num_shards=2, alpha=8,
                             logstore_threshold_bytes=1 << 20)

    def update(self, cluster):
        cluster.update_node(3, dict(self.UPDATED_NODE))
        cluster.update_edge(3, 0, 4, timestamp=50, properties={"name": "e"})

    def assert_replicas_updated(self, cluster, loopback):
        for server in loopback.servers:
            assert server.store.get_node_property(3) == self.UPDATED_NODE
            assert server.store.edges_from_index(3, 0, 0, None) == \
                self.UPDATED_EDGES
        # Routed reads rotate over both live replicas.
        for _ in range(2):
            assert cluster.get_node_property(3) == self.UPDATED_NODE

    def test_updates_ship_delete_then_append(self):
        cluster = ReplicatedZipGCluster(self.replica(-1), num_servers=2,
                                        replication_factor=2)
        with LoopbackCluster(cluster.store, num_servers=2,
                             replica_factory=self.replica) as loopback:
            cluster.transport = loopback.transport
            log = ApplyWriteLog(cluster)
            self.update(cluster)
            for server in (0, 1):
                assert [(lsn, op) for target, lsn, op in log.writes
                        if target == server] == [
                    (1, "del_node"), (2, "node"), (3, "del_edge"), (4, "edge"),
                ]
                assert cluster.applied_lsn(server) == cluster.commit_lsn == 4
            self.assert_replicas_updated(cluster, loopback)

    def test_recovered_replica_sees_updates(self):
        cluster = ReplicatedZipGCluster(self.replica(-1), num_servers=2,
                                        replication_factor=2)
        with LoopbackCluster(cluster.store, num_servers=2,
                             replica_factory=self.replica) as loopback:
            cluster.transport = loopback.transport
            cluster.fail_server(1)
            self.update(cluster)
            assert cluster.applied_lsn(1) == 0
            cluster.recover_server(1)
            assert cluster.down_servers == set()
            assert cluster.applied_lsn(1) == cluster.commit_lsn == 4
            self.assert_replicas_updated(cluster, loopback)
