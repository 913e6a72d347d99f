"""Tests for replication (fault tolerance) and function shipping."""

import pytest

from repro.cluster import (
    FunctionShippingAggregator,
    ReplicatedZipGCluster,
    ShardUnavailable,
)
from repro.core import ZipG
from repro.workloads.graphs import social_graph


def build_store(num_shards=8):
    graph = social_graph(60, avg_degree=5, seed=4, property_scale=0.1)
    return ZipG.compress(
        graph, num_shards=num_shards, alpha=8,
        extra_property_ids=["city", "interest"]
        + [f"attr{i:02d}" for i in range(38)] + ["payload"],
    ), graph


class TestReplicationPlacement:
    def test_replica_servers_consecutive(self):
        store, _ = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=2)
        assert cluster.replica_servers(0) == [0, 1]
        assert cluster.replica_servers(3) == [3, 0]
        assert cluster.replica_servers(5) == [1, 2]

    def test_invalid_replication_factor(self):
        store, _ = build_store()
        with pytest.raises(ValueError):
            ReplicatedZipGCluster(store, num_servers=4, replication_factor=5)
        with pytest.raises(ValueError):
            ReplicatedZipGCluster(store, num_servers=4, replication_factor=0)

    def test_reads_rotate_across_replicas(self):
        store, _ = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=2)
        chosen = {cluster.server_of_shard(0) for _ in range(6)}
        assert chosen == {0, 1}  # round robin over both replicas

    def test_replicated_footprint_scales(self):
        store, _ = build_store()
        single = ReplicatedZipGCluster(store, 4, replication_factor=1)
        double = ReplicatedZipGCluster(store, 4, replication_factor=2)
        assert double.storage_footprint_bytes() == 2 * single.storage_footprint_bytes()


class TestFailover:
    def test_queries_survive_single_failure(self):
        store, graph = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=2)
        cluster.fail_server(1)
        assert cluster.is_available()
        node = graph.node_ids()[0]
        # Reads still resolve and never route to the dead server.
        for _ in range(8):
            for shard in store.shards:
                assert cluster.server_of_shard(shard.shard_id) != 1
        assert cluster.get_node_property(node) == graph.node_properties(node)

    def test_unavailable_when_all_replicas_down(self):
        store, _ = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=2)
        cluster.fail_server(0)
        cluster.fail_server(1)
        assert not cluster.is_available()  # shard 0's replicas are 0 and 1
        with pytest.raises(ShardUnavailable):
            cluster.server_of_shard(0)

    def test_recovery_restores_routing(self):
        store, _ = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=2)
        cluster.fail_server(0)
        cluster.fail_server(1)
        cluster.recover_server(0)
        assert cluster.is_available()
        assert cluster.server_of_shard(0) == 0

    def test_fail_invalid_server(self):
        store, _ = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=2)
        with pytest.raises(IndexError):
            cluster.fail_server(9)


class TestFunctionShipping:
    @pytest.fixture(scope="class")
    def setting(self):
        store, graph = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=1)
        return cluster, graph, FunctionShippingAggregator(cluster)

    def test_result_matches_direct_execution(self, setting):
        cluster, graph, aggregator = setting
        node = graph.node_ids()[2]
        expected = cluster.get_neighbor_ids(node, 0, {"city": "Ithaca"})
        result, _ = aggregator.neighbor_filter_query(node, 0, {"city": "Ithaca"})
        assert result == expected

    def test_trace_structure(self, setting):
        cluster, graph, aggregator = setting
        node = next(n for n in graph.node_ids() if graph.degree(n, 0) > 0)
        result, trace = aggregator.neighbor_filter_query(node, 0, {"city": "Ithaca"})
        assert len(trace.levels) == 2  # edge fetch + property probes
        assert trace.round_trips == 3  # client -> entry + two fan-outs
        assert trace.levels[0].messages >= 1
        assert trace.total_messages >= 3

    def test_unfiltered_query_single_level(self, setting):
        cluster, graph, aggregator = setting
        node = graph.node_ids()[1]
        result, trace = aggregator.neighbor_filter_query(node, 0)
        assert result == cluster.get_neighbor_ids(node, 0)
        assert len(trace.levels) == 1

    def test_probes_grouped_per_server(self, setting):
        cluster, graph, aggregator = setting
        node = max(graph.node_ids(), key=lambda n: graph.degree(n, 0))
        _, trace = aggregator.neighbor_filter_query(node, 0, {"city": "Ithaca"})
        probe_level = trace.levels[1]
        # One message per server, even with many neighbors there.
        assert probe_level.messages <= cluster.num_servers
        assert probe_level.messages <= len(set(probe_level.target_servers))

    def test_two_hop_multi_level(self, setting):
        cluster, graph, aggregator = setting
        node = max(graph.node_ids(), key=lambda n: graph.degree(n, 0))
        result, trace = aggregator.two_hop_query(node, 0, {"city": "Ithaca"})
        # Oracle: friends-of-friends with the property filter.
        friends = graph.neighbor_ids(node, 0)
        second = sorted({
            d for f in friends for d in graph.neighbor_ids(f, 0)
        } - {node})
        expected = [
            n for n in second if graph.node_properties(n).get("city") == "Ithaca"
        ]
        assert result == expected
        assert len(trace.levels) == 3  # Figure 4's multi-level shipping
        assert trace.round_trips == 4


class TestDistributedRPQ:
    def test_rpq_on_cluster_matches_single_store(self):
        from repro.workloads.rpq import PathQuery, RPQEngine

        store, graph = build_store()
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=1)
        seeds = graph.node_ids()[:10]
        query = PathQuery("q", "0/1")
        cluster_result = RPQEngine(cluster, graph.node_ids()).evaluate(
            query, start_nodes=seeds
        )
        # Fresh single store over the same graph.
        from repro.bench.systems import ZipGSystem

        single = ZipGSystem.load(graph, num_shards=8, alpha=8,
                                 extra_property_ids=["city", "interest"]
                                 + [f"attr{i:02d}" for i in range(38)] + ["payload"])
        single_result = RPQEngine(single, graph.node_ids()).evaluate(
            query, start_nodes=seeds
        )
        assert cluster_result == single_result
