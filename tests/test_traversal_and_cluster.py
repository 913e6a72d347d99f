"""Unit tests for BFS traversal, cluster placement and the Fig. 9 cluster
simulation."""

import pytest

from repro.bench.memory_model import CostModel
from repro.bench.systems import build_system
from repro.cluster import ReplicatedZipGCluster
from repro.cluster.sim import SimulatedZipGCluster, TitanCluster, run_distributed_workload
from repro.core import GraphData, ZipG
from repro.workloads import TAOWorkload, bfs_traversal
from repro.workloads.graphs import social_graph
from repro.workloads.traversal import sample_roots


def chain_graph(length=6):
    graph = GraphData()
    for node in range(length):
        graph.add_node(node, {"tag": str(node)})
    for node in range(length - 1):
        graph.add_edge(node, node + 1, 0, node)
    return graph


class TestBFS:
    @pytest.fixture(params=["zipg", "neo4j-tuned", "titan"])
    def system(self, request):
        return build_system(
            request.param, chain_graph(), num_shards=2, alpha=4,
            extra_property_ids=["tag"],
        )

    def test_depth_bounds(self, system):
        assert bfs_traversal(system, 0, max_depth=0) == [0]
        assert bfs_traversal(system, 0, max_depth=2) == [0, 1, 2]
        assert bfs_traversal(system, 0, max_depth=10) == [0, 1, 2, 3, 4, 5]

    def test_negative_depth_rejected(self, system):
        with pytest.raises(ValueError):
            bfs_traversal(system, 0, max_depth=-1)

    def test_cycle_terminates(self):
        graph = chain_graph(3)
        graph.add_edge(2, 0, 0, 99)
        system = build_system("zipg", graph, num_shards=2, alpha=4)
        assert bfs_traversal(system, 0, max_depth=10) == [0, 1, 2]

    def test_sample_roots(self):
        roots = sample_roots(range(50), count=10, seed=1)
        assert len(roots) == 10
        assert len(set(roots)) == 10
        assert sample_roots(range(5), count=100) == sample_roots(range(5), count=100)


@pytest.fixture(scope="module")
def cluster_graph():
    return social_graph(80, avg_degree=4, seed=11, property_scale=0.1)


@pytest.fixture(scope="module")
def extra_ids():
    return ["city", "interest"] + [f"attr{i:02d}" for i in range(38)] + ["payload"]


class TestZipGCluster:
    def test_shard_placement_round_robin(self, cluster_graph, extra_ids):
        store = ZipG.compress(cluster_graph, num_shards=8, alpha=8,
                              extra_property_ids=extra_ids)
        cluster = ReplicatedZipGCluster(store, num_servers=4, replication_factor=1)
        assert cluster.server_of_shard(0) == 0
        assert cluster.server_of_shard(5) == 1
        # The serving cluster carries none of the simulator's state.
        for attribute in ("servers", "run_operation", "_attribute"):
            assert not hasattr(cluster, attribute)

    def test_rejects_zero_servers(self, cluster_graph, extra_ids):
        store = ZipG.compress(cluster_graph, num_shards=2, alpha=8,
                              extra_property_ids=extra_ids)
        with pytest.raises(ValueError):
            ReplicatedZipGCluster(store, num_servers=0)

    def test_distributed_run_produces_result(self, cluster_graph, extra_ids):
        store = ZipG.compress(cluster_graph, num_shards=8, alpha=8,
                              extra_property_ids=extra_ids)
        cluster = SimulatedZipGCluster(store, num_servers=4)
        workload = TAOWorkload(cluster_graph, seed=0)
        result = run_distributed_workload(
            cluster, workload.operations(80), CostModel(),
            budget_total=10 * store.storage_footprint_bytes(),
        )
        assert result.operations == 80
        assert result.throughput_kops > 0
        assert result.load_imbalance >= 1.0
        assert result.throughput_kops <= result.ideal_throughput_kops + 1e-9

    def test_busy_time_lands_on_touched_servers(self, cluster_graph, extra_ids):
        store = ZipG.compress(cluster_graph, num_shards=8, alpha=8,
                              extra_property_ids=extra_ids)
        cluster = SimulatedZipGCluster(store, num_servers=4)
        workload = TAOWorkload(cluster_graph, seed=1)
        run_distributed_workload(
            cluster, workload.operations(60), CostModel(),
            budget_total=10 * store.storage_footprint_bytes(),
        )
        assert sum(server.busy_ns for server in cluster.servers) > 0
        assert sum(server.messages for server in cluster.servers) >= 60

    def test_broadcast_query_touches_all_servers(self, cluster_graph, extra_ids):
        store = ZipG.compress(cluster_graph, num_shards=8, alpha=8,
                              extra_property_ids=extra_ids)
        cluster = SimulatedZipGCluster(store, num_servers=4)
        from repro.workloads.base import Operation

        operation = Operation("GS3", lambda s: s.get_node_ids({"city": "Ithaca"}))
        cluster.run_operation(operation, CostModel(), budget_total=1 << 30)
        touched = [server for server in cluster.servers if server.messages]
        assert len(touched) == 4  # every server participates in search


class TestTitanCluster:
    def test_distributed_run(self, cluster_graph):
        cluster = TitanCluster(cluster_graph, num_servers=4)
        workload = TAOWorkload(cluster_graph, seed=0)
        result = run_distributed_workload(
            cluster, workload.operations(80), CostModel(),
            budget_total=10 * cluster.storage_footprint_bytes(),
        )
        assert result.operations == 80
        assert result.throughput_kops > 0

    def test_node_routing_deterministic(self, cluster_graph):
        cluster = TitanCluster(cluster_graph, num_servers=4)
        assert cluster.server_of_node(17) == cluster.server_of_node(17)

    def test_rejects_zero_servers(self, cluster_graph):
        with pytest.raises(ValueError):
            TitanCluster(cluster_graph, num_servers=0)

    def test_queries_still_correct(self, cluster_graph):
        cluster = TitanCluster(cluster_graph, num_servers=4)
        baseline = build_system("titan", cluster_graph)
        node = cluster_graph.node_ids()[0]
        assert cluster.get_node_property(node) == baseline.get_node_property(node)
