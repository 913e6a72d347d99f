"""Modeled access counters never go backwards.

A LogStore freeze installs a fresh LogStore and a compaction drops the
frozen shards; both hand their meters on, so ``aggregate_stats()``,
the harness's per-operation price and the Fig. 9 simulator's
per-server busy time stay non-negative across them.
"""

import dataclasses

import pytest

from repro.bench.harness import run_mixed_workload
from repro.bench.memory_model import CostModel
from repro.cluster.sim import SimulatedZipGCluster, run_distributed_workload
from repro.core import ZipG
from repro.workloads import LinkBenchWorkload
from repro.workloads.graphs import social_graph

EXTRA_IDS = (["city", "interest"] + [f"attr{i:02d}" for i in range(38)]
             + ["payload", "data"])


@pytest.fixture(scope="module")
def graph():
    return social_graph(80, avg_degree=4, seed=11, property_scale=0.1)


def build(graph, threshold):
    return ZipG.compress(graph, num_shards=4, alpha=8,
                         logstore_threshold_bytes=threshold,
                         extra_property_ids=EXTRA_IDS)


def counters(store):
    return dataclasses.astuple(store.aggregate_stats())


def assert_not_below(after, before):
    assert all(a >= b for a, b in zip(after, before)), (before, after)


def test_aggregate_stats_monotone_across_freeze_and_compaction(graph):
    store = build(graph, threshold=2_000)
    node = graph.node_ids()[0]
    previous = counters(store)
    timestamp = 10_000
    while store.freeze_count < 3:
        store.get_neighbor_ids(node)  # LogStore and shard reads
        store.append_edge(node, 0, graph.node_ids()[1], timestamp, {})
        timestamp += 1
        now = counters(store)
        assert_not_below(now, previous)
        previous = now
    assert store.num_shards > store.num_initial_shards
    store.compact_frozen_shards()
    assert_not_below(counters(store), previous)


def test_compaction_with_nothing_left_keeps_the_counters(graph):
    store = build(graph, threshold=1 << 20)
    source, destination = graph.node_ids()[:2]
    store.append_edge(source, 0, destination, 10_000, {})
    store.freeze_logstore()
    store.get_neighbor_ids(source)
    store.delete_edge(source, 0, destination)
    before = counters(store)
    assert store.compact_frozen_shards() == 1
    assert store.num_shards == store.num_initial_shards
    assert_not_below(counters(store), before)


def test_harness_prices_freezing_writes_positive(graph):
    store = build(graph, threshold=1_000)
    result = run_mixed_workload(
        store, LinkBenchWorkload(graph, seed=8).operations(300), CostModel(),
        budget_bytes=10 * store.storage_footprint_bytes(),
    )
    assert store.freeze_count > 0
    assert result.per_query_latency_us
    assert all(v > 0 for v in result.per_query_latency_us.values()), (
        result.per_query_latency_us
    )


def test_simulator_busy_time_non_negative_across_freezes(graph):
    store = build(graph, threshold=1_000)
    cluster = SimulatedZipGCluster(store, num_servers=4)
    result = run_distributed_workload(
        cluster, LinkBenchWorkload(graph, seed=8).operations(300), CostModel(),
        budget_total=10 * store.storage_footprint_bytes(),
    )
    assert store.freeze_count > 0
    assert all(server.busy_ns >= 0 for server in cluster.servers)
    assert result.throughput_kops > 0
