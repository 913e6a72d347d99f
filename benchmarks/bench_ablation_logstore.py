"""Ablation: single system-wide LogStore vs per-shard LogStores (§3.5).

The per-shard alternative must over-provision every server with
LogStore capacity; the single LogStore provisions once. This bench
replays the same write stream both ways and compares the memory that
must be reserved, plus verifies that the single-LogStore design keeps
compressed shards untouched by writes (no decompress/re-compress).
"""

from conftest import EXTRA_PROPERTY_IDS

from repro.bench.datasets import build_dataset
from repro.bench.reporting import format_table
from repro.core import ZipG
from repro.core.logstore import LogStore
from repro.workloads import LinkBenchWorkload

NUM_SHARDS = 16
WRITE_OPS = 1200


def test_ablation_single_vs_per_shard_logstore(benchmark):
    def run():
        graph = build_dataset("linkbench-small")
        store = ZipG.compress(
            graph, num_shards=NUM_SHARDS, alpha=32,
            logstore_threshold_bytes=1 << 30,  # never freeze: observe raw load
            extra_property_ids=list(EXTRA_PROPERTY_IDS),
        )
        workload = LinkBenchWorkload(graph, seed=12)
        for operation in workload.operations(WRITE_OPS):
            operation.run(store)
        # Mirror the accumulated writes into hypothetical per-shard
        # LogStores to see how load would distribute.
        per_shard = [LogStore() for _ in range(NUM_SHARDS)]
        for (src, _), bucket in store.logstore._edges.items():
            for edge in bucket:
                per_shard[store.route(src)].append_edge(edge)
        for node_id, properties in store.logstore._nodes.items():
            per_shard[store.route(node_id)].append_node(node_id, dict(properties))
        return store, per_shard

    store, per_shard = benchmark.pedantic(run, rounds=1, iterations=1)
    single_bytes = store.logstore.serialized_size_bytes()
    # Per-shard provisioning: every shard must reserve capacity for the
    # *hottest* shard's load (capacity is provisioned, not elastic).
    peak = max(shard.size_bytes() for shard in per_shard)
    provisioned = peak * NUM_SHARDS

    print(format_table(
        "Ablation: LogStore placement",
        ["design", "memory reserved (B)"],
        [
            ("single LogStore (paper)", single_bytes),
            (f"per-shard x{NUM_SHARDS} (peak-provisioned)", provisioned),
        ],
    ))
    # One LogStore needs far less reserved memory than peak-provisioning
    # every shard (the §3.5 memory-efficiency argument).
    assert single_bytes < provisioned
    # And the immutable compressed shards were never rebuilt: no
    # decompress/re-compress interference with ongoing reads.
    assert store.freeze_count == 0
    assert store.num_shards == NUM_SHARDS
