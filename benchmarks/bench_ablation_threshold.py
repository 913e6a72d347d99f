"""Ablation: LogStore freeze threshold (§3.5's amortization knob).

A small threshold freezes often: less uncompressed data resident but
more shards, hence more fragments per node and more pointer-chasing
per read. A large threshold is the reverse. This bench sweeps the
threshold under a fixed write stream and reports both sides.
"""

from conftest import COST_MODEL, EXTRA_PROPERTY_IDS

from repro.bench.datasets import build_dataset
from repro.bench.harness import run_mixed_workload
from repro.bench.reporting import format_table
from repro.core import ZipG
from repro.workloads import LinkBenchWorkload

THRESHOLDS = (4_000, 16_000, 64_000)
WRITE_OPS = 1500
READ_OPS = 200


def run_threshold(threshold):
    graph = build_dataset("linkbench-small")
    store = ZipG.compress(
        graph, num_shards=8, alpha=32,
        logstore_threshold_bytes=threshold,
        extra_property_ids=list(EXTRA_PROPERTY_IDS),
    )
    for operation in LinkBenchWorkload(graph, seed=8).operations(WRITE_OPS):
        operation.run(store)
    fragments = [store.node_fragment_count(n) for n in graph.node_ids()]
    read_result = run_mixed_workload(
        store,
        LinkBenchWorkload(graph, seed=9).operations(READ_OPS),
        COST_MODEL,
        budget_bytes=10 * store.storage_footprint_bytes(),
    )
    return {
        "threshold": threshold,
        "freezes": store.freeze_count,
        "shards": store.num_shards,
        "avg_fragments": sum(fragments) / len(fragments),
        "logstore_bytes": store.logstore.serialized_size_bytes(),
        "read_latency_us": read_result.avg_latency_us,
    }


def test_ablation_logstore_threshold(benchmark):
    results = benchmark.pedantic(
        lambda: [run_threshold(t) for t in THRESHOLDS], rounds=1, iterations=1
    )
    rows = [
        (r["threshold"], r["freezes"], r["shards"], f"{r['avg_fragments']:.2f}",
         r["logstore_bytes"], f"{r['read_latency_us']:.1f}")
        for r in results
    ]
    print(format_table(
        "Ablation: LogStore freeze threshold",
        ["threshold B", "freezes", "shards", "avg frags", "log bytes", "read us"],
        rows,
    ))
    # A freeze during the read phase must not price a read negative:
    # the access meters hand over across it.
    assert all(r["read_latency_us"] > 0 for r in results), rows
    small, _, large = results
    # Smaller threshold -> more freezes, more shards, more fragmentation.
    assert small["freezes"] > large["freezes"]
    assert small["shards"] > large["shards"]
    assert small["avg_fragments"] >= large["avg_fragments"]
    # Larger threshold -> more uncompressed LogStore bytes resident.
    assert large["logstore_bytes"] > small["logstore_bytes"]
