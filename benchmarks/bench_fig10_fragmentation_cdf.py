"""Figure 10 (Appendix A): CDF of per-node fragmentation.

The paper partitions the large LinkBench dataset across 40 shards, runs
LinkBench queries with an 8 GB LogStore threshold, and snapshots after
0.5/1/2 B queries. Scaled analogue: 40 shards, a small threshold, and
snapshots at three query counts. Shape: for >99% of nodes the data is
fragmented across a small (<10% of shards) but non-trivial number of
shards -- exactly the regime where fanned-update pointers beat both
broadcast and single-shard assumptions.
"""

import numpy as np
from conftest import EXTRA_PROPERTY_IDS

from repro.bench.datasets import build_dataset
from repro.bench.reporting import format_table
from repro.core import ZipG
from repro.workloads import LinkBenchWorkload

NUM_SHARDS = 40
SNAPSHOT_OPS = (2000, 4000, 8000)
LOGSTORE_THRESHOLD = 40000  # bytes; scaled stand-in for the paper's 8 GB


def run_fragmentation():
    graph = build_dataset("linkbench-large")
    store = ZipG.compress(
        graph, num_shards=NUM_SHARDS, alpha=32,
        logstore_threshold_bytes=LOGSTORE_THRESHOLD,
        extra_property_ids=list(EXTRA_PROPERTY_IDS),
    )
    workload = LinkBenchWorkload(graph, seed=3)
    node_ids = graph.node_ids()
    snapshots = {}
    executed = 0
    for target in SNAPSHOT_OPS:
        for operation in workload.operations(target - executed):
            operation.run(store)
        executed = target
        counts = np.array([store.node_fragment_count(n) for n in node_ids])
        snapshots[target] = counts
    return store, snapshots


def cdf_points(counts, total_shards):
    fractions = counts / total_shards
    return {
        "p50": float(np.percentile(fractions, 50)),
        "p99": float(np.percentile(fractions, 99)),
        "p99.9": float(np.percentile(fractions, 99.9)),
        "max": float(fractions.max()),
    }


def test_figure10_fragmentation_cdf(benchmark):
    store, snapshots = benchmark.pedantic(run_fragmentation, rounds=1, iterations=1)
    total_shards = store.num_shards
    rows = []
    for ops, counts in snapshots.items():
        points = cdf_points(counts, total_shards)
        rows.append([f"{ops} ops", points["p50"], points["p99"], points["p99.9"], points["max"]])
    print(format_table(
        f"Figure 10: fraction of {total_shards} shards a node spans",
        ["snapshot", "p50", "p99", "p99.9", "max"], rows,
    ))

    final = snapshots[SNAPSHOT_OPS[-1]]
    # The paper's headline: >99% of nodes span < 10% of the shards...
    assert np.percentile(final / total_shards, 99) < 0.10
    # ...but fragmentation is non-trivial: some nodes DO span multiple
    # shards (broadcast would be wasteful, single-shard reads wrong).
    assert final.max() > 1
    # Fragmentation grows monotonically across snapshots (Fig. 10's
    # right-shifting CDFs).
    means = [snapshots[ops].mean() for ops in SNAPSHOT_OPS]
    assert means[0] <= means[1] <= means[2]
    assert means[2] > means[0]
