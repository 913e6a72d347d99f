"""Figure 11 (Appendix A): fragmentation over time.

Average and maximum shards-per-node as a function of executed queries:
both grow as more updates land in successive LogStore incarnations.
"""

import numpy as np
from conftest import EXTRA_PROPERTY_IDS

from repro.bench.datasets import build_dataset
from repro.bench.reporting import format_table
from repro.core import ZipG
from repro.workloads import LinkBenchWorkload

NUM_SHARDS = 40
CHECKPOINTS = 8
OPS_PER_CHECKPOINT = 600


def run_timeline():
    graph = build_dataset("linkbench-large")
    store = ZipG.compress(
        graph, num_shards=NUM_SHARDS, alpha=32,
        logstore_threshold_bytes=5000,
        extra_property_ids=list(EXTRA_PROPERTY_IDS),
    )
    workload = LinkBenchWorkload(graph, seed=9)
    node_ids = graph.node_ids()
    timeline = []
    for checkpoint in range(1, CHECKPOINTS + 1):
        for operation in workload.operations(OPS_PER_CHECKPOINT):
            operation.run(store)
        counts = np.array([store.node_fragment_count(n) for n in node_ids])
        timeline.append(
            (checkpoint * OPS_PER_CHECKPOINT, float(counts.mean()), int(counts.max()))
        )
    return store, timeline


def test_figure11_fragmentation_over_time(benchmark):
    store, timeline = benchmark.pedantic(run_timeline, rounds=1, iterations=1)
    print(format_table(
        "Figure 11: fragmentation vs queries executed",
        ["#queries", "avg shards/node", "most fragmented"],
        timeline,
    ))
    averages = [row[1] for row in timeline]
    maxima = [row[2] for row in timeline]
    # Both series are (weakly) monotone and strictly grow end to end.
    assert all(a <= b + 1e-9 for a, b in zip(averages, averages[1:]))
    assert all(a <= b for a, b in zip(maxima, maxima[1:]))
    assert averages[-1] > averages[0]
    assert maxima[-1] > maxima[0]
    # The LogStore actually rolled over multiple times (the mechanism
    # that creates fragments in the first place).
    assert store.freeze_count >= 3
