"""Throughput harness: replays operation streams and prices them.

``run_mixed_workload`` executes a workload's operations for real
(correctness is exercised, wall-clock is measurable with
pytest-benchmark) while accumulating each store's access counters; the
cost model then converts the counters into simulated per-query latency
under the experiment's memory budget, and throughput follows as
``cores / avg_latency`` -- the quantity the paper's figures plot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.bench.memory_model import CostModel, hit_fraction
from repro.workloads.base import Operation

DEFAULT_CORES = 32  # the paper's single server: 32 vCPUs


@dataclass
class ThroughputResult:
    """Outcome of one (system, workload, dataset) cell of a figure."""

    system: str
    workload: str
    operations: int
    avg_latency_us: float
    throughput_kops: float
    hit_fraction: float
    per_query_latency_us: Dict[str, float]
    p50_latency_us: float = 0.0
    p99_latency_us: float = 0.0
    p95_latency_us: float = 0.0
    wall_seconds: float = 0.0
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def row(self) -> str:
        return (
            f"{self.system:<18} {self.workload:<18} "
            f"{self.throughput_kops:>10.1f} KOps "
            f"{self.avg_latency_us:>10.1f} us/op "
            f"(p99 {self.p99_latency_us:.1f} us, mem hit {self.hit_fraction:5.1%})"
        )

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable form for ``BENCH_*.json`` artifacts."""
        return {
            "system": self.system,
            "workload": self.workload,
            "operations": self.operations,
            "avg_latency_us": self.avg_latency_us,
            "p50_latency_us": self.p50_latency_us,
            "p95_latency_us": self.p95_latency_us,
            "p99_latency_us": self.p99_latency_us,
            "throughput_kops": self.throughput_kops,
            "hit_fraction": self.hit_fraction,
            "wall_seconds": self.wall_seconds,
            "per_query_latency_us": dict(self.per_query_latency_us),
            "layers": {name: dict(values) for name, values in self.layers.items()},
        }


def _layer_delta(
    after: Dict[str, Dict], before: Dict[str, Dict]
) -> Dict[str, Dict[str, float]]:
    """Field-wise difference of two monotone ``snapshot_metrics`` layer
    maps -- what the bracketed workload spent, per layer."""
    delta: Dict[str, Dict[str, float]] = {}
    for layer, fields in after.items():
        base = before.get(layer, {})
        delta[layer] = {
            key: float(value) - float(base.get(key, 0.0))
            for key, value in fields.items()
        }
    return delta


def run_mixed_workload(
    system,
    operations: Iterable[Operation],
    cost_model: CostModel,
    budget_bytes: int,
    cores: int = DEFAULT_CORES,
    workload_name: str = "mixed",
    network_hops_per_op: int = 0,
) -> ThroughputResult:
    """Replay ``operations`` against ``system`` and price them.

    The store's footprint is measured once up front (queries do not
    change it materially; update-heavy runs slightly grow it, which is
    fine -- the budget comparison uses the initial representation like
    the paper's warmed-up steady state).
    """
    footprint = system.storage_footprint_bytes()
    hit = hit_fraction(footprint, budget_bytes)

    # Per-layer attribution: ZipG stores (bare or behind a cluster)
    # expose a monotone snapshot (succinct/logstore/pointer ops +
    # traced time); diffing two snapshots isolates this workload's
    # share. Baselines report no layers.
    store = getattr(system, "store", system)
    snapshot_metrics = getattr(store, "snapshot_metrics", None)
    layers_before = snapshot_metrics()["layers"] if snapshot_metrics else None

    per_query_ns: Dict[str, float] = {}
    per_query_count: Dict[str, int] = {}
    latencies: List[float] = []
    total_ns = 0.0
    count = 0
    wall_start = time.perf_counter()
    for operation in operations:
        before = system.aggregate_stats().snapshot()
        operation.run(system)
        delta = system.aggregate_stats().delta_since(before)
        latency = cost_model.query_latency_ns(
            delta, footprint, budget_bytes, network_hops=network_hops_per_op
        )
        total_ns += latency
        count += 1
        latencies.append(latency)
        per_query_ns[operation.name] = per_query_ns.get(operation.name, 0.0) + latency
        per_query_count[operation.name] = per_query_count.get(operation.name, 0) + 1

    wall_seconds = time.perf_counter() - wall_start

    layers: Dict[str, Dict[str, float]] = {}
    if layers_before is not None:
        layers = _layer_delta(snapshot_metrics()["layers"], layers_before)

    avg_ns = total_ns / count if count else 0.0
    throughput_kops = (cores / (avg_ns * 1e-9)) / 1e3 if avg_ns else 0.0
    per_query_latency_us = {
        name: per_query_ns[name] / per_query_count[name] / 1e3 for name in per_query_ns
    }
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2] / 1e3 if ordered else 0.0
    p95 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))] / 1e3 if ordered else 0.0
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] / 1e3 if ordered else 0.0
    return ThroughputResult(
        system=getattr(system, "name", type(system).__name__),
        workload=workload_name,
        operations=count,
        avg_latency_us=avg_ns / 1e3,
        throughput_kops=throughput_kops,
        hit_fraction=hit,
        per_query_latency_us=per_query_latency_us,
        p50_latency_us=p50,
        p99_latency_us=p99,
        p95_latency_us=p95,
        wall_seconds=wall_seconds,
        layers=layers,
    )


def run_query_class(
    system,
    workload,
    query_name: str,
    count: int,
    cost_model: CostModel,
    budget_bytes: int,
    cores: int = DEFAULT_CORES,
) -> ThroughputResult:
    """The per-query isolation runs of Figures 6-8: one query type."""
    return run_mixed_workload(
        system,
        workload.operations_of(query_name, count),
        cost_model,
        budget_bytes,
        cores=cores,
        workload_name=query_name,
    )
