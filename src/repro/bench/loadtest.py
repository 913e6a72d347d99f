"""Closed- and open-loop TAO load drivers for the query gateway.

The paper's serving claim is about *interactive* latency, which only
means something stated against offered load: a closed-loop driver
(each worker waits for its answer before sending the next request)
self-throttles under overload and hides saturation, so this module
pairs it with an **open-loop** driver that schedules arrivals on a
clock regardless of completions -- queueing delay shows up in the
measured latency instead of silently stretching the run.

The flow CI runs (``benchmarks/bench_gateway_loadtest.py``):

1. :func:`closed_loop_capacity` estimates the backend's saturation
   throughput through the same awaitable submission seam the gateway
   uses -- no gateway in the path;
2. :func:`latency_curve` replays the TAO mix open-loop through a
   :class:`~repro.gateway.service.GatewayService` at offered loads
   placed relative to that estimate (below, near, above saturation),
   yielding one :class:`LoadPoint` per offered load;
3. :func:`direct_point` runs the same open-loop mix straight at the
   submission seam, so the gateway's latency overhead below
   saturation is a measured ratio, not a guess.

Every request must end *structurally*: a result, a
:class:`~repro.cluster.PartialResult` (degraded read), or a typed
:class:`~repro.core.errors.RetryAfter` shed.  Anything else counts in
``LoadPoint.errors``, and the bench gates that at zero.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import PartialResult, ReplicatedZipGCluster
from repro.core import GraphData, ZipG
from repro.core.errors import RetryAfter
from repro.gateway import GatewayConfig, GatewayService
from repro.workloads import TAOWorkload

#: (method, args, kwargs) -- one store call, transport-agnostic.
Call = Tuple[str, list, dict]

#: An async request sink: drives one Call to a structured outcome.
Handler = Callable[[str, list, dict], Awaitable[object]]


def build_load_graph(num_nodes: int = 96) -> GraphData:
    """A small, deterministic social-ish graph for load runs: a ring
    for connectivity plus skip links so adjacency lists have fanout."""
    graph = GraphData()
    for i in range(num_nodes):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
    for i in range(num_nodes):
        graph.add_edge(i, (i + 1) % num_nodes, 0, timestamp=i)
        graph.add_edge(i, (i + 7) % num_nodes, 1, timestamp=1000 + i)
        if i % 3 == 0:
            graph.add_edge(i, (i + 13) % num_nodes, 0, timestamp=2000 + i)
    return graph


def build_backend(graph: Optional[GraphData] = None, num_shards: int = 2,
                  alpha: int = 8, num_servers: int = 2
                  ) -> ReplicatedZipGCluster:
    """The cluster a load run drives (exposes the submission seam)."""
    graph = graph if graph is not None else build_load_graph()
    store = ZipG.compress(graph, num_shards=num_shards, alpha=alpha,
                          logstore_threshold_bytes=1 << 20)
    return ReplicatedZipGCluster(store, num_servers=num_servers,
                                 replication_factor=1)


class _CallRecorder:
    """Duck-types the store surface; captures calls instead of running
    them, turning workload :class:`Operation` closures into replayable
    ``(method, args, kwargs)`` tuples."""

    def __init__(self) -> None:
        self.calls: List[Call] = []

    def __getattr__(self, method: str) -> Callable[..., None]:
        def capture(*args: object, **kwargs: object) -> None:
            self.calls.append((method, list(args), dict(kwargs)))
        return capture


def tao_calls(graph: GraphData, count: int, seed: int = 0) -> List[Call]:
    """``count`` TAO-mix operations (Table 2 percentages) as calls."""
    workload = TAOWorkload(graph, seed=seed)
    recorder = _CallRecorder()
    for operation in workload.operations(count):
        operation.run(recorder)
    return recorder.calls


# ----------------------------------------------------------------------
# Closed loop: capacity estimation
# ----------------------------------------------------------------------


def closed_loop_capacity(backend: object, calls: Sequence[Call],
                         concurrency: int = 8) -> float:
    """Achieved throughput (requests/s) with ``concurrency`` logical
    workers driving the submission seam back-to-back.

    Closed-loop by construction -- a new request is only issued when a
    slot's previous one finished -- so the result approximates the
    backend's saturation throughput and anchors the open-loop offered
    loads."""
    start = time.perf_counter()
    completed = 0
    for index in range(0, len(calls), concurrency):
        window = calls[index:index + concurrency]
        futures = [backend.submit(method, *args, **kwargs)
                   for method, args, kwargs in window]
        for future in futures:
            future.result()
            completed += 1
    elapsed = time.perf_counter() - start
    return completed / elapsed if elapsed > 0 else float("inf")


def gateway_closed_loop_capacity(backend: object, calls: Sequence[Call],
                                 concurrency: int = 8) -> float:
    """Achieved throughput (requests/s) closed-loop *through* a
    gateway service with admission effectively disabled.

    This is the saturation point the open-loop curve anchors to: the
    gateway pipeline (admission bookkeeping, dispatch slots, read
    flights) costs more per request than the bare submission seam, so anchoring to :func:`closed_loop_capacity` would place
    "below saturation" points past the gateway's actual ceiling."""

    async def scenario() -> float:
        config = GatewayConfig(tenant_rate=1e9, tenant_burst=1e9,
                               queue_depth=1 << 20)
        service = GatewayService(backend, config)
        completed = 0

        async def worker(shard: Sequence[Call]) -> None:
            nonlocal completed
            for method, args, kwargs in shard:
                await service.handle(method, args, kwargs,
                                     tenant="capacity")
                completed += 1

        start = time.perf_counter()
        try:
            await asyncio.gather(*[
                asyncio.ensure_future(worker(calls[index::concurrency]))
                for index in range(concurrency)
            ])
        finally:
            await service.drain()
        elapsed = time.perf_counter() - start
        return completed / elapsed if elapsed > 0 else float("inf")

    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# Open loop: latency vs offered load
# ----------------------------------------------------------------------


@dataclass
class LoadPoint:
    """One open-loop measurement at a fixed offered load."""

    offered_load: float      #: arrivals/second the driver scheduled
    offered: int             #: requests scheduled
    completed: int           #: structured results (degraded included)
    shed: int                #: typed RetryAfter rejections
    degraded: int            #: completions that were PartialResults
    errors: int              #: anything unstructured (gate: zero)
    duration_s: float        #: first arrival to last completion
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float

    @property
    def achieved_load(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def handled_fraction(self) -> float:
        """Every request that ended structurally, shed included."""
        return ((self.completed + self.shed) / self.offered
                if self.offered else 0.0)

    def to_payload(self) -> Dict[str, float]:
        return {
            "offered_load_rps": self.offered_load,
            "achieved_load_rps": self.achieved_load,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "degraded": self.degraded,
            "errors": self.errors,
            "shed_fraction": self.shed_fraction,
            "handled_fraction": self.handled_fraction,
            "duration_s": self.duration_s,
            "latency_ms": {"p50": self.p50_ms, "p95": self.p95_ms,
                           "p99": self.p99_ms, "mean": self.mean_ms},
        }


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[index]


async def _open_loop(handler: Handler, calls: Sequence[Call],
                     offered_load: float) -> LoadPoint:
    """Schedule one arrival every ``1/offered_load`` seconds and fire
    it as a task -- never waiting for completions, which is what makes
    the loop open: under overload the latencies grow (or the sheds
    mount) instead of the arrival clock stretching."""
    latencies: List[float] = []
    counts = {"completed": 0, "shed": 0, "degraded": 0, "errors": 0}

    async def fire(call: Call) -> None:
        method, args, kwargs = call
        begin = time.perf_counter()
        try:
            result = await handler(method, args, kwargs)
        except RetryAfter:
            counts["shed"] += 1
            return
        except Exception:
            counts["errors"] += 1
            return
        latencies.append(time.perf_counter() - begin)
        counts["completed"] += 1
        if isinstance(result, PartialResult):
            counts["degraded"] += 1

    start = time.perf_counter()
    tasks = []
    for index, call in enumerate(calls):
        delay = start + index / offered_load - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(call)))
    await asyncio.gather(*tasks)
    duration = time.perf_counter() - start

    latencies.sort()
    to_ms = 1000.0
    return LoadPoint(
        offered_load=offered_load,
        offered=len(calls),
        completed=counts["completed"],
        shed=counts["shed"],
        degraded=counts["degraded"],
        errors=counts["errors"],
        duration_s=duration,
        p50_ms=_percentile(latencies, 0.50) * to_ms,
        p95_ms=_percentile(latencies, 0.95) * to_ms,
        p99_ms=_percentile(latencies, 0.99) * to_ms,
        mean_ms=(sum(latencies) / len(latencies) * to_ms
                 if latencies else 0.0),
    )


def gateway_point(backend: object, calls: Sequence[Call],
                  offered_load: float,
                  config: Optional[GatewayConfig] = None,
                  tenant: str = "loadtest") -> LoadPoint:
    """One open-loop point through a fresh gateway service (started,
    driven, cleanly drained)."""

    async def scenario() -> LoadPoint:
        service = GatewayService(backend, config)

        async def handler(method: str, args: list, kwargs: dict) -> object:
            return await service.handle(method, args, kwargs, tenant=tenant)

        try:
            return await _open_loop(handler, calls, offered_load)
        finally:
            await service.drain()

    return asyncio.run(scenario())


def direct_point(backend: object, calls: Sequence[Call],
                 offered_load: float) -> LoadPoint:
    """The same open-loop drive straight at the submission seam -- the
    no-gateway control the overhead ratio is measured against."""

    async def scenario() -> LoadPoint:
        async def handler(method: str, args: list, kwargs: dict) -> object:
            return await backend.call_async(method, *args, **kwargs)

        return await _open_loop(handler, calls, offered_load)

    return asyncio.run(scenario())


def latency_curve(backend: object, calls: Sequence[Call],
                  offered_loads: Sequence[float],
                  config: Optional[GatewayConfig] = None
                  ) -> List[LoadPoint]:
    """The latency-vs-offered-load curve: one gateway point per load,
    each on a fresh service so bucket state never leaks across points."""
    return [gateway_point(backend, calls, load, config)
            for load in offered_loads]


def admission_config_for(capacity_rps: float,
                         queue_depth: int = 64) -> GatewayConfig:
    """Gateway tuning pinned to a measured capacity: the token rate
    admits sustained load right at the backend's saturation point, so
    below-capacity offered loads pass untouched and above-capacity
    excess sheds structurally instead of queueing without bound."""
    rate = max(1.0, capacity_rps)
    return GatewayConfig(
        tenant_rate=rate,
        tenant_burst=max(8.0, rate / 4.0),
        queue_depth=queue_depth,
    )
