"""Closed- and open-loop TAO load drivers for the query gateway.

The paper's serving claim is about *interactive* latency, which only
means something stated against offered load: a closed-loop driver
(each worker waits for its answer before sending the next request)
self-throttles under overload and hides saturation, so this module
pairs it with an **open-loop** driver that schedules arrivals on a
clock regardless of completions -- queueing delay shows up in the
measured latency instead of silently stretching the run.

The flow CI runs (``benchmarks/bench_gateway_loadtest.py``):

1. :func:`gateway_closed_loop_capacity` estimates the saturation
   throughput of a :class:`~repro.gateway.service.GatewayService` in
   front of the backend, admission effectively off;
2. :func:`gateway_point` replays the TAO mix open-loop through a
   fresh service at offered loads placed relative to that estimate
   (below, near, above saturation), one :class:`LoadPoint` each;
3. :func:`direct_point` runs the same open-loop mix straight at the
   backend, so the gateway's latency overhead below saturation is a
   measured ratio, not a guess.

Both drivers are plain threads calling the synchronous service or
backend, exactly as a served gateway's connection threads do.

Every request must end *structurally*: a result, a
:class:`~repro.cluster.PartialResult` (degraded read), or a typed
:class:`~repro.core.errors.RetryAfter` shed.  Anything else counts in
``LoadPoint.errors``, and the bench gates that at zero.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster import PartialResult, ReplicatedZipGCluster
from repro.core import GraphData, ZipG
from repro.core.errors import RetryAfter
from repro.gateway import GatewayConfig, GatewayService
from repro.server import MasterServer, ZipGClient
from repro.workloads import TAOWorkload

#: (method, args, kwargs) -- one store call, transport-agnostic.
Call = Tuple[str, list, dict]

#: A request sink: drives one Call to a structured outcome.
Handler = Callable[[str, list, dict], object]

#: Driver threads of the open loop: enough that every request the
#: gateway can hold (dispatch slots + a full tenant queue, at the
#: default config) is in it, so the gateway -- not the driver -- is
#: where arrivals queue.
OPEN_LOOP_THREADS = 96


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


@contextlib.contextmanager
def served_backend(graph: Optional[GraphData] = None, num_shards: int = 2,
                   alpha: int = 8, num_servers: int = 2
                   ) -> Iterator[ZipGClient]:
    """The backend a load run drives: a :class:`ZipGClient` of an
    in-process master over the load graph's cluster -- what a deployed
    gateway (``repro serve-gateway``) calls.  A call blocks on its
    socket and releases the interpreter lock while the master works,
    so overload queues at the gateway's admission, where the load test
    looks; a CPU-bound in-process cluster would queue it at the
    interpreter lock instead, invisible to admission."""
    graph = graph if graph is not None else build_load_graph()
    store = ZipG.compress(graph, num_shards=num_shards, alpha=alpha,
                          logstore_threshold_bytes=1 << 20)
    cluster = ReplicatedZipGCluster(store, num_servers=num_servers,
                                    replication_factor=1)
    with MasterServer(cluster) as master, \
            ZipGClient(*master.address) as client:
        yield client


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


def gateway_closed_loop_capacity(backend: object, calls: Sequence[Call],
                                 concurrency: int = 8) -> float:
    """Achieved throughput (requests/s) closed-loop *through* a
    gateway service with admission effectively disabled.

    This is the saturation point the open-loop curve anchors to: the
    gateway pipeline (admission bookkeeping, dispatch slots, read
    flights) costs more per request than a bare backend call, so
    anchoring to the backend alone would place "below saturation"
    points past the gateway's actual ceiling."""
    config = GatewayConfig(tenant_rate=1e9, tenant_burst=1e9,
                           queue_depth=1 << 20)
    service = GatewayService(backend, config)

    def worker(shard: Sequence[Call]) -> None:
        for method, args, kwargs in shard:
            service.handle(method, args, kwargs, tenant="capacity")

    workers = [threading.Thread(target=worker,
                                args=(calls[index::concurrency],))
               for index in range(concurrency)]
    start = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    elapsed = time.perf_counter() - start
    service.drain()
    return len(calls) / elapsed if elapsed > 0 else float("inf")


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


def _open_loop(handlers: Sequence[Handler], calls: Sequence[Call],
               offered_load: float) -> List[LoadPoint]:
    """Schedule one arrival every ``1/offered_load`` seconds and hand it
    to a driver thread -- never waiting for completions, which is what
    makes the loop open: under overload the latencies grow (or the
    sheds mount) instead of the arrival clock stretching.  Latency runs
    from the *scheduled* arrival, so driver lag counts against it.

    Arrival ``i`` goes to ``handlers[i % len(handlers)]``; returns one
    :class:`LoadPoint` per handler."""
    latencies: List[List[float]] = [[] for _ in handlers]
    counts = [{"completed": 0, "shed": 0, "degraded": 0, "errors": 0}
              for _ in handlers]
    lock = threading.Lock()

    def fire(index: int, scheduled: float) -> None:
        method, args, kwargs = calls[index]
        lane = index % len(handlers)
        result = None
        try:
            result = handlers[lane](method, args, kwargs)
        except RetryAfter:
            outcome = "shed"
        except Exception:
            outcome = "errors"
        else:
            outcome = "completed"
        elapsed = time.perf_counter() - scheduled
        with lock:
            counts[lane][outcome] += 1
            if outcome == "completed":
                latencies[lane].append(elapsed)
                if isinstance(result, PartialResult):
                    counts[lane]["degraded"] += 1

    arrivals: "queue.SimpleQueue[Optional[Tuple[int, float]]]" = \
        queue.SimpleQueue()

    def drive() -> None:
        for index, scheduled in iter(arrivals.get, None):
            fire(index, scheduled)

    # Started before the clock: spawning a thread is no part of an
    # arrival.
    drivers = [threading.Thread(target=drive, name="zipg-loadtest")
               for _ in range(OPEN_LOOP_THREADS)]
    for thread in drivers:
        thread.start()
    start = time.perf_counter()
    for index in range(len(calls)):
        scheduled = start + index / offered_load
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        arrivals.put((index, scheduled))
    for _ in drivers:
        arrivals.put(None)
    for thread in drivers:
        thread.join()
    duration = time.perf_counter() - start

    to_ms = 1000.0
    points = []
    for lane, lane_latencies in enumerate(latencies):
        lane_latencies.sort()
        points.append(LoadPoint(
            offered_load=offered_load / len(handlers),
            offered=len(calls[lane::len(handlers)]),
            duration_s=duration,
            p50_ms=_percentile(lane_latencies, 0.50) * to_ms,
            p95_ms=_percentile(lane_latencies, 0.95) * to_ms,
            p99_ms=_percentile(lane_latencies, 0.99) * to_ms,
            mean_ms=(sum(lane_latencies) / len(lane_latencies) * to_ms
                     if lane_latencies else 0.0),
            **counts[lane],
        ))
    return points


def _gateway_handler(service: GatewayService, tenant: str) -> Handler:
    def handler(method: str, args: list, kwargs: dict) -> object:
        return service.handle(method, args, kwargs, tenant=tenant)
    return handler


def gateway_point(backend: object, calls: Sequence[Call],
                  offered_load: float,
                  config: Optional[GatewayConfig] = None,
                  tenant: str = "loadtest") -> LoadPoint:
    """One open-loop point through a fresh gateway service (driven,
    then cleanly drained)."""
    service = GatewayService(backend, config)
    try:
        (point,) = _open_loop([_gateway_handler(service, tenant)], calls,
                              offered_load)
        return point
    finally:
        service.drain()


def direct_point(backend: object, calls: Sequence[Call],
                 offered_load: float,
                 config: Optional[GatewayConfig] = None,
                 tenant: str = "loadtest") -> Tuple[LoadPoint, LoadPoint]:
    """The no-gateway control and its gateway twin, from one open loop
    whose arrivals alternate between calling the backend directly and
    a fresh gateway service.  A stall of the machine lands on both
    halves alike, so the ratio of their percentiles measures the
    gateway, not the machine.  Returns ``(direct, gateway)``."""
    service = GatewayService(backend, config)

    def direct(method: str, args: list, kwargs: dict) -> object:
        return getattr(backend, method)(*args, **kwargs)

    try:
        direct_half, gateway_half = _open_loop(
            [direct, _gateway_handler(service, tenant)], calls, offered_load
        )
        return direct_half, gateway_half
    finally:
        service.drain()


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
