"""The per-layer run (``--trace 1``): a ladder of public seams.

The same read-only calls of the workload's stream are replayed at each
seam of the request path, one rung per seam, the rungs interleaved in
blocks so machine noise lands on all of them alike:

    kernel  ZipGSystem on a store whose codec times its own kernels,
            serial shard executor
    serial  ZipGSystem, serial shard executor
    R0      ZipGSystem (default executor)           -> core
    R1      ReplicatedZipGCluster, in-process       -> cluster
    R2      the same store, SocketTransport to the
            live shard processes                    -> server (shard hop)
    R3      ZipGClient -> master                    -> server (master hop)
    R4      GatewayClient -> gateway                -> gateway

A layer's self time is its rung's mean latency minus the rung below,
so the self times sum to the top rung by construction; what is checked
is that the top rung agrees with a plain closed loop over the same
calls (``ladder.closure_ratio``).  Everything is measured from outside
the program, through public classes; spans inside it are a later PR.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import measure
from measure import Metrics
from topology import TENANT, Topology
from workloads import Call, Workload, call_stream, load_graph, load_system, take

from repro.baselines.pointerstore import PointerGraphStore
from repro.cluster.replication import ReplicatedZipGCluster
from repro.core.errors import RetryAfter
from repro.core.persistence import load_store, save_store
from repro.server import ipc, protocol
from repro.server.client import ZipGClient
from repro.server.transport import SocketTransport
from repro.succinct.encodings import register_encoding
from repro.succinct.succinct_file import SuccinctFile

RUNG_CALLS = 2000
RUNG_BLOCK = 200
#: Untimed calls (other than the timed ones) each rung answers first,
#: so lazily built tables and connection pools exist before timing.
WARM_CALLS = 1000
#: Stream prefix the ladder's reads and the write replay are drawn from.
SCAN_CALLS = 20000
MAX_WRITES = 2000
CLOSURE_RANGE = (0.9, 1.1)

#: The kernels NodeFile/EdgeFile call on their flat file.
KERNEL_METHODS = ("extract", "extract_batch", "extract_until",
                  "char_at_batch", "search", "count")
TIMED_ENCODING = "timed-succinct"


class KernelMeter:
    """Calls into, and wall time inside, the Succinct kernels."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._thread = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.seconds = 0.0

    def timed(self, method):
        """``method`` wrapped to charge its outermost invocation on
        each thread (kernels call one another)."""

        def wrapper(codec, *args, **kwargs):
            if getattr(self._thread, "inside", False):
                return method(codec, *args, **kwargs)
            self._thread.inside = True
            started = time.perf_counter()
            try:
                return method(codec, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._thread.inside = False
                with self._lock:
                    self.calls += 1
                    self.seconds += elapsed

        return wrapper


def timed_codec(meter: KernelMeter) -> type:
    """A ``SuccinctFile`` whose kernels report to ``meter``; register
    it and load a store with ``encoding=TIMED_ENCODING``."""
    methods = {name: meter.timed(getattr(SuccinctFile, name))
               for name in KERNEL_METHODS}
    return type("TimedSuccinct", (SuccinctFile,),
                {"encoding_name": TIMED_ENCODING, **methods})


def climb(rungs: Dict[str, object], calls: Sequence[Call],
          expected: Sequence[object]) -> Tuple[Dict[str, List[float]], int, int]:
    """Replay ``calls`` on every rung, interleaved in blocks; returns
    each rung's latencies in call order, the number of answers that
    differ from ``expected``, and the number of gateway sheds."""
    latencies: Dict[str, List[float]] = {name: [] for name in rungs}
    failed = sheds = 0
    order = list(rungs.items())
    for begin in range(0, len(calls), RUNG_BLOCK):
        block = calls[begin:begin + RUNG_BLOCK]
        # Up the ladder, then down: a rung is as often run after the
        # rung below it (which warmed the shared store) as before.
        order.reverse()
        for name, target in order:
            _, block_latencies, answers = measure.run_calls(target, block)
            latencies[name].extend(block_latencies)
            for call, answer, want in zip(block, answers, expected[begin:]):
                if measure.canonical_answer(call, answer) != want:
                    failed += 1
                    sheds += answer == measure.Failure(RetryAfter.__name__)
    return latencies, failed, sheds


def self_times_us(means_us: Sequence[float]) -> List[float]:
    """Each rung's mean minus the rung below it (the first is whole)."""
    return [means_us[0]] + [
        upper - lower for lower, upper in zip(means_us, means_us[1:])
    ]


def codec_cost(calls: Sequence[Call], answers: Sequence[object]) -> Tuple[float, float]:
    """Seconds and bytes per call to carry one request and its response
    over one hop: envelope + value codec + frame, both directions."""
    total_bytes = 0
    started = time.perf_counter()
    for request_id, (call, answer) in enumerate(zip(calls, answers)):
        request = ipc.encode_frame(protocol.make_request(
            request_id, call.method, list(call.args),
            kwargs=call.kwargs or None, extra={"tenant": TENANT}))
        received = json.loads(request[ipc.HEADER_BYTES:])
        for arg in received["args"]:
            protocol.decode_value(arg)
        response = ipc.encode_frame(protocol.make_response(request_id, answer))
        protocol.unpack_response(json.loads(response[ipc.HEADER_BYTES:]))
        total_bytes += len(request) + len(response)
    elapsed = time.perf_counter() - started
    return elapsed / len(calls), total_bytes / len(calls)


def persistence_times(store, root: Path) -> Tuple[float, float, float]:
    """Wall seconds of ``save_store`` and of an eager and an mmap
    ``load_store`` of what it wrote."""
    started = time.perf_counter()
    save_store(store, str(root))
    saved = time.perf_counter()
    load_store(str(root), attach_wal=False, mode="eager")
    eager = time.perf_counter()
    load_store(str(root), attach_wal=False, mode="mmap")
    mapped = time.perf_counter()
    return saved - started, eager - saved, mapped - eager


def write_costs(system, writes: Sequence[Call]) -> Tuple[float, int, float]:
    """Mean seconds per write, LogStore freezes triggered, and the mean
    of that many slowest writes (the stall a freeze puts on a write)."""
    if not writes:
        return 0.0, 0, 0.0
    freezes_before = system.store.freeze_count
    _, latencies, _ = measure.run_calls(system, writes)
    freezes = system.store.freeze_count - freezes_before
    slowest = sorted(latencies)[len(latencies) - freezes:]
    stall = statistics.fmean(slowest) if freezes else 0.0
    return statistics.fmean(latencies), freezes, stall


def traced_run(workload: Workload, seed: int, tmp: Path,
               smoke: bool = False) -> Tuple[Metrics, int, int]:
    """Every per-layer metric for ``workload``; also the number of
    rung answers checked and how many differed from the reference."""
    rung_calls, warm_calls = (RUNG_BLOCK, RUNG_BLOCK) if smoke else (RUNG_CALLS, WARM_CALLS)
    graph = load_graph(workload)
    scanned = take(call_stream(workload, graph, seed),
                   SCAN_CALLS // 10 if smoke else SCAN_CALLS)
    reads = [call for call in scanned if not call.is_write]
    reads, warm = reads[:rung_calls], reads[rung_calls:rung_calls + warm_calls]
    writes = [call for call in scanned if call.is_write][:MAX_WRITES]
    reference = PointerGraphStore.load(graph, tuned=True)
    expected = [measure.canonical_answer(call, measure.attempt(reference, call))
                for call in reads]

    meter = KernelMeter()
    register_encoding(timed_codec(meter))
    kernel = load_system(workload, graph, encoding=TIMED_ENCODING)
    serial = load_system(workload, graph)
    kernel.store.executor.max_workers = serial.store.executor.max_workers = 1
    plain = load_system(workload, graph)
    with contextlib.ExitStack() as stack:
        topology = stack.enter_context(Topology(workload.name, tmp))
        routed = ReplicatedZipGCluster(plain.store, 2, replication_factor=2, retries=1)
        socketed = ReplicatedZipGCluster(plain.store, 2, replication_factor=2, retries=1)
        socketed.transport = SocketTransport(dict(enumerate(topology.shard_addresses)))
        stack.callback(socketed.transport.close)
        rungs = {
            "kernel": kernel, "serial": serial,
            "R0": plain, "R1": routed, "R2": socketed,
            "R3": stack.enter_context(ZipGClient(*topology.master_address)),
            "R4": stack.enter_context(topology.gateway_client()),
        }
        for target in rungs.values():
            measure.run_calls(target, warm)
        measure.settle_heap()
        # The plain closed loop the ladder must agree with: half of it
        # before the ladder and half after, so drift cancels.
        top_rung = "R4" if workload.served else "R0"
        top = rungs[top_rung]
        half = len(reads) // 2
        _, plain_loop, answers = measure.run_calls(top, reads[:half])
        hops_before = kernel.aggregate_stats().npa_hops
        meter.reset()
        latencies, failed, sheds = climb(rungs, reads, expected)
        npa_hops = kernel.aggregate_stats().npa_hops - hops_before
        kernel_calls, kernel_seconds = meter.calls, meter.seconds
        _, after, answers_after = measure.run_calls(top, reads[half:])
        plain_loop += after
        answers += answers_after
    mean_us = {name: statistics.fmean(values) * 1e6
               for name, values in latencies.items()}
    succinct_us = kernel_seconds / len(reads) * 1e6
    selfs = self_times_us([mean_us[f"R{i}"] for i in range(5)])
    top_us = mean_us[top_rung]

    broadcast = [i for i, call in enumerate(reads) if call.method == "get_node_ids"]
    fanout_ratio = (
        statistics.median(latencies["R0"][i] for i in broadcast)
        / statistics.median(latencies["serial"][i] for i in broadcast)
    ) if broadcast else 1.0
    codec_s, wire_bytes = codec_cost(reads, answers)
    save_s, load_eager_s, load_mmap_s = persistence_times(plain.store, tmp / "store")
    write_s, freezes, stall_s = write_costs(serial, writes)
    closure = top_us / (statistics.fmean(plain_loop) * 1e6)

    metrics: Metrics = {
        "succinct.us_per_op": (succinct_us, "us"),
        "succinct.calls_per_op": (kernel_calls / len(reads), "count"),
        "succinct.npa_hops_per_op": (npa_hops / len(reads), "count"),
        "core.op_us": (selfs[0] - succinct_us, "us"),
        "core.write_us": (write_s * 1e6, "us"),
        "core.freeze_count": (freezes, "count"),
        "core.freeze_stall_ms": (stall_s * 1e3, "ms"),
        "core.fanout_ratio": (fanout_ratio, "ratio"),
        "core.save_s": (save_s, "s"),
        "core.load_eager_s": (load_eager_s, "s"),
        "core.load_mmap_s": (load_mmap_s, "s"),
        "cluster.route_us": (selfs[1], "us"),
        "server.shard_hop_us": (selfs[2], "us"),
        "server.master_hop_us": (selfs[3], "us"),
        "server.codec_us_per_op": (codec_s * 1e6, "us"),
        "server.wire_bytes_per_op": (wire_bytes, "B"),
        "gateway.hop_us": (selfs[4], "us"),
        "gateway.shed_count": (sheds, "count"),
        "obs.trace_overhead_ratio": (mean_us["serial"] / mean_us["kernel"], "ratio"),
        "ladder.closure_ratio": (closure, "ratio"),
    }
    closed = CLOSURE_RANGE[0] <= closure <= CLOSURE_RANGE[1]
    print(f"  ladder over {len(reads)} read calls, {len(writes)} writes replayed; "
          f"rung means (us): "
          + "  ".join(f"{name}={value:.1f}" for name, value in mean_us.items()))
    print(f"  the workload's own seam is {top_rung}: {top_us:.1f} us on the "
          f"ladder, {top_us / closure:.1f} us in a plain closed loop: "
          f"{'closed' if closed else 'unresolved'}; succinct share of it "
          f"{succinct_us / top_us:.4f}")
    return metrics, len(reads) * len(rungs), failed
