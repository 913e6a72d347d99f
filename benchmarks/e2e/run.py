"""The wall-clock benchmark: served and embedded TAO / LinkBench /
Graph Search.

    python3 benchmarks/e2e/run.py                     # every workload
    python3 benchmarks/e2e/run.py --workload tao_served --seed 7
    python3 benchmarks/e2e/run.py --traced            # per-layer ladder
    python3 benchmarks/e2e/run.py --smoke             # seconds, not minutes

One workload runs per Python process (without ``--workload`` each is
run in a fresh child).  A run prints every metric by name with its
unit, checks every answer against a reference store, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for what each metric and workload means.
"""

import _bootstrap  # noqa: F401  (sys.path side effect)

import argparse
import contextlib
import dataclasses
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import ladder
import measure
from topology import Topology
from measure import Metrics
from workloads import WORKLOADS, Workload, call_stream, load_graph, load_system, take

from repro.baselines.pointerstore import PointerGraphStore

#: Times the set-up is repeated in one run (its median is reported).
SETUP_REPEATS = 3
DRIFT_RANGE = (0.9, 1.1)


def scratch_dir(seed: int) -> Path:
    """A directory of this run's own inside the checkout (child stderr
    logs, saved stores); removed when the run ends."""
    path = Path.cwd() / ".bench_e2e_tmp" / f"run-{seed}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def set_up(workload: Workload, graph, repeats: int, tmp: Path,
           stack: contextlib.ExitStack) -> Tuple[object, List[float]]:
    """Set the system up ``repeats`` times and keep the last: the
    object the calls are issued on, and each set-up's wall time.

    Embedded: ``ZipGSystem.load``.  Served: first spawn to the first
    answer through the gateway (see :class:`Topology`)."""
    seconds: List[float] = []
    for remaining in reversed(range(repeats)):
        if workload.served:
            topology = Topology(workload.name, tmp)
            seconds.append(topology.setup_s)
            if remaining:
                topology.close()
                continue
            stack.callback(topology.close)
            target = stack.enter_context(topology.gateway_client())
        else:
            started = time.perf_counter()
            target = load_system(workload, graph)
            seconds.append(time.perf_counter() - started)
    return target, seconds


def measure_workload(workload: Workload, seed: int, seconds: float,
                     setup_repeats: int, tmp: Path):
    """The untraced run: set up, warm up, run the timed region, and
    check every answer against the reference store."""
    graph = load_graph(workload)
    stream = call_stream(workload, graph, seed)
    reference = PointerGraphStore.load(graph, tuned=True)
    check = measure.AnswerCheck(reference, digest_ops=workload.warmup_ops)
    with contextlib.ExitStack() as stack:
        target, setups = set_up(workload, graph, setup_repeats, tmp, stack)
        warmup = take(stream, workload.warmup_ops)
        _, _, answers = measure.run_calls(target, warmup)
        check.check(warmup, answers)
        twin = target
        if workload.served:
            # No RPC exposes the served store's footprint: read it off
            # a local twin that applies the same warm-up writes.
            twin = load_system(workload, graph)
            for call in warmup:
                if call.is_write:
                    measure.attempt(twin, call)
        footprint = twin.storage_footprint_bytes() / graph.on_disk_size_bytes()
        del twin, warmup, answers
        measure.settle_heap()
        region = measure.run_timed(target, stream, check, seconds,
                                   workload.block_ops)
    return setups, footprint, region, check


def timing_metrics(region: measure.TimedRegion) -> Metrics:
    ordered = sorted(region.latencies)
    return {
        "ops_per_s": (region.ops / region.seconds, "1/s"),
        "p50_ms": (measure.percentile(ordered, 50.0) * 1e3, "ms"),
        "p99_ms": (measure.percentile(ordered, 99.0) * 1e3, "ms"),
    }


def end_to_end_metrics(setups: List[float], footprint: float,
                       region: measure.TimedRegion) -> Metrics:
    return {
        **timing_metrics(measure.quietest_window(region)),
        "footprint_ratio": (footprint, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }


def print_metrics(title: str, metrics: Metrics) -> None:
    print(f"-- {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")


def print_region_info(workload: Workload, region: measure.TimedRegion,
                      check: measure.AnswerCheck) -> None:
    ordered = sorted(region.latencies)
    first, last = measure.throughput_thirds(region)
    drift = last / first
    steady = DRIFT_RANGE[0] <= drift <= DRIFT_RANGE[1]
    quiet = measure.quietest_window(region)
    print(f"  timed region: {region.ops} ops in {len(region.block_seconds)} "
          f"blocks of {region.block_ops}, {region.seconds:.3f} s measured; the "
          f"metrics above are over its quietest {len(quiet.block_seconds)} "
          f"contiguous blocks ({quiet.ops} samples; highest percentile with "
          f">={measure.MIN_SAMPLES_BEYOND} samples beyond: "
          f"p{measure.supported_percentile(quiet.ops):g})")
    print("  whole region (information only): " + "  ".join(
        f"{name}={value:.6g}" for name, (value, _) in timing_metrics(region).items())
        + f"  p99.9_ms={measure.percentile(ordered, 99.9) * 1e3:.6g}"
        + f"  max_ms={ordered[-1] * 1e3:.6g}")
    print("  p50_ms by query: " + "  ".join(
        f"{query}={value:.4f}"
        for query, value in measure.per_query_p50_ms(region).items()))
    print(f"  drift_ratio {drift:.4f} ({'steady' if steady else 'unsteady'}: "
          f"ops/s last third {last:.1f} / first third {first:.1f})")
    print(f"  answers: {check.attempted} checked, {check.failed} failed; "
          f"sha256 of the first {workload.warmup_ops} = {check.digest}")
    for line in check.first_failures:
        print(f"  FAILED {line}")


def run_one(args: argparse.Namespace) -> int:
    workload, setup_repeats = WORKLOADS[args.workload], SETUP_REPEATS
    if args.smoke:
        # One set-up, 100 warm-up calls and one 200-call block.
        workload = dataclasses.replace(workload, warmup_ops=100, block_ops=200)
        setup_repeats, args.seconds = 1, 0.0
    tmp = scratch_dir(args.seed)
    try:
        if args.trace:
            metrics, attempted, failed = ladder.traced_run(
                workload, args.seed, tmp, smoke=args.smoke)
            print_metrics(f"{workload.name} per-layer (seed {args.seed})", metrics)
        else:
            setups, footprint, region, check = measure_workload(
                workload, args.seed, args.seconds, setup_repeats, tmp)
            metrics = end_to_end_metrics(setups, footprint, region)
            print_metrics(f"{workload.name} end-to-end (seed {args.seed})", metrics)
            print_region_info(workload, region, check)
            attempted, failed = check.attempted, check.failed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run's files are there
            tmp.parent.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh Python process, one after the other."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        status |= subprocess.run(command).returncode
    return status


def _raise_system_exit(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time of the timed region")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = the per-layer run instead of the end-to-end run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="a few hundred ops per workload: checks the "
                             "harness, measures nothing")
    args = parser.parse_args(argv)
    # SIGTERM must unwind through the topology's teardown.
    signal.signal(signal.SIGTERM, _raise_system_exit)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
