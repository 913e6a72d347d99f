"""Tests of the benchmark harness itself (not of the program it
measures).  Run explicitly -- tier-1's ``testpaths`` does not include
this directory:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import _bootstrap

import json
import subprocess
import sys
import time
from pathlib import Path

import ladder
import measure
from workloads import WORKLOADS, Call, call_stream, load_graph, take

from repro.baselines.pointerstore import PointerGraphStore

HERE = Path(__file__).parent
CONTRACT = json.loads((_bootstrap.REPO_ROOT / "BENCHMARK.json").read_text())


def names(section):
    return [entry["name"] for entry in CONTRACT[section]]


def test_supported_percentile_needs_ten_samples_beyond():
    assert measure.supported_percentile(99) == 50.0
    assert measure.supported_percentile(100) == 90.0
    assert measure.supported_percentile(999) == 90.0
    assert measure.supported_percentile(1000) == 99.0
    assert measure.supported_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50.0) == 50
    assert measure.percentile(values, 99.0) == 99
    assert measure.percentile(values, 99.9) == 100
    assert measure.percentile([7], 99.0) == 7


def test_quietest_window_is_the_fastest_contiguous_third():
    region = measure.TimedRegion(
        block_ops=2,
        block_seconds=[3.0, 1.0, 1.5, 3.0, 2.5, 0.5],
        latencies=[float(i) for i in range(12)],
        queries=[str(i) for i in range(12)],
    )
    quiet = measure.quietest_window(region)
    # Blocks 1-2 (2.5 s) beat blocks 4-5 (3.0 s), although block 5 is
    # the fastest single block.
    assert quiet.block_seconds == [1.0, 1.5]
    assert quiet.latencies == [2.0, 3.0, 4.0, 5.0]
    assert quiet.queries == ["2", "3", "4", "5"]
    assert quiet.ops == 4 and quiet.seconds == 2.5


def test_self_times_subtract_the_rung_below():
    assert ladder.self_times_us([10.0, 15.0, 40.0]) == [10.0, 5.0, 25.0]


def test_kernel_meter_charges_only_the_outermost_call():
    meter = ladder.KernelMeter()

    class Codec:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    Codec.inner = meter.timed(Codec.inner)
    Codec.outer = meter.timed(Codec.outer)
    assert Codec().outer() == 2
    assert meter.calls == 1
    assert Codec().inner() == 1
    assert meter.calls == 2 and meter.seconds > 0.0


def test_canonical_normalises_order_and_wire_types():
    assert measure.canonical({"b": 1, "a": [1, 2]}) == \
        measure.canonical({"a": (1, 2), "b": 1})
    neighbours = Call("GS1", "get_neighbor_ids", (5,), {})
    assert measure.canonical_answer(neighbours, [3, 1, 2]) == (1, 2, 3)
    ordered = Call("assoc_range", "edges_from_index", (5, 0, 0, 10), {})
    assert measure.canonical_answer(ordered, [3, 1, 2]) == (3, 1, 2)


def _digest(workload, graph, seed, count=300):
    calls = take(call_stream(workload, graph, seed), count)
    check = measure.AnswerCheck(PointerGraphStore.load(graph, tuned=True), count)
    target = PointerGraphStore.load(graph, tuned=True)
    check.check(calls, [measure.attempt(target, call) for call in calls])
    assert check.failed == 0 and check.attempted == count
    return calls, check.digest


def test_same_seed_same_stream_and_digest_other_seed_differs():
    workload = WORKLOADS["linkbench_served"]
    graph = load_graph(workload)
    calls, digest = _digest(workload, graph, seed=7)
    again, digest_again = _digest(workload, graph, seed=7)
    other, digest_other = _digest(workload, graph, seed=8)
    assert calls == again and digest == digest_again
    assert calls != other and digest != digest_other
    assert any(call.is_write for call in calls)


def test_answer_check_counts_wrong_answers_and_raised_calls():
    workload = WORKLOADS["tao_served"]
    graph = load_graph(workload)
    calls = [call for call in take(call_stream(workload, graph, 1), 50)
             if call.method == "edge_count"][:2]
    check = measure.AnswerCheck(PointerGraphStore.load(graph, tuned=True), 0)
    right = measure.attempt(PointerGraphStore.load(graph, tuned=True), calls[0])
    check.check(calls[:1], [right])
    assert check.failed == 0
    check.check(calls[:1], [right + 1])
    check.check(calls[:1], [measure.Failure("RetryAfter")])
    assert (check.attempted, check.failed) == (3, 2)
    assert len(check.first_failures) == 2


def test_contract_names_the_harness_workloads():
    assert names("workloads") == list(WORKLOADS)
    assert "setup_s" in names("end_to_end")


def _serve_processes():
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if str(HERE / "serve.py").encode() in cmdline.read_bytes():
                found.append(cmdline.parent.name)
        except OSError:
            pass  # the process ended while we looked
    return found


def _run(*flags):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *flags],
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:]
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def test_smoke_run_passes_with_real_processes():
    started = time.monotonic()
    results = _run("--smoke")
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert 1 <= result["attempted"] <= 300
        assert list(result["metrics"]) == names("end_to_end")
    (traced,) = _run("--smoke", "--traced", "--workload", "tao_served")
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == names("per_layer")
    assert traced["metrics"]["gateway.shed_count"]["value"] == 0
    assert time.monotonic() - started < 60
    assert _serve_processes() == []
