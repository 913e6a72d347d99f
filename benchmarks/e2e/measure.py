"""The timed closed loop, its statistics, and the answer check.

One caller issues the workload's calls back to back (a closed loop:
TAO callers wait for their reply).  The timed region is cut into
blocks of a fixed call count; between blocks -- outside the clock --
the next block's calls are generated and the previous block's answers
are compared with a reference store, so a run of any length needs
bounded memory and checks every answer.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from workloads import Call, invoke, take

#: Metric name -> (value, unit), in the order of ``BENCHMARK.json``.
Metrics = Dict[str, Tuple[float, str]]

#: Calls whose answer is a set of ids in no promised order.
_UNORDERED_METHODS = frozenset({"get_node_ids", "get_neighbor_ids"})


@dataclass(frozen=True)
class Failure:
    """What a call that raised 'answered': the exception type."""

    error: str


def canonical(value: object) -> object:
    """``value`` with container order and type (list/tuple, dataclass,
    wire round trip) normalised, so equal answers compare and hash
    equal wherever they were computed."""
    if isinstance(value, dict):
        return tuple(sorted((key, canonical(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(canonical(item) for item in value))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if is_dataclass(value):
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, f.name)) for f in fields(value)
        )
    return value


def canonical_answer(call: Call, answer: object) -> object:
    if call.method in _UNORDERED_METHODS and isinstance(answer, (list, tuple)):
        answer = sorted(answer)
    return canonical(answer)


def attempt(target: object, call: Call) -> object:
    """``call``'s answer, or a :class:`Failure` naming what it raised."""
    try:
        return invoke(target, call)
    except Exception as exc:  # a failed op is a result the run counts
        return Failure(type(exc).__name__)


class AnswerCheck:
    """Replays every call on the reference store and counts answers
    that differ; digests the canonical answers of the first
    ``digest_ops`` calls (a fixed count, so the digest repeats exactly
    for a seed and two commits can be compared)."""

    def __init__(self, reference: object, digest_ops: int) -> None:
        self._reference = reference
        self._digest_left = digest_ops
        self._sha = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.first_failures: List[str] = []

    def check(self, calls: Sequence[Call], answers: Sequence[object]) -> None:
        for call, answer in zip(calls, answers):
            expected = canonical_answer(call, attempt(self._reference, call))
            got = canonical_answer(call, answer)
            self.attempted += 1
            if self._digest_left > 0:
                self._digest_left -= 1
                self._sha.update(repr(got).encode())
            if isinstance(answer, Failure) or got != expected:
                self.failed += 1
                if len(self.first_failures) < 5:
                    self.first_failures.append(
                        f"{call.query} {call.method}{call.args}: "
                        f"got {str(got)[:120]}, expected {str(expected)[:120]}"
                    )

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()


def settle_heap() -> None:
    """Call once set-up and warm-up are done: everything alive now
    lives for the whole run, so move it out of the collector's sight
    instead of having full collections rescan it (tens of ms each)
    inside timed blocks."""
    gc.collect()
    gc.freeze()


def run_calls(target: object, calls: Sequence[Call]) -> Tuple[float, List[float], List[object]]:
    """Issue ``calls`` back to back; returns the wall time of the whole
    batch, each call's latency and each call's answer."""
    latencies: List[float] = []
    answers: List[object] = []
    clock = time.perf_counter
    started = clock()
    for call in calls:
        begin = clock()
        answer = attempt(target, call)
        latencies.append(clock() - begin)
        answers.append(answer)
    return clock() - started, latencies, answers


@dataclass
class TimedRegion:
    """What the timed region recorded."""

    block_ops: int
    block_seconds: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    queries: List[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.block_seconds)

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_timed(target: object, stream: Iterator[Call], check: AnswerCheck,
              seconds: float, block_ops: int) -> TimedRegion:
    """Run whole blocks until ``seconds`` of measured time."""
    region = TimedRegion(block_ops)
    while not region.block_seconds or region.seconds < seconds:
        calls = take(stream, block_ops)
        elapsed, latencies, answers = run_calls(target, calls)
        region.block_seconds.append(elapsed)
        region.latencies.extend(latencies)
        region.queries.extend(call.query for call in calls)
        check.check(calls, answers)
    return region


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

#: Percentiles reported, low to high.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10


def _rank(sample_count: int, pct: float) -> int:
    """Nearest rank of ``pct`` (given to a tenth of a percent) among
    ``sample_count`` ascending samples, in integer arithmetic."""
    return max(1, -(-sample_count * round(pct * 10) // 1000))  # ceil


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def supported_percentile(sample_count: int) -> float:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it."""
    best = PERCENTILES[0]
    for pct in PERCENTILES:
        if sample_count - _rank(sample_count, pct) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


#: Share of the timed region the end-to-end metrics are taken over.
QUIET_FRACTION = 1 / 3


def quietest_window(region: TimedRegion) -> TimedRegion:
    """The contiguous run of blocks, :data:`QUIET_FRACTION` of the
    region long, that took the least time.

    On a shared machine other tenants only ever slow a run down, in
    spells of seconds, so whole-region numbers wander run to run by
    more than any bound worth setting; the quietest stretch repeats.
    It is contiguous, and several LogStore freeze periods long, so what
    the program itself does periodically stays inside it."""
    blocks = len(region.block_seconds)
    width = max(1, round(blocks * QUIET_FRACTION))
    begin = min(range(blocks - width + 1),
                key=lambda i: sum(region.block_seconds[i:i + width]))
    ops = slice(begin * region.block_ops, (begin + width) * region.block_ops)
    return TimedRegion(region.block_ops,
                       region.block_seconds[begin:begin + width],
                       region.latencies[ops], region.queries[ops])


def throughput_thirds(region: TimedRegion) -> Tuple[float, float]:
    """ops/s of the first and of the last third of the blocks."""
    third = max(1, len(region.block_seconds) // 3)
    first = region.block_seconds[:third]
    last = region.block_seconds[-third:]
    return (region.block_ops * len(first) / sum(first),
            region.block_ops * len(last) / sum(last))


def per_query_p50_ms(region: TimedRegion) -> Dict[str, float]:
    by_query: Dict[str, List[float]] = {}
    for query, latency in zip(region.queries, region.latencies):
        by_query.setdefault(query, []).append(latency)
    return {
        query: statistics.median(values) * 1e3
        for query, values in sorted(by_query.items())
    }
