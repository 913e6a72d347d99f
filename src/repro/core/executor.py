"""Serial fan-out executor for multi-shard queries (§4.1).

All-shard operations (``get_node_ids``, ``find_edges``, the cluster
broadcast path) apply one function to many shards. The paper gets
shard parallelism from one core per shard *process*; in one Python
process a thread pool only buys cross-core wake-ups under the GIL
(the fan-out ran 4.2x slower than a serial loop over the already
vectorised shard kernels), so :meth:`ShardExecutor.map` is a plain
loop on the caller's thread. Shard spans therefore nest directly under
the query's span, and ``stats.counter += n`` increments never race.

Failure semantics: each work item may be retried (``retries`` +
exponential ``backoff_s``), bounded by a cooperative ``deadline_s``
that budgets the *entire* item -- all attempts and the backoff sleeps
between them, so total wall time is at most the budget plus one
attempt (over-budget results are discarded as
:class:`~repro.core.errors.DeadlineExceeded`), and ``partial=True``
returns structured per-item
:class:`ShardResult`\\ s instead of raising on the first failure --
the degraded-query building block the replicated cluster uses.  Every
invocation passes through the ``executor.shard_call`` chaos site, so
all of these paths are fault-injectable.  Retries, failures, and
deadline misses publish ``zipg_executor_*`` counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro import chaos, obs
from repro.core.errors import DeadlineExceeded

#: Exponential backoff is capped so a high retry count cannot stall a
#: query for minutes.
_BACKOFF_CAP_S = 2.0


@dataclass
class ShardResult:
    """Outcome of one fanned-out work item (``partial=True`` mode)."""

    index: int
    ok: bool
    value: object = None
    error: Optional[BaseException] = None
    attempts: int = 1


class ShardExecutor:
    """Runs a query's per-shard work items through the retry/deadline
    state machine, one after another on the caller's thread."""

    def _run_one(
        self,
        fn: Callable,
        item: object,
        index: int,
        retries: int,
        backoff_s: float,
        deadline_s: Optional[float],
    ) -> ShardResult:
        """One work item through the retry/deadline state machine.

        ``deadline_s`` budgets the *whole* item -- every attempt plus
        the backoff sleeps between them -- not each attempt in
        isolation.  (Per-attempt deadlines made ``1 + retries`` slow
        attempts legal, so a query configured with a 50ms deadline and
        3 retries could stall for 200ms-plus; callers size deadlines
        for the item.)  The budget is enforced cooperatively, so total
        wall time is bounded by ``deadline_s`` plus one attempt: a
        result arriving past the budget is discarded as
        :class:`DeadlineExceeded`, a failure with no budget left stops
        retrying (chaining the attempt's error as ``__cause__``), and
        a backoff sleep that would not fit the remaining budget is
        skipped so the final attempt gets the time instead.

        Never raises an :class:`Exception` (failures come back as a
        ``ShardResult``); :class:`~repro.chaos.SimulatedCrash` and
        other ``BaseException``\\ s still propagate -- retry logic must
        not survive a process kill."""
        attempt = 0
        start = time.monotonic()
        while True:
            try:
                chaos.kick(chaos.SITE_EXECUTOR_CALL, index=index, attempt=attempt)
                value = fn(item)
                elapsed = time.monotonic() - start
                if deadline_s is not None and elapsed > deadline_s:
                    obs.counter(
                        "zipg_executor_deadline_exceeded_total",
                        help="shard calls whose result missed the deadline",
                    ).inc()
                    raise DeadlineExceeded(
                        f"shard call finished {elapsed:.4f}s into a "
                        f"{deadline_s}s budget"
                    )
                return ShardResult(index, True, value, None, attempt + 1)
            except Exception as exc:
                if attempt >= retries:
                    obs.counter(
                        "zipg_executor_failures_total",
                        help="shard calls failed after exhausting retries",
                    ).inc()
                    return ShardResult(index, False, None, exc, attempt + 1)
                remaining = (
                    None if deadline_s is None
                    else deadline_s - (time.monotonic() - start)
                )
                if remaining is not None and remaining <= 0:
                    # Budget exhausted: retrying now could only return
                    # another over-deadline result. Surface the budget
                    # miss with the attempt's failure as the cause.
                    if not isinstance(exc, DeadlineExceeded):
                        obs.counter(
                            "zipg_executor_deadline_exceeded_total",
                            help="shard calls whose result missed the deadline",
                        ).inc()
                        deadline_error = DeadlineExceeded(
                            f"retry budget of {deadline_s}s exhausted after "
                            f"{attempt + 1} attempt(s)"
                        )
                        deadline_error.__cause__ = exc
                        exc = deadline_error
                    obs.counter(
                        "zipg_executor_failures_total",
                        help="shard calls failed after exhausting retries",
                    ).inc()
                    return ShardResult(index, False, None, exc, attempt + 1)
                obs.counter("zipg_executor_retries_total",
                            help="shard call retries").inc()
                if backoff_s > 0:
                    sleep_s = min(backoff_s * (2 ** attempt), _BACKOFF_CAP_S)
                    # A sleep that would overrun the budget is skipped:
                    # the remaining time goes to the attempt, which can
                    # still beat the deadline.
                    if remaining is None or sleep_s < remaining:
                        time.sleep(sleep_s)
                attempt += 1

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        retries: int = 0,
        backoff_s: float = 0.0,
        deadline_s: Optional[float] = None,
        partial: bool = False,
    ) -> List:
        """``[fn(item) for item in items]``, in input order.

        Failure handling: each item is attempted ``1 + retries`` times
        with exponential backoff; a cooperative ``deadline_s`` budgets
        each item's attempts *and* backoff sleeps as a whole,
        converting slow items into failures. By default the
        first exhausted failure propagates to the caller; with
        ``partial=True`` the return value is a list of
        :class:`ShardResult` (one per item, input order) carrying
        either the value or the structured error.
        """
        outcomes = [
            self._run_one(fn, item, index, retries, backoff_s, deadline_s)
            for index, item in enumerate(items)
        ]
        if partial:
            return outcomes
        for outcome in outcomes:
            if not outcome.ok and outcome.error is not None:
                raise outcome.error
        return [outcome.value for outcome in outcomes]
