"""Admission control: per-tenant token buckets and bounded queues.

The front door's overload contract (PAPER.md §5.2's interactive-serving
claim only means anything if saturation is handled, not assumed away):

* every tenant owns a :class:`TokenBucket` (sustained rate + burst) and
  a bounded FIFO queue, where admitted requests park while every
  dispatch slot is busy;
* a request that finds its tenant's queue **full** is rejected with a
  structured :class:`~repro.core.errors.RetryAfter` -- never an
  unbounded queue, never a timeout-shaped mystery;
* a request that finds the bucket **empty** is rejected the same way,
  with the bucket's time-to-next-token as the retry hint;
* an admitted request whose queue is already deeper than the shed
  threshold is flagged ``degrade`` -- the service turns sheddable reads
  into ``partial_results=True`` calls instead of failing them.

Nothing here locks or blocks: :class:`~repro.gateway.service
.GatewayService` calls it under its own lock.  Time is injected
(``clock``) so tests drive the bucket deterministically.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.errors import RetryAfter

#: Floor for retry hints so clients never busy-spin on a zero.
MIN_RETRY_AFTER_S = 0.001


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    The bucket starts full (a quiet tenant may burst immediately).
    Refill happens lazily on access from the injected monotonic clock.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/s")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_take(self) -> bool:
        """Consume one token if available."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def time_to_token(self) -> float:
        """Seconds until one full token has accumulated."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class _TenantState:
    __slots__ = ("name", "bucket", "queue")

    def __init__(self, name: str, bucket: TokenBucket) -> None:
        self.name = name
        self.bucket = bucket
        #: Slot hand-off events of the admitted requests parked for a
        #: dispatch slot.
        self.queue: Deque[object] = deque()


class AdmissionController:
    """Per-tenant token buckets + bounded queues (the caller locks).

    Args:
        tenant_rate: sustained admissions per second per tenant.
        tenant_burst: bucket capacity (instantaneous burst allowance).
        queue_depth: per-tenant queue bound; the hard backpressure edge.
        shed_threshold: fraction of ``queue_depth`` beyond which
            admitted *sheddable* reads are flagged for degradation.
        clock: injectable monotonic clock (tests).
    """

    def __init__(self, tenant_rate: float, tenant_burst: float,
                 queue_depth: int, shed_threshold: float = 0.75,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not 0.0 < shed_threshold <= 1.0:
            raise ValueError("shed_threshold must be in (0, 1]")
        self.tenant_rate = float(tenant_rate)
        self.tenant_burst = float(tenant_burst)
        self.queue_depth = int(queue_depth)
        self.shed_threshold = float(shed_threshold)
        self._clock = clock
        self._tenants: Dict[str, _TenantState] = {}
        # The round-robin ring: tenants in first-seen order, and where
        # the next pop starts looking.
        self._ring: List[_TenantState] = []
        self._cursor = 0
        self._parked = 0

    # ------------------------------------------------------------------
    # Tenant state
    # ------------------------------------------------------------------

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(
                tenant,
                TokenBucket(self.tenant_rate, self.tenant_burst,
                            clock=self._clock),
            )
            self._tenants[tenant] = state
            self._ring.append(state)
        return state

    def queue_depth_of(self, tenant: str) -> int:
        state = self._tenants.get(tenant)
        return len(state.queue) if state is not None else 0

    def depths(self) -> Dict[str, int]:
        return {name: len(state.queue)
                for name, state in self._tenants.items()}

    # ------------------------------------------------------------------
    # The admission decision
    # ------------------------------------------------------------------

    def admit(self, tenant: str, sheddable: bool) -> bool:
        """Admit one request or shed it.

        Raises :class:`RetryAfter` (``reason="queue_full"`` or
        ``"rate_limit"``) when the request must not enter the system;
        otherwise consumes a token and returns the *degrade* flag --
        true when the tenant's queue is past the shed threshold and
        the read supports partial results.  The caller dispatches the
        request at once or :meth:`park`\\ s it.
        """
        state = self._state(tenant)
        depth = len(state.queue)
        if depth >= self.queue_depth:
            # Hint: the time the backlog needs to drain at the
            # admitted rate -- the earliest a retry could find room.
            raise RetryAfter(
                retry_after_s=max(MIN_RETRY_AFTER_S,
                                  depth / self.tenant_rate),
                reason="queue_full",
            )
        if not state.bucket.try_take():
            raise RetryAfter(
                retry_after_s=max(MIN_RETRY_AFTER_S,
                                  state.bucket.time_to_token()),
                reason="rate_limit",
            )
        return bool(
            sheddable and depth >= self.shed_threshold * self.queue_depth
        )

    # ------------------------------------------------------------------
    # The tenant queues
    # ------------------------------------------------------------------

    def park(self, tenant: str, waiter: object) -> int:
        """Queue an admitted request's waiter behind its tenant's
        backlog; returns the tenant's new depth."""
        queue = self._tenants[tenant].queue
        queue.append(waiter)
        self._parked += 1
        return len(queue)

    def next_parked(self) -> Optional[Tuple[str, object]]:
        """Pop the next parked ``(tenant, waiter)``, round-robin across
        tenants (``None`` when nothing is parked).  One full pass
        visits every tenant once, so a hot tenant's backlog cannot
        starve a quiet tenant's single request."""
        if not self._parked:
            return None
        ring = self._ring
        for step in range(len(ring)):
            index = (self._cursor + step) % len(ring)
            state = ring[index]
            if state.queue:
                self._cursor = (index + 1) % len(ring)
                self._parked -= 1
                return state.name, state.queue.popleft()
        return None
