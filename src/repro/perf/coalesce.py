"""Request coalescing: single-flight sharing.

:class:`SingleFlight` -- callers presenting the same key while a
matching call is in flight wait for that call's outcome instead of
re-executing it (the classic ``singleflight`` shape from serving
stacks). The leader's exception propagates to every waiter;
:class:`BaseException` (e.g. a simulated crash) included, so fault
injection semantics survive coalescing.

The lock is never held while user code runs: the leader executes
outside the lock and publishes through an :class:`Event`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Optional


class _Flight:
    """One in-flight execution: waiters block on ``event``."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Deduplicate concurrent identical calls by key.

    The flight is removed from the table *before* its event is set, so
    a caller arriving after completion always starts a fresh execution
    -- results are shared only across genuinely concurrent callers,
    never cached across time (that is :class:`~repro.perf.cache
    .HotSetCache`'s job).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, _Flight] = {}
        self._shared = 0

    @property
    def shared(self) -> int:
        """Calls that joined an in-flight leader instead of executing."""
        return self._shared

    def do(self, key: Hashable, fn: Callable[[], object],
           on_shared: Optional[Callable[[], None]] = None) -> object:
        """Run ``fn()`` once per concurrent ``key``; share the outcome.

        ``on_shared`` (a metrics hook) is called, on the caller's
        thread, when this call joins an in-flight leader instead of
        executing.  Callers must treat a shared return value as
        read-only -- every follower receives the *same object* the
        leader produced.
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
            else:
                self._shared += 1
        if not leader:
            if on_shared is not None:
                on_shared()
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value
        try:
            value = fn()
            flight.value = value
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # Remove before waking waiters: late arrivals must not join
            # a finished flight.
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()
        return value

