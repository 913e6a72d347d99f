"""Monotone epoch counter: O(1) cache invalidation for a mutable store.

The store carries one :class:`Epoch`, bumped by every mutation. Cache
keys embed the epoch value at read time, so one bump makes every
previously cached entry unreachable -- the stale generation is never
*scanned*, it is garbage the byte-budgeted LRU evicts as new entries
arrive.

The counter is deliberately tiny: a lock plus an int. Readers may call
:attr:`Epoch.value` without the lock (an int load is atomic under the
GIL); writers serialize through :meth:`bump` so two concurrent
mutations cannot collapse into one generation.
"""

from __future__ import annotations

import threading


class Epoch:
    """A thread-safe monotonically increasing generation counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self, start: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = int(start)

    @property
    def value(self) -> int:
        """The current generation (lock-free read)."""
        return self._value

    def bump(self) -> int:
        """Advance to the next generation; returns the new value."""
        with self._lock:
            self._value += 1
            return self._value

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Epoch({self._value})"
