"""Runtime lock-discipline harness.

Complements the static LOCK rules with a dynamic check: wrap an
object's lock in a :class:`TrackedLock` (which records the set of
threads currently holding it) and swap the object's class for a
subclass whose ``__setattr__`` verifies the discipline on every write
to a guarded attribute.

Two policies mirror the two sanctioned concurrency contracts in this
repository:

* ``"lock"`` -- every write to a guarded attribute must happen while
  the current thread holds the lock (AccessStats.merge/add/reset).
* ``"single-writer"`` -- unlocked writes are allowed from at most one
  thread (the AccessStats contract: the unlocked hot-path increments
  all come from the one thread running the query).  Locked writes are
  always allowed and do not claim ownership.

Typical use in a test::

    stats = AccessStats()
    instrument(stats, guarded={"npa_hops"}, policy="single-writer")
    ... run the workload ...
    # a second thread writing stats.npa_hops without the lock raises
    # LockDisciplineViolation at the racy write, not as a flaky count.
"""

from __future__ import annotations

import json
import threading
import traceback
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Type

__all__ = [
    "LockDisciplineViolation",
    "LockOrderRecorder",
    "TrackedLock",
    "instrument",
    "lock_order_recorder",
    "load_lock_trace",
]

_POLICIES = ("lock", "single-writer")

#: Frames kept per witness stack (innermost last); enough to show the
#: acquisition path without dragging the whole test harness along.
_STACK_LIMIT = 12


class LockDisciplineViolation(AssertionError):
    """A guarded attribute was written in violation of the policy."""


def _capture_stack() -> List[str]:
    """The current acquisition stack as ``file:line in func`` strings,
    with this module's own frames trimmed off the innermost end."""
    frames = traceback.extract_stack()
    while frames and frames[-1].filename == __file__:
        frames.pop()
    return [
        f"{frame.filename}:{frame.lineno} in {frame.name}"
        for frame in frames[-_STACK_LIMIT:]
    ]


class LockOrderRecorder:
    """Global lock-acquisition-order recorder for :class:`TrackedLock`.

    Keeps a per-thread stack of currently-held named locks.  Whenever a
    thread acquires lock B while holding lock A it records one
    ``A -> B`` edge with two witness stacks: where A was acquired and
    where B is being acquired.  One witness per ordered pair is kept
    (the first), so memory stays bounded no matter how hot the locks.

    The exported trace is plain JSON; feed it back into the static
    checker with ``python -m repro.analysis --lock-trace trace.json``
    so DEADLOCK001 merges runtime-observed edges with the AST-derived
    ones.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._held = threading.local()
        #: (held_name, acquired_name) -> edge record
        self._edges: Dict[Tuple[str, str], Dict[str, object]] = {}

    # -- hook points (called by TrackedLock with the lock held) --------

    def _stack_of(self) -> List[Tuple[str, List[str]]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def note_acquired(self, name: str) -> None:
        stack = self._stack_of()
        acquired_at = _capture_stack()
        held_names = [held_name for held_name, _ in stack]
        if name not in held_names:  # reentrant re-acquire adds no edge
            for held_name, held_at in stack:
                key = (held_name, name)
                if key not in self._edges:
                    with self._mutex:
                        self._edges.setdefault(
                            key,
                            {
                                "held": held_name,
                                "acquired": name,
                                "thread": threading.get_ident(),
                                "held_stack": list(held_at),
                                "acquired_stack": acquired_at,
                            },
                        )
        stack.append((name, acquired_at))

    def note_released(self, name: str) -> None:
        stack = self._stack_of()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == name:
                del stack[index]
                break

    # -- inspection / export -------------------------------------------

    def edges(self) -> List[Dict[str, object]]:
        """Recorded order edges, sorted for determinism."""
        with self._mutex:
            records = list(self._edges.values())
        return sorted(records, key=lambda r: (str(r["held"]), str(r["acquired"])))

    def held_by_current(self) -> List[str]:
        return [name for name, _ in self._stack_of()]

    def reset(self) -> None:
        with self._mutex:
            self._edges.clear()
            self._held = threading.local()

    def export(self) -> Dict[str, object]:
        return {"version": 1, "edges": self.edges()}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle, indent=2, sort_keys=True)


_RECORDER = LockOrderRecorder()


def lock_order_recorder() -> LockOrderRecorder:
    """The process-wide recorder every named :class:`TrackedLock` feeds."""
    return _RECORDER


def load_lock_trace(path: str) -> List[Dict[str, object]]:
    """Edge records from a file written by :meth:`LockOrderRecorder.save`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        edges = payload.get("edges", [])
    else:  # bare list is accepted too
        edges = payload
    if not isinstance(edges, list):
        raise ValueError(f"not a lock trace: {path}")
    return [e for e in edges if isinstance(e, dict) and "held" in e and "acquired" in e]


class TrackedLock:
    """A ``threading.Lock`` work-alike that records its holders.

    The holder set is kept under a private mutex; the acquisition order
    is always inner-lock-then-mutex, so the tracker introduces no new
    lock-order edges into the instrumented program.

    A *named* lock additionally reports every acquisition to the
    process-wide :class:`LockOrderRecorder`, building the runtime
    lock-order trace DEADLOCK001 consumes.  ``reentrant=True`` backs
    the lock with an ``RLock`` (re-acquisition by the holder neither
    blocks nor records a self-edge).
    """

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        reentrant: bool = False,
        recorder: Optional[LockOrderRecorder] = None,
    ) -> None:
        self._inner: Any = threading.RLock() if reentrant else threading.Lock()
        self._mutex = threading.Lock()
        self._holders: Dict[int, int] = {}  # thread ident -> depth
        self.name = name
        self.reentrant = reentrant
        self._recorder = recorder if recorder is not None else _RECORDER

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            ident = threading.get_ident()
            with self._mutex:
                self._holders[ident] = self._holders.get(ident, 0) + 1
            if self.name is not None:
                self._recorder.note_acquired(self.name)
        return acquired

    def release(self) -> None:
        ident = threading.get_ident()
        with self._mutex:
            depth = self._holders.get(ident, 0) - 1
            if depth > 0:
                self._holders[ident] = depth
            else:
                self._holders.pop(ident, None)
        if self.name is not None:
            self._recorder.note_released(self.name)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        # RLock has no .locked() on the Python versions CI runs;
        # the holder table is authoritative for both flavors.
        with self._mutex:
            return bool(self._holders)

    def held_by_current(self) -> bool:
        with self._mutex:
            return threading.get_ident() in self._holders


class _GuardState:
    """Per-instrumented-object bookkeeping (kept off the instance so
    ``__setattr__`` interception cannot recurse into it)."""

    def __init__(
        self, guarded: FrozenSet[str], lock: TrackedLock, policy: str
    ) -> None:
        self.guarded = guarded
        self.lock = lock
        self.policy = policy
        self.owner_thread: Optional[int] = None
        self.owner_mutex = threading.Lock()


_STATES: Dict[int, _GuardState] = {}


def _check_write(state: _GuardState, attr: str) -> None:
    if state.lock.held_by_current():
        return
    if state.policy == "lock":
        raise LockDisciplineViolation(
            f"guarded attribute {attr!r} written without holding the lock"
        )
    ident = threading.get_ident()
    with state.owner_mutex:
        if state.owner_thread is None:
            state.owner_thread = ident
            return
        if state.owner_thread != ident:
            raise LockDisciplineViolation(
                f"guarded attribute {attr!r} written unlocked from thread "
                f"{ident} but thread {state.owner_thread} already writes it "
                f"unlocked (single-writer contract broken)"
            )


def _instrumented_subclass(base: Type[Any]) -> Type[Any]:
    def __setattr__(self: Any, attr: str, value: Any) -> None:
        state = _STATES.get(id(self))
        if state is not None and attr in state.guarded:
            _check_write(state, attr)
        base.__setattr__(self, attr, value)

    return type(
        f"Instrumented{base.__name__}", (base,), {"__setattr__": __setattr__}
    )


def instrument(
    obj: Any,
    guarded: Iterable[str],
    lock_attr: str = "_lock",
    policy: str = "lock",
) -> TrackedLock:
    """Instrument ``obj`` in place; returns the tracking lock.

    Replaces ``obj.<lock_attr>`` with a :class:`TrackedLock` and swaps
    ``obj.__class__`` for a subclass that enforces ``policy`` on every
    write to an attribute named in ``guarded``.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
    if not hasattr(obj, lock_attr):
        raise AttributeError(
            f"{type(obj).__name__} has no lock attribute {lock_attr!r}"
        )
    tracked = TrackedLock()
    state = _GuardState(frozenset(guarded), tracked, policy)
    _STATES[id(obj)] = state
    object.__setattr__(obj, lock_attr, tracked)
    obj.__class__ = _instrumented_subclass(type(obj))
    return tracked
