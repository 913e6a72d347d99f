"""Deterministic fault injection for the ZipG failure paths.

The store's durability and degraded-query code is only trustworthy if
every failure branch is *executed* by tests, not merely written.  This
module provides the machinery: production code declares named **sites**
(``chaos.kick("executor.shard_call", ...)``, ``chaos.crash_point(
"save.committed")``, ``chaos.write_bytes("wal.write", handle, data)``)
that are free no-ops until a test installs a :class:`ChaosInjector`.

An injector is a seeded RNG plus a list of :class:`FaultRule`\\ s.  Each
rule matches sites by ``fnmatch`` pattern (optionally filtered on site
tags), gates on a deterministic probability / hit window, and injects
one of four faults:

* ``"error"``   -- raise an exception (default :class:`FaultInjected`);
* ``"latency"`` -- sleep ``latency_s`` seconds (a latency spike);
* ``"crash"``   -- raise :class:`SimulatedCrash`, the process-kill
  model (a ``BaseException`` so ordinary retry/except-Exception
  handlers cannot accidentally swallow a "kill -9");
* ``"torn_write"`` -- at a :func:`write_bytes` site, persist only a
  prefix of the payload and then crash (a write torn mid-flight).

Determinism: with the same seed, rules, and sequence of site hits, the
same faults fire.  All bookkeeping is lock-guarded because the
executor fans sites out across threads.
"""

from __future__ import annotations

import fnmatch
import random
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Tuple

from repro import obs
from repro.core.errors import ZipGError


class SimulatedCrash(BaseException):
    """The injected process-kill: everything not yet durable is gone.

    Deliberately *not* an :class:`Exception` subclass -- retry loops and
    ``except Exception`` handlers must not be able to survive it, just
    as no handler survives ``kill -9``."""


class FaultInjected(ZipGError):
    """Default exception raised by ``fault="error"`` rules."""


@dataclass
class FaultRule:
    """One matching rule: where, what, and how often to inject.

    Args:
        site: ``fnmatch`` pattern over site names (``"save.*"``).
        fault: ``"error"``, ``"latency"``, ``"crash"``, ``"torn_write"``.
        probability: chance of firing per matching hit (seeded RNG).
        after: skip the first ``after`` matching hits.
        times: fire at most this many times (``None`` -- unlimited).
        match: tag equality filters, e.g. ``{"server": 1}`` fires only
            at hits carrying that tag value.
        error: exception *instance or class* for ``"error"`` faults.
        latency_s: sleep duration for ``"latency"`` faults.
        keep_bytes: for ``"torn_write"``, how many payload bytes reach
            disk before the crash (``None`` -- a seeded random prefix).
    """

    site: str
    fault: str = "error"
    probability: float = 1.0
    after: int = 0
    times: Optional[int] = None
    match: Optional[Dict[str, object]] = None
    error: Optional[object] = None
    latency_s: float = 0.0
    keep_bytes: Optional[int] = None

    # Internal (mutated under the injector's lock).
    hits: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.fault not in ("error", "latency", "crash", "torn_write"):
            raise ValueError(f"unknown fault kind {self.fault!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def matches(self, site: str, tags: Dict[str, object]) -> bool:
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        if self.match:
            for key, value in self.match.items():
                if tags.get(key) != value:
                    return False
        return True

    def make_error(self) -> BaseException:
        if self.error is None:
            return FaultInjected(f"injected fault at {self.site!r}")
        if isinstance(self.error, BaseException):
            return self.error
        if isinstance(self.error, type) and issubclass(self.error, BaseException):
            return self.error(f"injected fault at {self.site!r}")
        raise TypeError(f"error must be an exception, got {self.error!r}")


class ChaosInjector:
    """A seeded set of fault rules, installable via :func:`install`.

    The injector is shared across threads; rule bookkeeping (hit
    counters, fire caps, the RNG) is serialized under one lock so a
    given seed yields one deterministic fault schedule per site-hit
    order."""

    def __init__(self, seed: int = 0, rules: Optional[List[FaultRule]] = None) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = list(rules or [])
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._log: List[Tuple[str, str]] = []

    @property
    def injection_log(self) -> List[Tuple[str, str]]:
        """``(site, fault)`` pairs actually fired, in order."""
        with self._lock:
            return list(self._log)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _due(self, site: str, tags: Dict[str, object]) -> List[FaultRule]:
        """Rules that fire at this hit (bookkeeping updated)."""
        due: List[FaultRule] = []
        with self._lock:
            for rule in self.rules:
                if not rule.matches(site, tags):
                    continue
                rule.hits += 1
                if rule.hits <= rule.after:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                self._log.append((site, rule.fault))
                due.append(rule)
        for rule in due:
            obs.counter(
                "zipg_chaos_injections_total",
                help="faults injected by repro.chaos, by kind",
                labels={"fault": rule.fault},
            ).inc()
        return due

    def kick(self, site: str, **tags: object) -> None:
        """Fire latency / error / crash faults due at ``site``.

        Latency fires first (a slow call can still fail), then a crash
        beats an error (the process dies before it can raise)."""
        due = self._due(site, tags)
        error: Optional[BaseException] = None
        crash = False
        for rule in due:
            if rule.fault == "latency":
                time.sleep(rule.latency_s)
            elif rule.fault == "crash":
                crash = True
            elif rule.fault == "error":
                error = rule.make_error()
        if crash:
            raise SimulatedCrash(f"simulated crash at {site!r}")
        if error is not None:
            raise error

    def crash_point(self, site: str, **tags: object) -> None:
        """A named crash point: dies here iff a crash rule is due."""
        for rule in self._due(site, tags):
            if rule.fault == "crash":
                raise SimulatedCrash(f"simulated crash at {site!r}")

    def write_bytes(self, site: str, handle: IO[bytes], data: bytes,
                    **tags: object) -> None:
        """Write ``data`` to ``handle``; a due ``torn_write`` rule
        persists only a prefix and then crashes, a due ``crash`` rule
        crashes before any byte lands."""
        for rule in self._due(site, tags):
            if rule.fault == "crash":
                raise SimulatedCrash(f"simulated crash at {site!r}")
            if rule.fault == "torn_write":
                if rule.keep_bytes is not None:
                    keep = max(0, min(len(data), rule.keep_bytes))
                else:
                    with self._lock:
                        keep = self._rng.randrange(len(data)) if data else 0
                handle.write(data[:keep])
                handle.flush()
                raise SimulatedCrash(
                    f"torn write at {site!r}: {keep}/{len(data)} bytes persisted"
                )
        handle.write(data)
