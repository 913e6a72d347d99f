"""``repro.chaos``: deterministic fault injection (see ISSUE §robustness).

Production modules call the free functions here at named *sites*; with
no injector installed every call is a cheap no-op, so the query and
persistence hot paths pay a single ``is None`` check.  Tests install a
seeded :class:`ChaosInjector` to turn specific sites into exceptions,
latency spikes, torn writes, or simulated process crashes::

    from repro import chaos

    with chaos.injected(chaos.ChaosInjector(seed=7, rules=[
        chaos.FaultRule(site=chaos.SITE_REPLICA_CALL,
                        match={"server": 1}, fault="error"),
    ])):
        cluster.get_node_ids({"city": "Ithaca"})   # server 1 now fails

Site names are dotted and stable (constants below); rules match them
with ``fnmatch`` patterns, so ``"save.*"`` covers every crash point in
:func:`repro.core.persistence.save_store`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import IO, Iterator, Optional

from repro.chaos.injector import (
    ChaosInjector,
    FaultInjected,
    FaultRule,
    SimulatedCrash,
)

__all__ = [
    "ChaosInjector",
    "FaultInjected",
    "FaultRule",
    "SimulatedCrash",
    "SITE_EC_DECODE",
    "SITE_EC_ENCODE",
    "SITE_EC_REBUILD",
    "SITE_EXECUTOR_CALL",
    "SITE_GATEWAY_ADMIT",
    "SITE_GATEWAY_DISPATCH",
    "SITE_REPLICA_CALL",
    "SITE_RPC_HANDLE",
    "SITE_RPC_RECV",
    "SITE_RPC_SEND",
    "SITE_SAVE_WRITE",
    "SITE_WAL_WRITE",
    "active",
    "crash_point",
    "injected",
    "install",
    "kick",
    "uninstall",
    "write_bytes",
]

#: Erasure reconstruction of a snapshot file from fragments (tags:
#: ``file``).  An ``error`` rule makes the degraded read fail over to
#: the partial-result path; a ``latency`` rule models slow decodes.
SITE_EC_DECODE = "ec.decode"
#: Erasure-coded fragment write during initial encode (tags: ``file``,
#: ``fragment``).  ``torn_write`` rules tear a fragment on disk; the
#: CRC'd read path must then treat it as an erasure.
SITE_EC_ENCODE = "ec.encode"
#: Fragment re-creation onto a recovering server (tags: ``file``,
#: ``fragment``, ``server``).  ``crash`` rules kill the rebuild
#: mid-flight -- the server must stay held out and the next
#: ``recover_server`` must converge.
SITE_EC_REBUILD = "ec.rebuild"
#: Executor work-item invocation (tags: ``index``, ``attempt``).
SITE_EXECUTOR_CALL = "executor.shard_call"
#: Gateway admission decision (tags: ``tenant``, ``method``).  An
#: ``error`` rule here makes admission itself fail -- the shed path
#: under fault injection -- and a ``crash`` rule kills the gateway.
SITE_GATEWAY_ADMIT = "gateway.admit"
#: Gateway backend dispatch, just before the backend call (tags:
#: ``tenant``, ``method``).
SITE_GATEWAY_DISPATCH = "gateway.dispatch"
#: Replicated-cluster per-replica call (tags: ``shard``, ``server``).
SITE_REPLICA_CALL = "replication.replica_call"
#: RPC frame send (tags: ``method``, ``server``). A ``torn_write``
#: rule models a peer dying mid-frame: a prefix of the frame reaches
#: the socket and the sender crashes.
SITE_RPC_SEND = "rpc.send"
#: RPC frame receive (tags: ``method``, ``server``). ``error`` rules
#: (e.g. ``error=ConnectionResetError``) model resets mid-call.
SITE_RPC_RECV = "rpc.recv"
#: Server-side RPC request execution, in every server role (tags:
#: ``method``, ``server``: shards >= 0, master -1, gateway -2).
SITE_RPC_HANDLE = "rpc.handle"
#: Snapshot data-file write (tags: ``file``).
SITE_SAVE_WRITE = "save.write"
#: WAL record write (tags: ``lsn``).
SITE_WAL_WRITE = "wal.write"

_LOCK = threading.Lock()
_INJECTOR: Optional[ChaosInjector] = None


def install(injector: ChaosInjector) -> ChaosInjector:
    """Make ``injector`` the process-wide active injector."""
    global _INJECTOR
    with _LOCK:
        _INJECTOR = injector
    return injector


def uninstall() -> None:
    """Remove the active injector (all sites become no-ops again)."""
    global _INJECTOR
    with _LOCK:
        _INJECTOR = None


def active() -> Optional[ChaosInjector]:
    """The currently installed injector, if any."""
    return _INJECTOR


@contextmanager
def injected(injector: ChaosInjector) -> Iterator[ChaosInjector]:
    """Install ``injector`` for the duration of the ``with`` block."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


# ----------------------------------------------------------------------
# Site hooks (no-ops unless an injector is installed)
# ----------------------------------------------------------------------


def kick(site: str, **tags: object) -> None:
    """Maybe inject latency / an exception / a crash at ``site``."""
    injector = _INJECTOR
    if injector is not None:
        injector.kick(site, **tags)


def crash_point(site: str, **tags: object) -> None:
    """Maybe die (raise :class:`SimulatedCrash`) at ``site``."""
    injector = _INJECTOR
    if injector is not None:
        injector.crash_point(site, **tags)


def write_bytes(site: str, handle: IO[bytes], data: bytes, **tags: object) -> None:
    """Write ``data`` to ``handle``, subject to torn-write faults."""
    injector = _INJECTOR
    if injector is not None:
        injector.write_bytes(site, handle, data, **tags)
    else:
        handle.write(data)
