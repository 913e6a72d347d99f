"""Event-loop discipline lint for gateway modules (GATE001).

The query gateway (:mod:`repro.gateway`) runs a request to completion
on one asyncio event loop: admission, dispatch slot, backend call,
response write.  A single blocking call anywhere on that path stalls
*every* tenant at once -- which is exactly the kind of whole-service
latency cliff the gateway exists to prevent -- and a thread hand-off
per request costs two cross-thread wake-ups for no concurrency the
loop did not already have.  Work that may leave the loop belongs
behind the one awaitable backend seam, ``await
backend.call_async(method, *args, **kwargs)``: a remote
``ZipGClient`` implements it on the loop itself (asyncio streams), a
local cluster -- whose calls are CPU work -- behind its own submission
pool.

Modules opt in with ``# zipg: gateway-path``.  In such modules the
rule flags calls that block the calling thread:

* ``time.sleep(...)`` (and a bare ``sleep(...)``) -- use
  ``asyncio.sleep``;
* synchronous socket I/O -- data ops (``send``/``recv`` and friends,
  also RPC001 territory), plus ``connect`` / ``accept`` /
  ``create_connection``.  ``socket.create_server`` is deliberately
  *not* flagged: a bind is constructor-time setup, before any loop
  runs;
* lock ``.acquire(...)`` -- in asyncio code a lock is taken with
  ``async with``; a literal ``acquire()`` is either a thread lock
  (blocks the loop) or an unidiomatic asyncio lock;
* thread hand-offs -- ``<pool>.submit(...)``, ``run_in_executor(...)``
  and ``wrap_future(...)``: the gateway path does not own a pool; it
  awaits the backend seam.

A function that intentionally performs blocking work off-loop (a
thread entry point, a ``run_in_executor`` target) opts out with
``# zipg: executor-offload`` on the definition; single lines opt out
with ``# zipg: ignore[GATE001]``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import AnalysisContext, Finding, rule

#: Socket methods that block on network progress.
BLOCKING_SOCKET_CALLS = frozenset({
    "accept",
    "connect",
    "recv",
    "recv_into",
    "recvfrom",
    "recvmsg",
    "send",
    "sendall",
    "sendfile",
    "sendmsg",
    "sendto",
})

#: Calls that move a request onto (or back from) a pool thread.
THREAD_HANDOFF_CALLS = frozenset({
    "run_in_executor",
    "submit",
    "wrap_future",
})


def _blocking_reason(node: ast.Call) -> Optional[str]:
    """Why this call blocks the event loop, or ``None`` if it doesn't."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "sleep":
            return ("bare 'sleep(...)' blocks the event loop -- "
                    "await asyncio.sleep instead")
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "sleep":
        # time.sleep blocks; asyncio.sleep / loop.sleep variants do not.
        value = func.value
        if isinstance(value, ast.Name) and value.id == "time":
            return ("'time.sleep(...)' blocks the event loop -- "
                    "await asyncio.sleep instead")
        return None
    if func.attr == "create_connection":
        return ("'create_connection(...)' performs a blocking connect -- "
                "use asyncio.open_connection (or keep sockets behind the "
                "backend seam)")
    if func.attr in BLOCKING_SOCKET_CALLS:
        return (f"synchronous socket call '.{func.attr}(...)' blocks the "
                f"event loop -- use the asyncio stream helpers "
                f"(repro.server.ipc.send_frame_async/recv_frame_async)")
    if func.attr in THREAD_HANDOFF_CALLS:
        return (f"'.{func.attr}(...)' hands the request to another "
                f"thread -- await the backend seam "
                f"(backend.call_async) instead")
    if func.attr == "acquire":
        return ("lock '.acquire(...)' blocks the event loop -- take "
                "asyncio locks with 'async with', and keep thread locks "
                "off the gateway path")
    return None


@rule(
    "GATE001",
    "modules marked '# zipg: gateway-path' must not block the event "
    "loop or hand requests to threads (no time.sleep, sync socket I/O, "
    "lock acquire(), pool submit / wrap_future)",
)
def check_gateway_blocking(context: AnalysisContext) -> Iterator[Finding]:
    for module in context.modules:
        if not module.markers.module_has("gateway-path"):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            reason = _blocking_reason(node)
            if reason is None:
                continue
            record = module.enclosing_function(node.lineno)
            if record is not None and record.has_directive(
                    "executor-offload"):
                continue
            yield Finding(
                "GATE001",
                f"{reason} (or mark the function "
                f"'# zipg: executor-offload' if it runs off-loop)",
                module.path,
                node.lineno,
            )
