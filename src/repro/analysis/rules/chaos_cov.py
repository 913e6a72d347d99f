"""Chaos-site coverage of raw I/O (CHAOS001).

The fault-injection story (crash-at-every-point recovery, torn
writes, socket resets) only covers what actually routes through
:mod:`repro.chaos`.  A raw I/O call added to a robust-path module
without a chaos site is invisible to every chaos suite -- the exact
blind spot the suites exist to prevent.

In every robust-path module (same scope as ROBUST001, minus the
:mod:`repro.chaos` package itself, which *implements* the sites),
CHAOS001 flags raw I/O calls:

* ``os.fsync`` / ``os.replace`` / ``os.rename`` / ``os.ftruncate``;
* socket data ops (``sendall``, ``recv``, ``recv_into``, ``sendto``,
  ``recvfrom``);
* ``write`` / ``truncate`` / ``flush`` on a handle opened for writing
  in the same function (``open(..., "wb")`` et al.);

unless the I/O is *behind a chaos site*, meaning one of:

* the enclosing function itself calls ``chaos.kick`` /
  ``chaos.crash_point`` / ``chaos.write_bytes``; or
* every scanned caller (receiver-aware call graph, transitively) is
  itself covered or lives in the chaos package -- e.g. ``fsync_dir``
  is only called from ``persistence.write_atomic``, whose chaos sites
  bracket it; or
* the I/O lives in a *chaos handle* class -- one whose constructor
  appears inside the arguments of a chaos hook call, like
  ``chaos.write_bytes(SITE, _SocketWriter(sock), frame)``: the object
  exists to be driven BY the injector, so its methods are the site.

The transitive-caller rule means a helper needs no site of its own as
long as no chaos-invisible path can reach its I/O.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import (
    AnalysisContext,
    Finding,
    FunctionRecord,
    rule,
)
from repro.analysis.rules.robustness import is_robust_path

_CHAOS_HOOKS = frozenset({"kick", "crash_point", "write_bytes"})
_OS_IO = frozenset({"fsync", "replace", "rename", "ftruncate"})
_SOCKET_IO = frozenset({"sendall", "recv", "recv_into", "sendto", "recvfrom"})
_HANDLE_IO = frozenset({"write", "truncate", "flush"})
_WRITE_MODES = ("w", "a", "r+", "w+", "a+", "x")


def _is_chaos_module(name: str) -> bool:
    return name == "repro.chaos" or name.startswith("repro.chaos.")


def _has_chaos_hook(record: FunctionRecord) -> bool:
    for node in ast.walk(record.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in _CHAOS_HOOKS:
            return True
    return False


def _write_handles(record: FunctionRecord) -> Set[str]:
    """Local names bound to ``open(..., <write mode>)`` handles."""
    handles: Set[str] = set()

    def open_mode(call: ast.expr) -> Optional[str]:
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "open"
        ):
            return None
        mode = None
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
            mode = call.args[1].value
        for kw in call.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        return mode if isinstance(mode, str) else ""

    for node in ast.walk(record.node):
        if isinstance(node, ast.With):
            for item in node.items:
                mode = open_mode(item.context_expr)
                if mode is None or not mode.startswith(_WRITE_MODES):
                    continue
                if isinstance(item.optional_vars, ast.Name):
                    handles.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign):
            mode = open_mode(node.value)
            if mode is None or not mode.startswith(_WRITE_MODES):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    handles.add(target.id)
    return handles


def _raw_io_calls(record: FunctionRecord) -> Iterator[Tuple[str, int]]:
    """``(description, line)`` of every raw I/O call in ``record``."""
    handles = _write_handles(record)
    for node in ast.walk(record.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        recv = func.value
        if (
            isinstance(recv, ast.Name)
            and recv.id == "os"
            and func.attr in _OS_IO
        ):
            yield f"os.{func.attr}", node.lineno
        elif func.attr in _SOCKET_IO:
            yield f"<socket>.{func.attr}", node.lineno
        elif (
            func.attr in _HANDLE_IO
            and isinstance(recv, ast.Name)
            and recv.id in handles
        ):
            yield f"{recv.id}.{func.attr}", node.lineno


@rule(
    "CHAOS001",
    "raw I/O in robust-path modules must sit behind a repro.chaos "
    "site (directly or via chaos-covered callers) so fault injection "
    "reaches it",
)
def check_chaos_coverage(context: AnalysisContext) -> Iterator[Finding]:
    graph: CallGraph = context.callgraph()  # type: ignore[assignment]

    # Classes constructed inside a chaos hook's arguments are handles
    # the injector drives; their methods count as covered.
    handle_classes: Set[str] = set()
    for record in context.each_function():
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name not in _CHAOS_HOOKS:
                continue
            for arg in node.args:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in graph.classes
                    ):
                        handle_classes.add(sub.func.id)

    # Reverse receiver-aware edges: callee key -> caller keys.
    callers: Dict[str, Set[str]] = {}
    for record in context.each_function():
        for _, targets in graph.callees_at(record):
            for target in targets:
                callers.setdefault(target.qualkey, set()).add(record.qualkey)

    covered: Dict[str, bool] = {}

    def is_covered(key: str, stack: Set[str]) -> bool:
        cached = covered.get(key)
        if cached is not None:
            return cached
        if key in stack:
            return False  # recursion with no hook anywhere on the loop
        record = graph.record_for(key)
        if record is None:
            return False
        if (
            _is_chaos_module(record.module.name)
            or _has_chaos_hook(record)
            or record.class_name in handle_classes
        ):
            covered[key] = True
            return True
        caller_keys = callers.get(key, set())
        if not caller_keys:
            covered[key] = False
            return False
        result = all(
            is_covered(caller, stack | {key}) for caller in sorted(caller_keys)
        )
        covered[key] = result
        return result

    for module in context.modules:
        if not is_robust_path(module) or _is_chaos_module(module.name):
            continue
        for record in module.functions:
            io_calls = list(_raw_io_calls(record))
            if not io_calls:
                continue
            if is_covered(record.qualkey, set()):
                continue
            for description, line in io_calls:
                yield Finding(
                    "CHAOS001",
                    f"raw I/O call '{description}' in '{record.qualname}' "
                    f"is not behind a repro.chaos site on every path -- "
                    f"fault injection cannot reach it (add chaos.kick/"
                    f"crash_point/write_bytes here or in its callers)",
                    module.path,
                    line,
                )
