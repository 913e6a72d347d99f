"""Lockset race detection (RACE001).

An Eraser-style may-hold lockset analysis over the receiver-aware call
graph.  The threaded region of the program is everything reachable
from a *threaded entry point*:

* ``threading.Thread(target=...)`` targets (the RpcServerBase accept
  and per-connection threads, which run each request to completion --
  for every role, the gateway's admission and slot state included)
  and ``.submit(...)`` arguments;
* loader callables passed to a cache's ``get_or_load``.

Starting from those entries with an empty lockset, the analysis
propagates the union of locks held on *any* path to each reachable
function: a call made inside ``with self.<lock>:`` adds
``Class.<lock>`` to the callee's may-hold set.  A write to an
attribute of a lock-owning class is then flagged when the function is
reachable from a threaded entry and **no** path to it holds one of
the owning class's locks (nor is the write syntactically inside a
``with self.<lock>:`` block).

Union (may-hold) semantics are deliberate: if at least one path holds
the lock the write is assumed disciplined (LOCK001 checks the
per-path syntactic contract), so RACE001 only fires on writes whose
lockset is provably empty -- the classic data-race signature.

Exemptions:

* ``__init__``-family methods (the object is not yet shared);
* modules marked ``# zipg: single-writer`` (their unlocked writes
  follow the stats single-writer contract);
* the lock attributes themselves.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.analysis.callgraph import CallGraph, called_names
from repro.analysis.engine import (
    AnalysisContext,
    Finding,
    FunctionRecord,
    rule,
)
from repro.analysis.rules.common import mutation_targets
from repro.analysis.rules.locks import (
    LockOwner,
    _INIT_METHODS,
    discover_lock_owners,
)


def _callable_records(
    graph: CallGraph, record: FunctionRecord, expr: ast.expr
) -> List[FunctionRecord]:
    """Resolve a callable-valued argument to function records."""
    if isinstance(expr, ast.Lambda):
        out: List[FunctionRecord] = []
        for name in sorted(called_names(expr.body)):
            out.extend(graph.by_name.get(name, []))
        return out
    if isinstance(expr, ast.Attribute):
        if (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and record.class_name is not None
        ):
            return graph.lookup_method(record.class_name, expr.attr)
        return list(graph.by_name.get(expr.attr, []))
    if isinstance(expr, ast.Name):
        return list(graph.by_name.get(expr.id, []))
    return []


def _thread_entries(
    graph: CallGraph, context: AnalysisContext
) -> Dict[str, str]:
    """Function key -> human-readable entry description, for every
    function handed to another thread."""
    entries: Dict[str, str] = {}

    def add(targets: List[FunctionRecord], via: str) -> None:
        for target in targets:
            entries.setdefault(target.qualkey, via)

    for record in context.each_function():
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # Thread(target=fn) / threading.Thread(target=fn)
            callee = None
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            if callee == "Thread":
                for kw in node.keywords:
                    if kw.arg == "target":
                        add(
                            _callable_records(graph, record, kw.value),
                            f"Thread(target=...) in {record.qualname}",
                        )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "submit" and node.args:
                add(
                    _callable_records(graph, record, node.args[0]),
                    f"{func.attr}() fan-out in {record.qualname}",
                )
            elif func.attr == "get_or_load" and len(node.args) >= 2:
                add(
                    _callable_records(graph, record, node.args[1]),
                    f"get_or_load loader in {record.qualname}",
                )
    return entries


def _locks_covering_calls(
    record: FunctionRecord, lock_attrs: Set[str]
) -> Dict[int, Set[str]]:
    """``id(node) -> {lock attrs held}`` for every node syntactically
    inside a ``with self.<lock>:`` block of ``record``."""
    covering: Dict[int, Set[str]] = {}

    def visit(node: ast.AST, held: Set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            now = held
            if isinstance(child, ast.With):
                acquired = set()
                for item in child.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and expr.attr in lock_attrs
                    ):
                        acquired.add(expr.attr)
                if acquired:
                    now = held | acquired
            if now:
                covering[id(child)] = now
            visit(child, now)

    visit(record.node, set())
    return covering


@rule(
    "RACE001",
    "writes to attributes of lock-owning classes reachable from "
    "thread-pool / server-thread entry points must hold the owning "
    "lock on at least one path",
)
def check_locksets(context: AnalysisContext) -> Iterator[Finding]:
    graph: CallGraph = context.callgraph()  # type: ignore[assignment]
    owners = discover_lock_owners(context)
    owner_of_class: Dict[str, LockOwner] = {o.class_name: o for o in owners}
    if not owner_of_class:
        return

    entries = _thread_entries(graph, context)
    if not entries:
        return

    # May-hold fixpoint: union of lock nodes held on any path from an
    # entry.  Monotone (sets only grow), so the worklist terminates.
    may_hold: Dict[str, Set[str]] = {}
    origin: Dict[str, str] = {}
    worklist: List[str] = []
    for key, via in entries.items():
        may_hold[key] = set()
        origin[key] = via
        worklist.append(key)

    while worklist:
        key = worklist.pop()
        record = graph.record_for(key)
        if record is None:
            continue
        held_here = may_hold[key]
        lock_attrs: Set[str] = set()
        owner = owner_of_class.get(record.class_name or "")
        if owner is not None:
            lock_attrs = owner.lock_attrs
        covering = (
            _locks_covering_calls(record, lock_attrs) if lock_attrs else {}
        )
        for call, targets in graph.callees_at(record):
            at_call = held_here
            held_attrs = covering.get(id(call))
            if held_attrs:
                at_call = held_here | {
                    f"{record.class_name}.{attr}" for attr in held_attrs
                }
            for target in targets:
                tkey = target.qualkey
                known = may_hold.get(tkey)
                if known is None:
                    may_hold[tkey] = set(at_call)
                    origin[tkey] = origin[key]
                    worklist.append(tkey)
                elif not at_call <= known:
                    known.update(at_call)
                    worklist.append(tkey)

    for key, held in sorted(may_hold.items()):
        record = graph.record_for(key)
        if record is None or record.class_name is None:
            continue
        if record.name in _INIT_METHODS:
            continue
        owner = owner_of_class.get(record.class_name)
        if owner is None or owner.module is not record.module:
            continue
        if record.module.markers.module_has("single-writer"):
            continue
        lock_nodes = {
            f"{record.class_name}.{attr}" for attr in owner.lock_attrs
        }
        covering = _locks_covering_calls(record, owner.lock_attrs)
        for attr, recv, node in mutation_targets(record.node):
            if not (isinstance(recv, ast.Name) and recv.id == "self"):
                continue
            if attr in owner.lock_attrs:
                continue
            if id(node) in covering:
                continue  # syntactically under the lock
            required = owner.guarded.get(attr)
            if required is not None:
                safe = f"{record.class_name}.{required}" in held
            else:
                safe = bool(lock_nodes & held)
            if safe:
                continue
            yield Finding(
                "RACE001",
                f"write to '{record.class_name}.{attr}' in "
                f"'{record.qualname}' is reachable from threaded entry "
                f"({origin[key]}) with an empty lockset -- no path "
                f"holds "
                + (
                    f"'{required}'"
                    if required is not None
                    else f"any of {sorted(owner.lock_attrs)}"
                ),
                record.module.path,
                node.lineno,
            )
