"""Lock-discipline rules (LOCK001/LOCK002).

The lock contract of this repository has two legs, each checked by
one rule:

* **LOCK001** -- attributes that are ever mutated under a class's lock
  (or inside a ``*_locked`` helper) are *lock-guarded*.  Guarded
  attributes must not be mutated (a) elsewhere in the owning class
  without the lock held, or (b) -- for private attributes -- from
  outside the owning class at all.  Calls to ``*_locked`` helpers must
  themselves happen under a ``with self.<lock>:`` block.
* **LOCK002** -- the lock-acquisition-order graph (lock A held while
  acquiring lock B, directly or through calls) must be acyclic; a
  self-edge on a non-reentrant lock is a self-deadlock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import (
    AnalysisContext,
    Finding,
    FunctionRecord,
    ModuleInfo,
    rule,
)
from repro.analysis.rules.common import (
    LOCKED_HELPER_SUFFIX,
    call_name,
    lock_attrs_of_class,
    mutation_targets,
    nodes_under_self_lock,
    with_acquired_lock_attrs,
)

_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


@dataclass
class LockOwner:
    """A class owning one or more locks, with its guarded attributes."""

    module: ModuleInfo
    class_name: str
    lock_attrs: Set[str]
    guarded: Dict[str, str] = field(default_factory=dict)  # attr -> lock attr

    def methods(self, context: AnalysisContext) -> Iterator[FunctionRecord]:
        for record in self.module.functions:
            if record.class_name == self.class_name:
                yield record


def discover_lock_owners(context: AnalysisContext) -> List[LockOwner]:
    """Find lock-owning classes and infer their guarded attributes.

    An attribute is guarded if it is mutated (i) inside a
    ``with self.<lock>:`` block, or (ii) inside a ``*_locked`` helper of
    a single-lock class.  The lock attributes themselves are excluded.
    """
    owners: List[LockOwner] = []
    for module, cls in context.each_class():
        lock_attrs = lock_attrs_of_class(cls)
        if not lock_attrs:
            continue
        owner = LockOwner(module, cls.name, lock_attrs)
        for record in module.functions:
            if record.class_name != cls.name:
                continue
            for node in ast.walk(record.node):
                if not isinstance(node, ast.With):
                    continue
                acquired = with_acquired_lock_attrs(node, lock_attrs)
                if not acquired:
                    continue
                lock = sorted(acquired)[0]
                for stmt in node.body:
                    for attr, recv, _ in mutation_targets(stmt):
                        if isinstance(recv, ast.Name) and recv.id == "self":
                            owner.guarded.setdefault(attr, lock)
            if record.name.endswith(LOCKED_HELPER_SUFFIX) and len(lock_attrs) == 1:
                (lock,) = lock_attrs
                for attr, recv, _ in mutation_targets(record.node):
                    if isinstance(recv, ast.Name) and recv.id == "self":
                        owner.guarded.setdefault(attr, lock)
        for lock in lock_attrs:
            owner.guarded.pop(lock, None)
        owners.append(owner)
    return owners


@rule(
    "LOCK001",
    "lock-guarded attributes must be mutated under their lock and "
    "only inside the owning class",
)
def check_guarded_mutations(context: AnalysisContext) -> Iterator[Finding]:
    owners = discover_lock_owners(context)
    owners_of_attr: Dict[str, Set[str]] = {}
    for owner in owners:
        for attr in owner.guarded:
            owners_of_attr.setdefault(attr, set()).add(owner.class_name)

    # (a) in-class mutations outside the lock.
    for owner in owners:
        for record in owner.methods(context):
            if record.name in _INIT_METHODS:
                continue
            if record.name.endswith(LOCKED_HELPER_SUFFIX):
                continue
            covered = nodes_under_self_lock(record.node, owner.lock_attrs)
            for attr, recv, node in mutation_targets(record.node):
                if attr not in owner.guarded:
                    continue
                if not (isinstance(recv, ast.Name) and recv.id == "self"):
                    continue
                if id(node) in covered:
                    continue
                yield Finding(
                    "LOCK001",
                    f"mutation of lock-guarded attribute "
                    f"'{owner.class_name}.{attr}' without holding "
                    f"'{owner.guarded[attr]}'",
                    owner.module.path,
                    node.lineno,
                )

    # (b) cross-class mutations of private guarded attributes.
    for module in context.modules:
        for record in module.functions:
            for attr, recv, node in mutation_targets(record.node):
                if not attr.startswith("_") or attr not in owners_of_attr:
                    continue
                if record.class_name in owners_of_attr[attr]:
                    continue
                yield Finding(
                    "LOCK001",
                    f"private lock-guarded attribute '{attr}' (owned by "
                    f"{', '.join(sorted(owners_of_attr[attr]))}) mutated "
                    f"outside its owning class -- add an owning-class "
                    f"method that takes the lock",
                    module.path,
                    node.lineno,
                )

    # (c) *_locked helpers may only be called with the lock held.
    lock_attr_names: Set[str] = set()
    for owner in owners:
        lock_attr_names.update(owner.lock_attrs)
    for module in context.modules:
        for record in module.functions:
            if record.name.endswith(LOCKED_HELPER_SUFFIX):
                continue  # helper-to-helper calls inherit the caller's lock
            covered = nodes_under_self_lock(record.node, lock_attr_names)
            for node in ast.walk(record.node):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name is None or not name.endswith(LOCKED_HELPER_SUFFIX):
                    continue
                if id(node) in covered:
                    continue
                yield Finding(
                    "LOCK001",
                    f"call to '{name}' outside a 'with self.<lock>:' "
                    f"block (the '{LOCKED_HELPER_SUFFIX}' suffix means "
                    f"the caller must hold the lock)",
                    module.path,
                    node.lineno,
                )


def _acquired_lock_nodes(
    with_node: ast.With,
    record: FunctionRecord,
    attr_owners: Dict[str, Set[str]],
) -> List[str]:
    """Resolve a ``with`` statement's acquired locks to graph nodes
    ``Class.lock_attr``; non-self receivers resolve to every owner."""
    nodes: List[str] = []
    for item in with_node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        if not isinstance(expr, ast.Attribute) or expr.attr not in attr_owners:
            continue
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            if record.class_name in attr_owners[expr.attr]:
                nodes.append(f"{record.class_name}.{expr.attr}")
                continue
        nodes.extend(f"{cls}.{expr.attr}" for cls in sorted(attr_owners[expr.attr]))
    return nodes


@rule(
    "LOCK002",
    "the lock acquisition-order graph must be acyclic "
    "(cycles deadlock; self-edges self-deadlock on non-reentrant locks)",
)
def check_lock_order(context: AnalysisContext) -> Iterator[Finding]:
    owners = discover_lock_owners(context)
    attr_owners: Dict[str, Set[str]] = {}
    for owner in owners:
        for attr in owner.lock_attrs:
            attr_owners.setdefault(attr, set()).add(owner.class_name)
    if not attr_owners:
        return

    graph: CallGraph = context.callgraph()  # type: ignore[assignment]

    acquires: Dict[str, Set[str]] = {}  # function key -> lock nodes it acquires
    for record in context.each_function():
        acquired: Set[str] = set()
        for node in ast.walk(record.node):
            if isinstance(node, ast.With):
                acquired.update(_acquired_lock_nodes(node, record, attr_owners))
        if acquired:
            acquires[graph.key_of(record)] = acquired

    # Build held -> acquired edges (lock node ``Class.lock_attr``),
    # remembering one witness site each.
    edges: Dict[str, Set[str]] = {}
    sites: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for record in context.each_function():
        call_targets: Optional[Dict[int, List[FunctionRecord]]] = None
        for node in ast.walk(record.node):
            if not isinstance(node, ast.With):
                continue
            held = _acquired_lock_nodes(node, record, attr_owners)
            if not held:
                continue
            if call_targets is None:
                call_targets = {
                    id(call): targets
                    for call, targets in graph.callees_at(record)
                }
            inner: Set[str] = set()
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.With):
                        inner.update(_acquired_lock_nodes(sub, record, attr_owners))
            # Receiver-resolved where the graph can; every same-named
            # function otherwise (calls on opaque builtin receivers
            # like dict.get contribute no edges at all).
            direct: List[FunctionRecord] = []
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        direct.extend(call_targets.get(id(sub), []))
            for callee in graph.reachable_from(direct):
                inner.update(acquires.get(graph.key_of(callee), set()))
            for held_node in held:
                for inner_node in inner:
                    edges.setdefault(held_node, set()).add(inner_node)
                    sites.setdefault(
                        (held_node, inner_node),
                        (record.module.path, node.lineno),
                    )

    def path_back(start: str, goal: str) -> Optional[List[str]]:
        """Shortest lock path ``start -> ... -> goal`` (BFS)."""
        parents: Dict[str, str] = {}
        queue = [start]
        while queue:
            current = queue.pop(0)
            for nxt in sorted(edges.get(current, set())):
                if nxt in parents or nxt == start:
                    continue
                parents[nxt] = current
                if nxt == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                queue.append(nxt)
        return None

    for (held_node, inner_node), (path, line) in sorted(sites.items()):
        if held_node == inner_node:
            yield Finding(
                "LOCK002",
                f"'{held_node}' re-acquired while already held "
                f"(self-deadlock on a non-reentrant lock)",
                path,
                line,
            )
            continue
        back = path_back(inner_node, held_node)
        if back is None:
            continue
        reverse_path, reverse_line = sites[(back[0], back[1])]
        yield Finding(
            "LOCK002",
            f"acquiring '{inner_node}' while holding '{held_node}' "
            f"completes an acquisition-order cycle "
            f"{' -> '.join([held_node] + back)}; the reverse order "
            f"'{back[0]}' -> '{back[1]}' is taken at "
            f"{reverse_path}:{reverse_line}",
            path,
            line,
        )
