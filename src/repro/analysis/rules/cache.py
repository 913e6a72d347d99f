"""Cache-coherence lint (CACHE001).

The hot-set cache (:mod:`repro.perf.cache`) embeds the store's epoch
counter in every cache key; a mutation that forgets to bump the epoch
leaves stale entries *reachable* -- the exact bug class the epoch design
exists to make impossible. The one module marked ``# zipg: cache-backed``
is ``repro/core/graph_store.py``, whose ``ZipG`` owns both the cache and
the epoch. In a marked module, every
mutating method (``append_*``, ``delete_*``, ``update_*``,
``freeze_*``, ``compact_*``, ``mark_*``, ``add_*``, ``remove_*``) must
bump an epoch, either directly (a ``....bump()`` call) or transitively
through another method of the same class (``self.helper()`` where the
helper bumps).

A mutator that genuinely cannot invalidate cached reads (it mutates
state no cache key covers) opts out with ``# zipg: ignore[CACHE001]``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Set

from repro.analysis.engine import AnalysisContext, Finding, rule

#: Method-name prefixes that mutate store state the cache may front.
MUTATOR_RE = re.compile(
    r"^(append|delete|update|freeze|compact|mark|add|remove)_"
)


def _bumps_epoch_directly(func: ast.FunctionDef) -> bool:
    """Any ``<something>.bump()`` call inside the function body."""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "bump"
        ):
            return True
    return False


def _self_calls(func: ast.FunctionDef) -> Set[str]:
    """Names of ``self.<name>(...)`` methods the function calls."""
    calls: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _bumping_methods(cls: ast.ClassDef) -> Set[str]:
    """Methods that bump an epoch directly or via same-class self-calls
    (transitive fixpoint over the class-local call graph)."""
    methods: Dict[str, ast.FunctionDef] = {
        node.name: node
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    bumping = {
        name for name, func in methods.items() if _bumps_epoch_directly(func)
    }
    calls = {name: _self_calls(func) for name, func in methods.items()}
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name not in bumping and callees & bumping:
                bumping.add(name)
                changed = True
    return bumping


@rule(
    "CACHE001",
    "mutating methods in cache-backed modules must bump an epoch so "
    "stale cache entries become unreachable",
)
def check_epoch_bumps(context: AnalysisContext) -> Iterator[Finding]:
    for module in context.modules:
        if not module.markers.module_has("cache-backed"):
            continue
        for cls in module.classes:
            bumping = _bumping_methods(cls)
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if not MUTATOR_RE.match(node.name):
                    continue
                if node.name in bumping:
                    continue
                yield Finding(
                    "CACHE001",
                    f"mutating method '{cls.name}.{node.name}' in a "
                    f"cache-backed module never bumps an epoch -- cached "
                    f"reads keyed on the old epoch stay reachable and "
                    f"serve stale data (bump the epoch or mark "
                    f"'# zipg: ignore[CACHE001]')",
                    module.path,
                    node.lineno,
                )
