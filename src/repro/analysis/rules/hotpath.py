"""Hot-path kernel lint (HOT001/HOT002).

PR 1 replaced scalar NPA hops and per-character extraction with
batched lockstep kernels (``extract_batch``, ``char_at_batch``,
``walk_collect``); this family keeps scalar regressions from creeping
back into modules marked ``# zipg: hot-path``.  A function that is
legitimately scalar (binary-search probes, sub-cutoff fallbacks)
opts out with ``# zipg: scalar-ok``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from repro.analysis.engine import AnalysisContext, Finding, rule
from repro.analysis.rules.common import call_name, loop_body_nodes

#: Per-element kernels that devolve to one NPA hop / random access per
#: call; inside a loop they are the exact pattern PR 1 removed.
SCALAR_KERNELS = frozenset(
    {
        "extract_scalar",
        "search_scalar",
        "char_at",
        "char_of_row",
        "_lookup_sa",
        "_lookup_isa",
    }
)

#: Per-record accessors with a batched counterpart to prefer when
#: called once per loop iteration.
BATCHED_ALTERNATIVES: Dict[str, str] = {
    "extract": "extract_batch",
    "extract_until": "extract_batch with explicit lengths",
    "timestamp_at": "all_timestamps / walk_collect",
    "destination_at": "all_destinations / walk_collect",
    "properties_at": "edge_data_range",
    "edge_data_at": "edge_data_range",
}


@rule(
    "HOT001",
    "scalar NPA/suffix-array kernels must not be called inside loops "
    "in hot-path modules (use the batched kernels)",
)
def check_scalar_kernels_in_loops(context: AnalysisContext) -> Iterator[Finding]:
    for module in context.modules:
        if not module.is_hot:
            continue
        for record in module.functions:
            if record.has_directive("scalar-ok"):
                continue
            seen: Set[Tuple[int, str]] = set()
            for node in loop_body_nodes(record.node):
                message = None
                if isinstance(node, ast.Call):
                    name = call_name(node)
                    if name in SCALAR_KERNELS:
                        message = (
                            f"scalar kernel '{name}' called per loop "
                            f"iteration in hot-path function "
                            f"'{record.qualname}'"
                        )
                elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Load
                ):
                    value = node.value
                    attr = None
                    if isinstance(value, ast.Attribute):
                        attr = value.attr
                    elif isinstance(value, ast.Name):
                        attr = value.id
                    if attr is not None and "npa" in attr.lower():
                        message = (
                            f"per-element NPA indexing of '{attr}' inside "
                            f"a loop in hot-path function "
                            f"'{record.qualname}' -- walk in batch"
                        )
                if message is None:
                    continue
                key = (node.lineno, message)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding("HOT001", message, module.path, node.lineno)


@rule(
    "HOT002",
    "per-record accessors with batched counterparts should not run "
    "once per loop iteration in hot-path modules",
)
def check_per_record_accessors_in_loops(
    context: AnalysisContext,
) -> Iterator[Finding]:
    for module in context.modules:
        if not module.is_hot:
            continue
        for record in module.functions:
            if record.has_directive("scalar-ok"):
                continue
            seen: Set[Tuple[int, str]] = set()
            for node in loop_body_nodes(record.node):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name not in BATCHED_ALTERNATIVES:
                    continue
                key = (node.lineno, name or "")
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    "HOT002",
                    f"'{name}' called per loop iteration in hot-path "
                    f"function '{record.qualname}' -- prefer "
                    f"{BATCHED_ALTERNATIVES[name or '']}",
                    module.path,
                    node.lineno,
                )
