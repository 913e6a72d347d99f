"""Observability coverage lint (OBS001).

The per-layer latency breakdown (``repro stats``, the bench
``BENCH_*.json`` artifacts) is only as complete as the spans on the
query path. In modules marked ``# zipg: query-api``:

* every public query/update method (``get_*``, ``find_*``, ``has_*``,
  ``append_*``, ``delete_*``, ``update_*``) must be span-wrapped --
  decorated with ``@obs.traced(...)`` or opening a ``with
  obs.span(...)`` block; and
* every ``executor.map`` fan-out call site must sit inside a
  span-wrapped function, otherwise the per-shard spans it opens
  attach to whatever span happens to be current in the caller's
  caller, mis-attributing the fan-out's time.

A method that is intentionally untraced (a trivial delegation whose
own span would only add overhead) opts out with ``# zipg: span-free``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import AnalysisContext, Finding, FunctionRecord, rule
from repro.analysis.rules.common import call_name

#: Method-name prefixes of Table 1's query/update surface.
QUERY_METHOD_RE = re.compile(r"^(get|find|has|append|delete|update)_")


def _is_span_call(node: ast.expr) -> bool:
    """``obs.span(...)`` / ``tracer.span(...)`` / bare ``span(...)``."""
    return isinstance(node, ast.Call) and call_name(node) == "span"


def _is_traced_decorator(node: ast.expr) -> bool:
    """``@obs.traced(...)`` / ``@traced`` (with or without arguments)."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "traced"
    if isinstance(target, ast.Name):
        return target.id == "traced"
    return False


def _span_wrapped(record: FunctionRecord) -> bool:
    """Whether the function is covered by a span."""
    if any(_is_traced_decorator(d) for d in record.node.decorator_list):
        return True
    for node in ast.walk(record.node):
        if isinstance(node, ast.With) and any(
            _is_span_call(item.context_expr) for item in node.items
        ):
            return True
    return False


def _is_executor_map(node: ast.Call) -> bool:
    """``<...>.executor.map(...)`` / ``executor.map(...)`` call sites."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "map"):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "executor"
    if isinstance(receiver, ast.Name):
        return receiver.id == "executor"
    return False


@rule(
    "OBS001",
    "public query methods and executor.map fan-outs in query-api "
    "modules must be span-wrapped (obs.traced / obs.span)",
)
def check_query_path_spans(context: AnalysisContext) -> Iterator[Finding]:
    for module in context.modules:
        if not module.markers.module_has("query-api"):
            continue
        for record in module.functions:
            if (
                record.class_name is not None
                and not record.nested
                and QUERY_METHOD_RE.match(record.name)
                and not record.has_directive("span-free")
                and not _span_wrapped(record)
            ):
                yield Finding(
                    "OBS001",
                    f"query method '{record.qualname}' is not "
                    f"span-wrapped -- its latency is invisible to the "
                    f"per-layer breakdown (decorate with obs.traced or "
                    f"mark '# zipg: span-free')",
                    module.path,
                    record.node.lineno,
                )
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _is_executor_map(node)):
                continue
            record = module.enclosing_function(node.lineno)
            if (
                record is None
                or record.has_directive("span-free")
                or _span_wrapped(record)
            ):
                continue
            yield Finding(
                "OBS001",
                f"executor.map fan-out in '{record.qualname}' runs "
                f"outside any span -- shard spans will attach to the "
                f"wrong parent (wrap the call or mark "
                f"'# zipg: span-free')",
                module.path,
                node.lineno,
            )
