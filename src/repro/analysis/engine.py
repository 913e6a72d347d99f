"""Rule engine: module model, rule registry, suppression, reporting.

A rule is a function ``(AnalysisContext) -> Iterable[Finding]``
registered with the :func:`rule` decorator.  The engine parses every
``.py`` file under the requested paths once, builds the shared
:class:`AnalysisContext` (module ASTs, marker indexes, function spans,
and a lazily-built call graph), runs each registered rule, and filters
findings through the ``# zipg: ignore[RULE]`` suppression machinery.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.markers import (
    Directive,
    MarkerIndex,
    function_directives,
    index_markers,
)


class Severity(Enum):
    """Finding severity; only errors affect the exit code."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    message: str
    path: str
    line: int
    severity: Severity = Severity.ERROR

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.severity.value}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "severity": self.severity.value,
        }


@dataclass
class FunctionRecord:
    """One function, method or coroutine in a scanned module."""

    module: "ModuleInfo"
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    qualname: str
    class_name: Optional[str]
    nested: bool = False  # defined inside another function's body

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualkey(self) -> str:
        """Globally unique key: ``<module>:<qualname>``."""
        return f"{self.module.name}:{self.qualname}"

    @property
    def start_line(self) -> int:
        """First physical line of the definition, decorators included."""
        decorators = [d.lineno for d in self.node.decorator_list]
        return min(decorators + [self.node.lineno])

    @property
    def end_line(self) -> int:
        return self.node.end_lineno or self.node.lineno

    def directives(self) -> List[Directive]:
        return function_directives(
            self.module.markers,
            self.module.lines,
            self.node.lineno,
            decorator_line=self.start_line,
        )

    def has_directive(self, name: str) -> bool:
        return any(d.name == name for d in self.directives())

    def directive_args(self, name: str) -> List[str]:
        args: List[str] = []
        for directive in self.directives():
            if directive.name == name:
                args.extend(directive.args)
        return args


@dataclass
class ModuleInfo:
    """A parsed module plus everything rules need to inspect it."""

    path: str
    name: str
    source: str
    lines: List[str]
    tree: ast.Module
    markers: MarkerIndex
    functions: List[FunctionRecord] = field(default_factory=list)
    classes: List[ast.ClassDef] = field(default_factory=list)
    _statement_spans: Optional[List[Tuple[int, int]]] = None

    @property
    def is_hot(self) -> bool:
        """Module opted into the hot-path kernel lint."""
        return self.markers.module_has("hot-path")

    @property
    def is_public_api(self) -> bool:
        """Module subject to the public-API hygiene rules."""
        if self.markers.module_has("public-api"):
            return True
        return self.name.startswith(("repro.core.", "repro.succinct."))

    @property
    def is_core_layout(self) -> bool:
        """Module subject to the reserved-byte layout rule: anything in
        ``repro.core`` or importing the delimiter constants."""
        if self.name.startswith("repro.core."):
            return True
        return any(
            isinstance(node, ast.ImportFrom)
            and node.module == "repro.core.delimiters"
            for node in ast.walk(self.tree)
        )

    def enclosing_function(self, line: int) -> Optional[FunctionRecord]:
        """Innermost function whose span (decorators included) contains
        ``line``."""
        best: Optional[FunctionRecord] = None
        for record in self.functions:
            if record.start_line <= line <= record.end_line:
                if best is None or record.start_line >= best.start_line:
                    best = record
        return best

    def statement_span(self, line: int) -> Tuple[int, int]:
        """Physical span of the innermost statement containing ``line``.

        Simple statements span their full (possibly multi-line) extent;
        compound statements (``if``/``with``/``for``/``def``...)
        contribute only their header lines, so a suppression marker on
        the last line of a block never silences the whole block.
        """
        if self._statement_spans is None:
            spans: List[Tuple[int, int]] = []
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                end = node.end_lineno or node.lineno
                body = getattr(node, "body", None)
                if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                    # Compound statement: header only.
                    first_body = min(child.lineno for child in body)
                    end = max(node.lineno, first_body - 1) if (
                        first_body > node.lineno
                    ) else node.lineno
                spans.append((node.lineno, end))
            self._statement_spans = sorted(spans)
        best = (line, line)
        best_size = None
        for start, end in self._statement_spans:
            if start <= line <= end:
                size = end - start
                if best_size is None or size <= best_size:
                    best, best_size = (start, end), size
        return best

    def delimiter_imports(self) -> List[str]:
        """Names imported from ``repro.core.delimiters``."""
        names: List[str] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.core.delimiters":
                names.extend(alias.asname or alias.name for alias in node.names)
        return names


@dataclass
class AnalysisContext:
    """Everything the rules see: all scanned modules plus shared
    lazily-built indexes (the call graph lives in
    :mod:`repro.analysis.callgraph` and is attached on first use)."""

    modules: List[ModuleInfo]
    _callgraph: Optional[object] = None

    def module_by_name(self, name: str) -> Optional[ModuleInfo]:
        for module in self.modules:
            if module.name == name or module.name.endswith("." + name):
                return module
        return None

    def each_function(self) -> Iterator[FunctionRecord]:
        for module in self.modules:
            yield from module.functions

    def each_class(self) -> Iterator[Tuple[ModuleInfo, ast.ClassDef]]:
        for module in self.modules:
            for node in module.classes:
                yield module, node

    def callgraph(self) -> "object":
        if self._callgraph is None:
            from repro.analysis.callgraph import CallGraph

            self._callgraph = CallGraph.build(self)
        return self._callgraph


RuleFunction = Callable[[AnalysisContext], Iterable[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    description: str
    severity: Severity
    run: RuleFunction


_REGISTRY: Dict[str, RuleSpec] = {}


def rule(
    rule_id: str, description: str, severity: Severity = Severity.ERROR
) -> Callable[[RuleFunction], RuleFunction]:
    """Register a rule function under ``rule_id``."""

    def decorator(fn: RuleFunction) -> RuleFunction:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = RuleSpec(rule_id, description, severity, fn)
        return fn

    return decorator


def all_rules() -> List[RuleSpec]:
    _load_builtin_rules()
    return [spec for _, spec in sorted(_REGISTRY.items())]


def _load_builtin_rules() -> None:
    import repro.analysis.rules  # noqa: F401  (registers on import)


# ----------------------------------------------------------------------
# Module loading
# ----------------------------------------------------------------------


def _module_name(path: str) -> str:
    """Dotted module name: rooted at ``repro`` when the path contains
    the package, the bare stem otherwise (fixture files)."""
    normalized = os.path.normpath(os.path.abspath(path))
    parts = normalized.split(os.sep)
    if "repro" in parts:
        tail = parts[parts.index("repro") :]
        tail[-1] = os.path.splitext(tail[-1])[0]
        if tail[-1] == "__init__":
            tail.pop()
        return ".".join(tail)
    return os.path.splitext(os.path.basename(path))[0]


def load_module(path: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    module = ModuleInfo(
        path=path,
        name=_module_name(path),
        source=source,
        lines=lines,
        tree=tree,
        markers=index_markers(lines),
    )
    _index_definitions(module)
    return module


def _index_definitions(module: ModuleInfo) -> None:
    """Populate the function/class tables (with class qualification)."""

    def visit(node: ast.AST, class_name: Optional[str], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                module.classes.append(child)
                visit(child, child.name, in_function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{class_name}.{child.name}" if class_name else child.name
                module.functions.append(
                    FunctionRecord(module, child, qual, class_name, in_function)
                )
                visit(child, class_name, True)
            else:
                visit(child, class_name, in_function)

    visit(module.tree, None, False)


def collect_files(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return files


# ----------------------------------------------------------------------
# Suppression + top-level driver
# ----------------------------------------------------------------------


def _suppressed(finding: Finding, module: ModuleInfo) -> bool:
    markers = module.markers
    # A marker on any physical line of the enclosing statement counts:
    # multi-line calls and parenthesized expressions put the natural
    # marker position (end of the statement) lines away from the AST
    # anchor the rule reported.
    start, end = module.statement_span(finding.line)
    for line in range(start, end + 1):
        if markers.line_suppresses(line, finding.rule_id):
            return True
    record = module.enclosing_function(finding.line)
    if record is not None and any(
        d.suppresses(finding.rule_id) for d in record.directives()
    ):
        return True
    return any(d.suppresses(finding.rule_id) for d in markers.module_directives)


def analyze_paths(
    paths: List[str],
    rule_ids: Optional[List[str]] = None,
) -> Tuple[List[Finding], AnalysisContext]:
    """Run the registered rules over ``paths``.

    Returns the (suppression-filtered, sorted) findings plus the
    context so callers (tests, the CLI) can introspect what was
    scanned.
    """
    specs = all_rules()
    if rule_ids is not None:
        unknown = set(rule_ids) - {spec.rule_id for spec in specs}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        specs = [spec for spec in specs if spec.rule_id in rule_ids]

    modules = [load_module(path) for path in collect_files(paths)]
    context = AnalysisContext(modules)
    by_path = {module.path: module for module in modules}

    findings: List[Finding] = []
    for spec in specs:
        for finding in spec.run(context):
            module = by_path.get(finding.path)
            if module is not None and _suppressed(finding, module):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings, context
