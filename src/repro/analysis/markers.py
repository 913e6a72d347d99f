"""``# zipg:`` marker comments: the checker's in-source vocabulary.

Markers let the code under analysis declare intent the AST alone cannot
express.  The grammar is one comment per line::

    # zipg: <directive> <directive> ...

where each directive is a bare word (``hot-path``, ``scalar-ok``,
``public-api``) or a bracketed word (``ignore[LOCK001,HOT002]``,
``layout-writer[edge-record]``, ``layout-parser[edge-record]``).

Placement rules (enforced by :mod:`repro.analysis.engine`):

* module directives (``hot-path``, ``public-api``, ``query-api``)
  must be a standalone comment line anywhere in the file;
* function directives (``scalar-ok``, ``span-free``,
  ``layout-writer``, ``layout-parser``, function-wide ``ignore``) go
  on the ``def`` line or in the comment block immediately above it;
* line directives (``ignore``) go at the end of the offending line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_MARKER_RE = re.compile(r"#\s*zipg:\s*(?P<body>.+?)\s*$")
_DIRECTIVE_RE = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_-]*)(?:\[(?P<args>[^\]]*)\])?")

#: Directives that apply to the whole module.
MODULE_DIRECTIVES = frozenset(
    {
        "hot-path",
        "public-api",
        "query-api",
        "robust-path",
        "cache-backed",
        # Mutations in this module follow a single-writer protocol
        # (e.g. per-thread AccessStats counters merged under a lock):
        # RACE001 skips its unlocked writes.
        "single-writer",
        # This module IS the typed-exception codec: EXC001 reads the
        # registered exception names from it.
        "exception-registry",
    }
)
#: Directives that attach to the enclosing/following function.
FUNCTION_DIRECTIVES = frozenset(
    {
        "scalar-ok",
        "layout-writer",
        "layout-parser",
        "ignore",
        "span-free",
        # Entry point of the RPC dispatch surface: EXC001 roots its
        # raisable-exception walk at functions marked this way.
        "rpc-entry",
    }
)


@dataclass(frozen=True)
class Directive:
    """One parsed marker directive, e.g. ``ignore[LOCK001]``."""

    name: str
    args: Tuple[str, ...] = ()

    def suppresses(self, rule_id: str) -> bool:
        """Whether this directive suppresses findings of ``rule_id``."""
        return self.name == "ignore" and (not self.args or rule_id in self.args)


@dataclass
class MarkerIndex:
    """All ``# zipg:`` directives of one module, indexed by line."""

    by_line: Dict[int, List[Directive]] = field(default_factory=dict)
    module_directives: List[Directive] = field(default_factory=list)

    def at(self, line: int) -> List[Directive]:
        return self.by_line.get(line, [])

    def module_has(self, name: str) -> bool:
        return any(d.name == name for d in self.module_directives)

    def line_suppresses(self, line: int, rule_id: str) -> bool:
        return any(d.suppresses(rule_id) for d in self.at(line))


def parse_directives(comment_body: str) -> List[Directive]:
    """Parse the text after ``# zipg:`` into directives."""
    directives: List[Directive] = []
    for match in _DIRECTIVE_RE.finditer(comment_body):
        raw_args = match.group("args")
        args: Tuple[str, ...] = ()
        if raw_args is not None:
            args = tuple(a.strip() for a in raw_args.split(",") if a.strip())
        directives.append(Directive(match.group("name"), args))
    return directives


def _marker_body(line: str) -> Optional[str]:
    match = _MARKER_RE.search(line)
    return match.group("body") if match else None


def index_markers(lines: List[str]) -> MarkerIndex:
    """Scan source ``lines`` (1-indexed semantics) for markers."""
    index = MarkerIndex()
    for lineno, line in enumerate(lines, start=1):
        body = _marker_body(line)
        if body is None:
            continue
        directives = parse_directives(body)
        if not directives:
            continue
        index.by_line[lineno] = directives
        if line.lstrip().startswith("#"):  # standalone comment line
            for directive in directives:
                if directive.name in MODULE_DIRECTIVES:
                    index.module_directives.append(directive)
    return index


def function_directives(
    index: MarkerIndex,
    lines: List[str],
    def_line: int,
    decorator_line: Optional[int] = None,
) -> List[Directive]:
    """Directives attached to a function: those on the ``def`` line, on
    any decorator line (``decorator_line`` is the first decorator's
    line, from the AST -- this covers multi-line decorator calls whose
    continuation lines don't start with ``@``), plus the contiguous
    comment block immediately above the definition."""
    top = def_line if decorator_line is None else min(decorator_line, def_line)
    directives: List[Directive] = []
    for lineno in range(top, def_line + 1):
        directives.extend(index.at(lineno))
    lineno = top - 1
    while lineno >= 1 and lines[lineno - 1].lstrip().startswith(("#", "@")):
        directives.extend(index.at(lineno))
        lineno -= 1
    return directives
