"""repro.analysis: repo-specific static checks for the ZipG reproduction.

The compressed-store code is correct only while a set of conventions
hold that no general-purpose linter knows about: which locks guard
which shared state, which byte-layout constants the NodeFile/EdgeFile
writers and parsers must agree on (ZipG paper §3.3), which code paths
must never fall back to scalar NPA walks, and how the public API
surfaces errors. This package is an AST-based rule engine enforcing
those conventions on every commit:

* ``LOCK001``/``LOCK002`` -- lock discipline (see
  :mod:`repro.analysis.rules.locks`);
* ``LAYOUT001``/``LAYOUT002`` -- byte-layout invariants
  (:mod:`repro.analysis.rules.layout`);
* ``HOT001``/``HOT002`` -- hot-path kernel lint
  (:mod:`repro.analysis.rules.hotpath`);
* ``API001``/``API002`` -- API hygiene
  (:mod:`repro.analysis.rules.hygiene`).

The rule families above are a sample; ``--list-rules`` prints all
of them and ``docs/ANALYSIS.md`` documents each.

Run it as ``python -m repro.analysis [paths...]`` or ``repro check``:
one mode that scans the given paths, runs the rules (``--rules`` to
pick a subset), prints text or ``--json``, and exits 1 on any error.
Suppress a finding with a ``# zipg: ignore[RULE]`` comment; sanction a
deliberate scalar kernel with ``# zipg: scalar-ok``; see
``docs/ANALYSIS.md`` for the full marker vocabulary.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisContext,
    Finding,
    ModuleInfo,
    Severity,
    all_rules,
    analyze_paths,
    rule,
)

__all__ = [
    "AnalysisContext",
    "Finding",
    "ModuleInfo",
    "Severity",
    "all_rules",
    "analyze_paths",
    "rule",
]
