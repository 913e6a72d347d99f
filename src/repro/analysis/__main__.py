"""Command-line driver: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 when any ERROR-severity finding survives
suppression, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.engine import Severity, all_rules, analyze_paths

DEFAULT_PATHS = ["src/repro"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="ZipG repo-specific static checker (lock discipline, "
        "race/deadlock/exception-flow analysis, byte-layout invariants, "
        "hot-path regressions, API hygiene).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=f"files or directories to scan (default: {DEFAULT_PATHS[0]})",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON list instead of text",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for spec in all_rules():
            print(f"{spec.rule_id} [{spec.severity.value}] {spec.description}")
        return 0

    rule_ids = None
    if options.rules:
        rule_ids = [part.strip() for part in options.rules.split(",") if part.strip()]

    try:
        findings, context = analyze_paths(options.paths, rule_ids)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2

    if options.json:
        print(json.dumps([finding.to_json() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        errors = sum(1 for f in findings if f.severity is Severity.ERROR)
        print(
            f"scanned {len(context.modules)} modules: "
            f"{len(findings)} finding(s), {errors} error(s)"
        )

    has_errors = any(f.severity is Severity.ERROR for f in findings)
    return 1 if has_errors else 0


if __name__ == "__main__":
    sys.exit(main())
