"""The ``simlint`` command-line driver.

Exposed two ways: ``python tools/simlint.py <paths>`` and
``cebinae-repro lint <paths>``.  Exit codes: 0 clean, 1 findings,
2 usage error (a path that does not exist, or paths that hold no
Python file) — so CI can gate on it directly.
Output is text, or the finding list as JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .findings import Finding
from .linter import iter_python_files, lint_paths
from .rules import RULES


def _render_text(findings: List[Finding], file_count: int,
                 checked_paths: List[str]) -> str:
    lines = []
    for finding in findings:
        lines.append(finding.render())
        lines.append(f"    hint: {finding.hint}")
    noun = "finding" if len(findings) == 1 else "findings"
    files = "file" if file_count == 1 else "files"
    lines.append(f"simlint: {len(findings)} {noun} in {file_count} "
                 f"{files} under {', '.join(checked_paths)}")
    return "\n".join(lines)


def _render_rules() -> str:
    lines = ["simlint rule catalog:"]
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(f"  {rule_id} {rule.name:<20} {rule.summary}")
        lines.append(f"       fix: {rule.hint}")
    lines.append("suppress inline with: # simlint: allow[ID] <reason>")
    return "\n".join(lines)


def _usage_error(message: str) -> int:
    print(f"simlint: error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="Determinism and hygiene static analysis for the "
                    "Cebinae reproduction (rules: D1xx determinism, "
                    "H3xx hygiene, S9xx suppression hygiene).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array (for CI)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_render_rules())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return _usage_error("no paths given")

    try:
        files = list(iter_python_files(args.paths))
    except FileNotFoundError as exc:
        return _usage_error(str(exc))
    if not files:
        return _usage_error("no Python files under "
                            + ", ".join(args.paths))

    findings = lint_paths(files)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        print(_render_text(findings, len(files), args.paths))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
