"""Findings and the ``# simlint: allow[ID] reason`` suppression
machinery of :mod:`repro.analysis.linter`: parse the comments, drop the
findings they cover (marking each comment used), and audit the comments
themselves (S9xx).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional

from .rules import RULES

_SUPPRESSION_RE = re.compile(
    r"#\s*simlint:\s*allow\[([A-Za-z0-9,\s]+)\]\s*(.*)$")


@dataclass
class Finding:
    """One analyzer finding, renderable as ``file:line rule message``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Last line of the flagged node; an allow-comment on any line of
    #: a multi-line statement suppresses it.
    end_line: Optional[int] = None

    @property
    def hint(self) -> str:
        return RULES[self.rule_id].hint

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} " \
               f"{self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "name": RULES[self.rule_id].name,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class Suppression:
    """One ``# simlint: allow[IDs] reason`` comment."""

    line: int
    rule_ids: FrozenSet[str]
    reason: str
    used: bool = False


def collect_suppressions(source: str) -> List[Suppression]:
    """Parse every allow-comment out of one module's source text."""
    suppressions: List[Suppression] = []
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        ids = frozenset(
            part.strip() for part in match.group(1).split(",")
            if part.strip())
        suppressions.append(Suppression(
            line=token.start[0], rule_ids=ids,
            reason=match.group(2).strip()))
    return suppressions


def apply_suppressions(findings: List[Finding],
                       suppressions: List[Suppression]) -> List[Finding]:
    """Drop suppressed findings, marking the suppressions used (the
    ``used`` flags are what :func:`audit` reads for S902)."""
    by_line: Dict[int, List[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.line, []).append(suppression)
    kept: List[Finding] = []
    for finding in findings:
        last = finding.end_line or finding.line
        suppressed = False
        for line in range(finding.line, last + 1):
            for suppression in by_line.get(line, ()):
                if finding.rule_id in suppression.rule_ids:
                    suppression.used = True
                    suppressed = True
        if not suppressed:
            kept.append(finding)
    return kept


def audit(suppressions: List[Suppression], path: str) -> List[Finding]:
    """The S9xx suppression-hygiene pass over one file's comments.

    * S901 — an allow-comment with no reason.  Reasons are mandatory
      for every family (D1xx/H3xx): they are the determinism
      audit trail.
    * S902 — an allow-comment that matched no finding.
    * S903 — an allow-comment naming a rule ID that is not in the
      catalog (usually a typo, which would otherwise silently turn
      the comment into a stale S902).
    """
    audit_findings: List[Finding] = []
    for suppression in suppressions:
        if not suppression.reason:
            audit_findings.append(Finding(
                path=path, line=suppression.line, col=1,
                rule_id="S901",
                message="suppression without a reason: "
                        "'# simlint: allow[ID] <reason>'"))
        unknown = sorted(
            rule_id for rule_id in suppression.rule_ids
            if rule_id not in RULES)
        if unknown:
            audit_findings.append(Finding(
                path=path, line=suppression.line, col=1,
                rule_id="S903",
                message=f"allow[{','.join(unknown)}] names no known "
                        f"rule (see --list-rules)"))
        if not suppression.used:
            ids = ",".join(sorted(suppression.rule_ids))
            audit_findings.append(Finding(
                path=path, line=suppression.line, col=1,
                rule_id="S902",
                message=f"allow[{ids}] matches no finding on "
                        f"this statement"))
    return audit_findings
