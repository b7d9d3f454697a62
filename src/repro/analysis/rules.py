"""The simlint rule catalog.

Every rule the analyzer can emit is declared here with a stable ID, a
one-line summary, and a fix-it hint.  IDs are grouped by series:

* **D1xx — determinism.**  Anything that can make a simulation
  differ between a run and its deterministic replay in another process
  (PYTHONHASHSEED-dependent hashing, unseeded randomness, wall-clock
  reads, set-iteration order leaking into ordered state), visible
  within one module.
* **H3xx — hygiene.**  Python pitfalls that corrupt engine state
  (mutable default arguments, locals shadowing module-level names).
* **S9xx — suppression hygiene.**  Problems with the
  ``# simlint: allow[...]`` comments themselves.
* **E9xx — analyzer errors** (unparseable files).

The catalog is data, not behaviour: the matching logic lives in
:mod:`repro.analysis.linter`, keyed by these IDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: a stable ID plus its documentation."""

    rule_id: str
    name: str
    summary: str
    hint: str

    @property
    def series(self) -> str:
        """The rule family letter (D, H, S, E)."""
        return self.rule_id[0]


_RULES = (
    Rule(
        "D101", "builtin-hash",
        "builtin hash() is PYTHONHASHSEED-randomised per process",
        "use FlowId.stable_hash() (CRC32 of the canonical repr) or "
        "another keyed, process-independent digest",
    ),
    Rule(
        "D102", "unseeded-rng",
        "unseeded or global random number generator",
        "construct random.Random(seed) / numpy.random.default_rng(seed) "
        "with an explicit seed and thread it through the call chain",
    ),
    Rule(
        "D103", "wall-clock",
        "host-clock read inside simulation code",
        "simulation logic must use Simulator.now_ns; genuine host-side "
        "timing (CLI progress, profiling) should use time.monotonic() "
        "and carry '# simlint: allow[D103] <reason>'",
    ),
    Rule(
        "D104", "set-order",
        "iteration over a set in an order-sensitive position",
        "sort at the boundary (sorted(s) or sorted(s, key=repr)) before "
        "the order can reach scheduling, membership updates, or reports",
    ),
    Rule(
        "H301", "mutable-default",
        "mutable default argument is shared across calls",
        "default to None and create the list/dict/set inside the "
        "function body",
    ),
    Rule(
        "H302", "shadowed-name",
        "local assignment shadows a module-level name or core builtin",
        "rename the local; shadowing engine helpers (seconds, Event, "
        "...) or builtins silently changes later lookups in the same "
        "scope",
    ),
    Rule(
        "S901", "bare-suppression",
        "suppression comment has no reason",
        "write '# simlint: allow[ID] <why this site is safe>' — the "
        "reason is part of the determinism audit trail",
    ),
    Rule(
        "S902", "unused-suppression",
        "suppression comment matches no finding",
        "delete the stale allow[...] comment (or fix its rule ID) so "
        "suppressions stay in sync with the code",
    ),
    Rule(
        "S903", "unknown-suppression-id",
        "suppression comment names a rule ID not in the catalog",
        "fix the typo in allow[...]; an unknown ID suppresses nothing "
        "and silently rots",
    ),
    Rule(
        "E901", "syntax-error",
        "file could not be parsed",
        "fix the syntax error; unparseable files are not analyzed",
    ),
)

#: The rule catalog, keyed by ID.
RULES: Dict[str, Rule] = {rule.rule_id: rule for rule in _RULES}

#: IDs of rules that scan source; S9xx/E9xx are emitted by the driver.
CHECKER_RULE_IDS = tuple(
    rule_id for rule_id in RULES if rule_id[0] in "DH")
