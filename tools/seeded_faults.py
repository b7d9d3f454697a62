#!/usr/bin/env python3
"""Seeded-fault audit: which layer catches each single-point fault.

Each ``FAULTS`` row changes one expression (a unit conversion, U-*, or a
determinism guard, D-*) and is applied alone to a temp copy of the tree,
where CI's lint command and its two ``suite --golden`` commands then run
(about 100 s in all).  ``--tier1`` also runs ``pytest -x -q`` (less
test_simlint.py, which repeats the lint column) where the goldens pass,
up to 4 min a fault.  Prints DESIGN.md section 8's table; exits 1 only
if some ``old`` no longer occurs exactly once (the table has rotted).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tools", "benchmarks", "examples", "tests")
_SER = "size_bytes * 8 * SECOND / self.rate_bps"
_GAP = "(MSS_BYTES + HEADER_BYTES) * 8 * SECOND / rate_bps"
_DURATION = "duration_ns = seconds(spec.duration_s)"
_CACHED = "            self._ser_delay_cache[size_bytes] = cached\n"
_WALL = ("\n    def _wall_jitter_ns(self) -> int:\n        import time\n"
         "        return int(time.time() * 1e6) % 1000 * 1000\n")

#: (id, file under src/repro, old, new); ``old`` occurs exactly once.
FAULTS = (
    ("U-a", "netsim/link.py", _SER, "size_bytes * SECOND / self.rate_bps"),
    ("U-b", "netsim/link.py", f"int(round({_SER}))", _SER),
    ("U-c", "core/params.py", "* 8 * SECOND / rate_bps))\n        vdt_ns",
     "* SECOND / rate_bps))\n        vdt_ns"),
    ("U-d", "tcp/socket.py", f"int({_GAP})", _GAP),
    ("U-e", "tcp/socket.py", _GAP, _GAP.replace("* 8 ", "")),
    ("U-f", "core/lbf.py", "= capacity_bps / 8.0", "= capacity_bps"),
    ("U-g", "core/lbf.py", "_dt_sec = params.dt_ns / SECOND",
     "_dt_sec = params.dt_ns"),
    ("U-h", "core/control_plane.py",
     "window_sec = params.recompute_interval_ns / SECOND",
     "window_sec = params.recompute_interval_ns"),
    ("U-i", "netsim/engine.py", "return int(round(value * SECOND))",
     "return value * SECOND"),
    ("U-j", "experiments/runner.py", _DURATION,
     "duration_ns = spec.duration_s"),
    ("U-k", "experiments/runner.py", _DURATION,
     "span = spec.duration_s\n    duration_ns = span"),
    ("U-l", "experiments/runner.py",
     "start_time_ns=seconds(plan.start_time_s)",
     "start_time_ns=plan.start_time_s"),
    ("U-m", "tcp/socket.py", "delivered * 8 * SECOND / interval_ns",
     "delivered * SECOND / interval_ns"),
    ("U-n", "tcp/socket.py", "max(4 * self.rttvar_ns, MILLISECOND)",
     "max(4 * self.rttvar_ns, 1)"),
    ("U-o", "experiments/runner.py", "seconds(policy.measure_s) // 2",
     "policy.measure_s // 2"),
    ("U-q", "core/control_plane.py", "= qdisc.rate_bps / 8.0",
     "= qdisc.rate_bps"),
    ("D-a", "core/perflow.py", "in sorted(removed):", "in removed:"),
    ("D-b", "core/perflow.py", "in sorted(top)}", "in top}"),
    ("D-c", "fairness/maxmin.py", "in sorted(finished, key=repr):",
     "in finished:"),
    ("D-d", "netsim/fq_codel.py", "return flow.stable_hash() %",
     "return hash(flow) %"),
    ("D-e", "netsim/node.py", "random.Random(\n            seed if seed "
     "is not None else self.node_id)", "random.Random()"),
    ("D-f", "netsim/link.py", "        return cached\n",
     "        return cached\n" + _WALL),
    ("D-g", "netsim/link.py", _CACHED + "        return cached\n",
     "            cached += self._wall_jitter_ns()\n" + _CACHED
     + "        return cached\n" + _WALL),
)


def mutated(fault):
    """(relative path, faulted text) of one row; ``ValueError`` unless
    its ``old`` occurs exactly once in the file."""
    fault_id, rel, old, new = fault
    path = Path("src", "repro", rel)
    text = (ROOT / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{fault_id}: {old!r} occurs {text.count(old)} "
                         f"times in {path}, not once")
    return path, text.replace(old, new)


def _python(work, *argv, **env):
    env = dict(os.environ, PYTHONPATH="src", **env)
    return subprocess.run([sys.executable, *argv], cwd=work, env=env,
                          capture_output=True, text=True)


def simlint(work):
    done = _python(work, "tools/simlint.py", "--json", "src", "tools",
                   "benchmarks")
    rules = {finding["rule"] for finding in json.loads(done.stdout)}
    return " + ".join(sorted(rules)) or "-"


def goldens(work):
    for suite in ("tier1", "workloads"):
        if _python(work, "-m", "repro.suite.cli", f"examples/suites/{suite}",
                   "--golden", "tests/golden", "--workers", "2",
                   "--no-cache", REPRO_DEBUG="1").returncode:
            return "fail"
    return "pass"


def rest_of_tier1(work):
    done = _python(work, "-m", "pytest", "-x", "-q", "tests",
                   "--ignore=tests/test_simlint.py")
    if done.returncode == 0:
        return "pass"
    failed = re.search(r"^FAILED tests/(\w+)", done.stdout, re.M)
    return f"fail ({failed.group(1)})" if failed else "fail"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true",
                        help="also run pytest -x -q where the goldens pass")
    args = parser.parse_args(argv)
    try:
        edits = [mutated(fault) for fault in FAULTS]
    except ValueError as exc:
        print(f"seeded_faults: {exc}", file=sys.stderr)
        return 1
    layout = "{:<4} {:<22} {:<8} {:<8} {}"
    print(layout.format("id", "file", "simlint", "goldens", "rest of tier-1"))
    skip = shutil.ignore_patterns("__pycache__", ".*")
    for (fault_id, rel, _, _), (path, text) in zip(FAULTS, edits):
        with tempfile.TemporaryDirectory(prefix="seeded-fault-") as tmp:
            for tree in TREES:
                shutil.copytree(ROOT / tree, Path(tmp, tree), ignore=skip)
            Path(tmp, path).write_text(text, encoding="utf-8")
            lint, golden = simlint(tmp), goldens(tmp)
            run_rest = args.tier1 and golden == "pass"
            rest = rest_of_tier1(tmp) if run_rest else ""
        print(layout.format(fault_id, rel, lint, golden, rest), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
