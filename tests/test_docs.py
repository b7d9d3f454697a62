"""Every file and name the docs point at exists.

A backticked ``*.py`` path in the prose documents, and any ``*.py``
path in the CI workflow, must name a file under the root by that suffix
(``core/lbf.py`` counts; globs and ``<n>`` placeholders are skipped),
and a backticked ``repro.<dotted>`` name must be a module or attribute
importable from ``src``.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MARKDOWN = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md"]
WORKFLOW = ".github/workflows/ci.yml"
FENCED = re.compile(r"```.*?```", re.DOTALL)
SPAN = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.DOTALL)
PY_PATH = re.compile(r"(?<![\w/.*<>-])[\w./-]+\.py\b")
DOTTED = re.compile(r"repro(?:\.\w+)+")
FILES = ["/" + path.relative_to(ROOT).as_posix()
         for path in ROOT.rglob("*.py")]


def importable(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", MARKDOWN + [WORKFLOW])
def test_every_pointer_resolves(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    # The workflow is YAML: every path in it counts, quoted or not.
    spans = [text] if doc == WORKFLOW else \
        [span for _, span in SPAN.findall(FENCED.sub("", text))]
    paths = {path for span in spans for path in PY_PATH.findall(span)}
    names = {span for span in spans if DOTTED.fullmatch(span)}
    gone = [path for path in sorted(paths)
            if not any(name.endswith("/" + path.lstrip("./"))
                       for name in FILES)]
    gone += [name for name in sorted(names) if not importable(name)]
    assert not gone, f"{doc} names what does not exist: {gone}"
