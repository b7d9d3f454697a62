"""Loading directories of suite-spec documents.

A suite directory holds one JSON document per file, ``<name>.json``.
The registry enforces the hygiene that keeps golden files trustworthy:

* the file stem must equal the spec's ``name`` (so the golden file, the
  spec file, and the report all agree on identity);
* duplicate names are rejected;
* a ``.yaml``/``.yml`` file is refused by name, never skipped: a spec
  that silently did not run would pass its golden check;
* iteration order is sorted by name, independent of filesystem order.

:func:`paper_spec` loads one of the paper's own documents, which ship
with the package so ``cebinae-repro <experiment>`` needs no checkout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Union

from .spec import SpecError, SuiteSpec

#: The extension of a suite document.
SPEC_EXTENSION = ".json"

#: Extensions that look like suite documents and are refused.
_YAML_EXTENSIONS = (".yaml", ".yml")

#: The paper's evaluation as suite documents, shipped as package data:
#: Table 2's rows, Figures 1 and 7-12 and section 5.5.
PAPER_DIR = Path(__file__).resolve().parent.parent / "experiments" / "paper"


def load_spec_file(path: Union[str, Path]) -> SuiteSpec:
    """Parse one spec document, enforcing stem == spec name."""
    path = Path(path)
    if path.suffix in _YAML_EXTENSIONS:
        raise SpecError(
            f"{path}: suite documents are JSON; rewrite this YAML "
            f"file as {path.stem}{SPEC_EXTENSION}")
    if path.suffix != SPEC_EXTENSION:
        raise SpecError(
            f"{path}: unrecognised spec extension {path.suffix!r}; "
            f"expected {SPEC_EXTENSION}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except ValueError as exc:
        raise SpecError(f"{path}: not parseable: {exc}") from exc
    spec = SuiteSpec.from_dict(document, source=str(path))
    if spec.name != path.stem:
        raise SpecError(
            f"{path}: spec name {spec.name!r} must match the file "
            f"stem {path.stem!r} (golden files are keyed by name)")
    return spec


def paper_names() -> List[str]:
    """The names of the paper's documents, sorted."""
    return sorted(path.stem for path in PAPER_DIR.glob(f"*{SPEC_EXTENSION}"))


def paper_spec(name: str) -> SuiteSpec:
    """One of the paper's documents by name (``figure9``,
    ``table2_row03``)."""
    path = PAPER_DIR / f"{name}{SPEC_EXTENSION}"
    if not path.is_file():
        raise SpecError(f"unknown paper document {name!r}; known: "
                        f"{paper_names()}")
    return load_spec_file(path)


class SuiteRegistry:
    """An ordered collection of suite specs loaded from one directory."""

    def __init__(self, specs: List[SuiteSpec]) -> None:
        self._specs: Dict[str, SuiteSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise SpecError(
                    f"duplicate suite spec name {spec.name!r}")
            self._specs[spec.name] = spec
        self._order = sorted(self._specs)

    @classmethod
    def from_directory(cls, directory: Union[str, Path]
                       ) -> "SuiteRegistry":
        directory = Path(directory)
        if not directory.is_dir():
            raise SpecError(f"{directory}: not a suite directory")
        paths = sorted(path for path in directory.iterdir()
                       if (path.suffix == SPEC_EXTENSION
                           or path.suffix in _YAML_EXTENSIONS)
                       and path.is_file())
        if not paths:
            raise SpecError(
                f"{directory}: no spec files (*{SPEC_EXTENSION}) found")
        return cls([load_spec_file(path) for path in paths])

    def __iter__(self) -> Iterator[SuiteSpec]:
        return (self._specs[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def get(self, name: str) -> SuiteSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise SpecError(
                f"unknown suite spec {name!r}; known: "
                f"{self._order}") from None

    @property
    def names(self) -> List[str]:
        return list(self._order)
