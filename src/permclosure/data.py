"""Loaders for the packaged expected-results data files.

The ``data/`` directory ships two plain-text files:

* ``closure_table_deg_le6.txt`` is the reference list of non-closed
  transitive-support groups of degree at most 6 together with their closures.
* ``orbit_equiv_classes.txt`` records the expected orbit-equivalence classes
  over a 2-letter alphabet for the cataloged primitive groups.

The named groups themselves are defined by generator builders in
:mod:`permclosure.catalog`, not stored here.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files

from .errors import ParseError

__all__ = [
    "load_reference_table",
    "load_expected_equiv_classes",
]


def _read_data_text(name: str) -> str:
    return (files("permclosure") / "data" / name).read_text(encoding="utf-8")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


@lru_cache(maxsize=1)
def load_reference_table() -> tuple[tuple[int, int, str, str], ...]:
    """Reference survey rows as ``(degree, largest_k, group, closure)``.

    Rows are returned in file order.  Each row names a group with no fixed
    points whose alphabet-size chain is not constant, the largest alphabet
    size at which it differs from its closure, and that closure.
    """
    rows = []
    for lineno, line in _content_lines(_read_data_text("closure_table_deg_le6.txt")):
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise ParseError("expected 'degree | k | group | closure'", line=lineno)
        try:
            degree, largest_k = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("degree and k must be integers", line=lineno) from None
        if not parts[2] or not parts[3]:
            raise ParseError("empty group name", line=lineno)
        rows.append((degree, largest_k, parts[2], parts[3]))
    if not rows:
        raise ParseError("reference table is empty")
    return tuple(rows)


@lru_cache(maxsize=1)
def load_expected_equiv_classes() -> dict[int, tuple[tuple[str, ...], ...]]:
    """Expected 2-letter orbit-equivalence classes, keyed by degree.

    Each value is a tuple of classes; each class is a tuple of catalog
    names.  Singleton classes are listed explicitly, so the union over one
    degree is exactly the primitive survey list for that degree.
    """
    table: dict[int, tuple[tuple[str, ...], ...]] = {}
    for lineno, line in _content_lines(_read_data_text("orbit_equiv_classes.txt")):
        head, _, rest = line.partition("|")
        try:
            degree = int(head.strip())
        except ValueError:
            raise ParseError("expected 'degree | classes'", line=lineno) from None
        if degree in table:
            raise ParseError(f"duplicate degree {degree}", line=lineno)
        classes = []
        for chunk in rest.split(";"):
            names = tuple(chunk.split())
            if not names:
                raise ParseError("empty equivalence class", line=lineno)
            classes.append(names)
        flat = [n for cls in classes for n in cls]
        if len(set(flat)) != len(flat):
            raise ParseError("a group appears in two classes", line=lineno)
        table[degree] = tuple(classes)
    return table
