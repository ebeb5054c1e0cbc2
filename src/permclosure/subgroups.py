"""Exhaustive subgroup enumeration of small symmetric groups, the survey
of nontrivial closures at degree up to 6, and chain-length statistics.

Enumeration works up to conjugacy, on lex ranks throughout: a subgroup
is its sorted rank array, and products come from S_n's multiplication
table by rank.  From the trivial group, each class representative is
extended by one prime-power element at a time; subgroups are generated by
such elements, so this reaches every class.  A new class's members are the
distinct sorted rank rows of its first group conjugated by all n!
permutations at once (``perm._conjugate_ranks``, an n! * |G| matrix that
bounds the design to the supported degrees).  One index from every
member's rank tuple to its class finds repeats, answers ``class_of`` and
names the survey rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .budgets import Budgets, resolve
from .catalog import survey_candidates
from .closure import closure_chain, galois_closure
from .data import load_reference_table
from .errors import UsageError
from .perm import (
    PermGroup,
    Permutation,
    _conjugate_ranks,
    _lex_ranks,
    _symmetric_rows,
)

__all__ = [
    "SubgroupClass",
    "SubgroupCatalog",
    "all_subgroups",
    "chain_length_census",
    "ChainCensus",
    "Table1Row",
    "Table1Report",
    "table1_report",
    "reference_table_rows",
]

EXPECTED_TOTALS = {1: 1, 2: 2, 3: 6, 4: 30, 5: 156, 6: 1455}
EXPECTED_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 19, 6: 56}


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups: a canonical representative and
    every member, as its sorted lex ranks among the permutations of the
    degree, members in lexicographic order."""

    order: int
    class_size: int
    representative: PermGroup
    _members: tuple[tuple[int, ...], ...]

    def member_groups(self, degree: int) -> tuple[PermGroup, ...]:
        rows, _ = _symmetric_rows(range(1, degree + 1), degree)
        return tuple(_group_of_ranks(rows, m) for m in self._members)


@dataclass(frozen=True)
class SubgroupCatalog:
    degree: int
    classes: tuple[SubgroupClass, ...]
    total_subgroups: int
    # every member's rank tuple, mapped to its class
    _index: dict[tuple[int, ...], SubgroupClass] = field(compare=False, repr=False)

    def all_groups(self) -> tuple[PermGroup, ...]:
        """Every individual subgroup, not just class representatives."""
        return tuple(g for cls in self.classes for g in cls.member_groups(self.degree))

    def class_of(self, group: PermGroup) -> SubgroupClass:
        # ranks alone cannot tell the degrees apart
        cls = self._index.get(tuple(group._ranks.tolist())) if group.degree == self.degree else None
        if cls is None:
            raise LookupError("group is not a subgroup at this degree")
        return cls


def _group_of_ranks(sn_rows: np.ndarray, ranks: tuple[int, ...]) -> PermGroup:
    """The group whose elements are the permutations of the given sorted
    ranks, picked from the lex-ordered rows of the symmetric group."""
    idx = np.array(ranks, dtype=np.int64)
    return PermGroup._build(sn_rows.shape[1], sn_rows[idx], None, None, idx)


def _is_prime_power(m: int) -> bool:
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
    return True  # m itself is prime beyond the small list at these scales


_catalog_cache: dict[int, SubgroupCatalog] = {}


def _span(mul: np.ndarray, base: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Sorted ranks of the group generated by the sorted ranks ``base`` and
    the generator ranks ``gens``, which also generate base: a breadth-first
    closure under right multiplication over a mask of all n! ranks.  Every
    ``PermGroup`` is built by Dimino's algorithm (``perm._dimino_extend``);
    this exists only for enumeration, where all of S_n (n <= 6) fits in a 720-row table."""
    member = np.zeros(len(mul), dtype=bool)
    member[base] = True
    frontier = base
    while len(frontier):
        before = member.copy()
        member[mul[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(member > before)
    return np.flatnonzero(member)


def all_subgroups(
    n: int, budgets: Budgets | None = None, _extension_order: str = "forward"
) -> SubgroupCatalog:
    """All subgroups of the symmetric group of degree n, up to conjugacy.

    Supported for n up to 6.  Raises BudgetExceeded up front when the
    materialization bound is below n!, as the spans reach S_n itself.
    ``_extension_order`` reverses the candidate scan; the result must not
    depend on it (checked in the test suite).
    """
    if not 1 <= n <= 6:
        raise UsageError("subgroup enumeration is supported for degree 1..6")
    resolve(budgets).check("materialization", math.factorial(n))
    if _extension_order == "forward" and n in _catalog_cache:
        return _catalog_cache[n]
    sn_rows, _ = _symmetric_rows(range(1, n + 1), n)  # row r has lex rank r
    mul = np.empty((len(sn_rows), len(sn_rows)), dtype=np.int16)
    for a, row in enumerate(sn_rows):
        mul[a] = _lex_ranks(row[sn_rows])  # rank of a.b, applying b first
    pp_elements = [
        r for r, img in enumerate(sn_rows.tolist())
        if _is_prime_power(Permutation._raw(tuple(img)).order)
    ]
    if _extension_order == "reversed":
        pp_elements.reverse()

    classes: list[SubgroupClass] = []
    index: dict[tuple[int, ...], SubgroupClass] = {}

    def register(ranks: np.ndarray, gens: list[int]) -> bool:
        if tuple(ranks.tolist()) in index:
            return False
        gen_tuples = tuple(map(tuple, sn_rows[gens].tolist()))
        group = PermGroup._build(n, sn_rows[ranks], gen_tuples, None, ranks)
        members = tuple(map(tuple, _conjugate_ranks(group).tolist()))
        rep = _group_of_ranks(sn_rows, members[0])
        cls = SubgroupClass(len(ranks), len(members), rep, members)
        classes.append(cls)
        index.update(dict.fromkeys(members, cls))
        return True

    trivial = np.zeros(1, dtype=np.intp)
    register(trivial, [])
    # each pending base keeps the short generator list it was grown from
    pending: list[tuple[np.ndarray, list[int]]] = [(trivial, [])]
    while pending:
        base, base_gens = pending.pop()
        covered = np.zeros(len(mul), dtype=bool)
        covered[base] = True
        for x in pp_elements:
            if covered[x]:
                continue
            gens = base_gens + [x]
            grown = _span(mul, base, np.array(gens))
            if register(grown, gens):
                pending.append((grown, gens))
            # the whole left coset x.base generates the same subgroup
            covered[mul[x, base]] = True

    classes.sort(key=lambda c: (c.order, c.class_size, c._members[0]))
    catalog = SubgroupCatalog(n, tuple(classes), sum(c.class_size for c in classes), index)
    if catalog.total_subgroups != EXPECTED_TOTALS[n]:
        raise AssertionError(
            f"enumeration found {catalog.total_subgroups} subgroups at degree {n}, "
            f"expected {EXPECTED_TOTALS[n]}"
        )
    if _extension_order == "forward":
        _catalog_cache[n] = catalog
    return catalog


# ---------------------------------------------------------------------------
# chain-length statistics


@dataclass(frozen=True)
class ChainCensus:
    degree: int
    histogram: dict[int, int]
    max_distinct: int
    class_count: int

    def summary_dict(self) -> dict:
        return {
            "degree": self.degree,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "max_distinct": self.max_distinct,
            "class_count": self.class_count,
        }


def chain_length_census(
    n: int, budgets: Budgets | None = None
) -> ChainCensus:
    """For every subgroup class of degree n, the number of distinct groups
    in its closure chain, histogrammed."""
    catalog = all_subgroups(n, budgets=budgets)
    hist: dict[int, int] = {}
    for cls in catalog.classes:
        rep = closure_chain(cls.representative, budgets=budgets)
        hist[rep.distinct_count] = hist.get(rep.distinct_count, 0) + 1
    return ChainCensus(n, hist, max(hist) if hist else 1, len(catalog.classes))


# ---------------------------------------------------------------------------
# the closure survey at degree up to 6


@dataclass(frozen=True)
class Table1Row:
    degree: int
    largest_k: int
    group_name: str
    closure_name: str
    group_order: int
    closure_order: int
    class_size: int

    def as_text(self) -> str:
        return (
            f"{self.degree} | {self.largest_k} | {self.group_name} | {self.closure_name}"
        )

    def summary_dict(self) -> dict:
        return {
            "degree": self.degree,
            "largest_k": self.largest_k,
            "group": self.group_name,
            "closure": self.closure_name,
            "group_order": self.group_order,
            "closure_order": self.closure_order,
            "class_size": self.class_size,
        }


@dataclass(frozen=True)
class Table1Report:
    reference_rows: tuple[Table1Row, ...]
    extra_rows: tuple[Table1Row, ...]
    missing_reference: tuple[tuple[int, int, str, str], ...]
    matches_reference: bool
    wall_time: float

    def summary_dict(self, include_timing: bool = False) -> dict:
        out = {
            "reference_rows": [r.summary_dict() for r in self.reference_rows],
            "additional_rows": [r.summary_dict() for r in self.extra_rows],
            "missing_reference": [list(m) for m in self.missing_reference],
            "matches_reference": self.matches_reference,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


def reference_table_rows() -> tuple[tuple[int, int, str, str], ...]:
    """The embedded reference survey: fixed-point-free subgroup classes of
    degree at most 6 that are not closed at alphabet size 2, with the
    largest alphabet size still not closed and the common closure."""
    return load_reference_table()


def table1_report(budgets: Budgets | None = None) -> Table1Report:
    """Recompute the survey of nontrivial closures for degrees 2..6 and
    align it with the embedded reference rows.

    Rows cover the subgroup classes without fixed points whose closure at
    alphabet size 2 is proper.  Classes matching a reference row are
    emitted in reference order; anything beyond the reference appears
    under ``extra_rows``.  The closure shown is the one at the largest
    non-closed alphabet size; at these degrees it coincides with the
    closure at every smaller alphabet size (asserted)."""
    t0 = time.perf_counter()
    by_key: dict[tuple[int, int, str, str], Table1Row] = {}
    for n in range(2, 7):
        catalog = all_subgroups(n, budgets=budgets)
        names: dict[tuple[int, ...], list[str]] = {}
        for name, cand in survey_candidates(n):
            names.setdefault(catalog.class_of(cand)._members[0], []).append(name)
        for cls in catalog.classes:
            rep = cls.representative
            if len(rep.ground_set) != n:
                continue  # fixed points: the class lives at a smaller degree
            chain = closure_chain(rep, budgets=budgets)
            if chain.largest_nonclosed_k is None:
                continue
            closure = galois_closure(rep, chain.largest_nonclosed_k, budgets=budgets)
            for entry in chain.entries:
                if entry.closure.order != rep.order and entry.closure != closure:
                    raise AssertionError(
                        "closure varies along the chain; survey format assumes one"
                    )
            key = (
                n, chain.largest_nonclosed_k,
                _match_name(cls, names), _match_name(catalog.class_of(closure), names),
            )
            if key in by_key:
                raise AssertionError(f"two survey rows share the key {key}")
            by_key[key] = Table1Row(*key, rep.order, closure.order, cls.class_size)

    reference = reference_table_rows()
    matched: list[Table1Row] = []
    missing: list[tuple[int, int, str, str]] = []
    used: set[tuple[int, int, str, str]] = set()
    for ref in reference:
        row = by_key.get(ref)
        if row is None:
            missing.append(ref)
        else:
            matched.append(row)
            used.add(ref)
    extras = sorted(
        (row for key, row in by_key.items() if key not in used),
        key=lambda r: (r.degree, r.largest_k, r.group_name),
    )
    report = Table1Report(
        tuple(matched),
        tuple(extras),
        tuple(missing),
        not missing,
        time.perf_counter() - t0,
    )
    return report


def _match_name(cls: SubgroupClass, names: dict[tuple[int, ...], list[str]]) -> str:
    """The one survey name of the class; ``names`` is keyed by first members."""
    hits = names.get(cls._members[0], [])
    if len(hits) == 1:
        return hits[0]
    if not hits:
        return f"unrecognized (order {cls.order})"
    raise AssertionError(f"ambiguous naming: {hits}")
