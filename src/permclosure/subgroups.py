"""Exhaustive subgroup enumeration of small symmetric groups, the survey
of nontrivial closures at degree up to 6, and chain-length statistics.

Enumeration works up to conjugacy, on lex ranks throughout: a subgroup is
its sorted rank array, and every group operation is a lookup in S_n's
tables by rank (``_tables``): the multiplication table ``mul``, the
inverses read off it, and the powers and order of every element.  ``mul``
is filled by a breadth-first walk from the identity over the generators
(0 1) and (0 1 ... n-1) of S_n: row s.p is row p mapped through the left
multiplication by s, as (s.p).b = s.(p.b), so each row is one gather.
From the trivial group, each class is extended from its first group by
one prime-power element at a time; subgroups are generated by such
elements, and extensions of conjugate groups are conjugate, so this
reaches every class.  A new class's members are the distinct rows of
sort(mul[mul[:, H], inv]), two table gathers: row s holds the ranks of
s.H.s^-1, and the rows equal to H give the normalizer N(H).
One index from every member's rank tuple to its class finds repeats,
answers ``class_of`` and names the survey rows.

Once a base B has been extended by x, the scan of B skips every y in
B.{v x^j v^-1 : v in N(B), j prime to ord(x)}.B, since <B, y> is then
conjugate to <B, x>, whose class is known (the skip rule of Neubueser's
cyclic extension method; Holt, Eick & O'Brien, Handbook of Computational
Group Theory, 2005).  The proof takes three lines:

- <B, b1.y.b2> = <B, y> for b1, b2 in B;
- <B, x^j> = <B, x> for j prime to ord(x), as x is a power of x^j;
- <B, v.y.v^-1> = v.<B, y>.v^-1 for v in N(B), a group of the same class.

At degree 6 this leaves 524 spans for the 56 classes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .budgets import Budgets, resolve
from .catalog import survey_candidates
from .closure import closure_chain, galois_closure
from .data import load_reference_table
from .errors import UsageError
from .perm import PermGroup, _distinct_rows, _lex_ranks, _symmetric_rows

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


class _Tables(NamedTuple):
    """S_n by lex rank: ``mul[a, b]`` is the rank of a.b, applying b first,
    ``inv[a]`` that of a^-1, ``powers[j, a]`` that of a^j for j up to the
    exponent of S_n, and ``order[a]`` the order of a."""

    mul: np.ndarray
    inv: np.ndarray
    powers: np.ndarray
    order: np.ndarray


def _tables(sn_rows: np.ndarray) -> _Tables:
    """The tables of the lex-ordered rows of S_n.  ``mul`` is filled by a
    breadth-first walk from the identity over the generators s = (0 1) and
    (0 1 ... n-1): since (s.p).b = s.(p.b), row s.p is left_s[mul[p]], where
    left_s[r] is the rank of s.(row r).  So ``_lex_ranks`` runs once per
    generator on the n! rows, and each row of ``mul`` is one gather."""
    size, n = sn_rows.shape
    cycle = np.roll(np.arange(n), -1)
    swap = np.r_[1, 0, np.arange(2, n)] if n > 1 else cycle
    lefts = [_lex_ranks(s[sn_rows]).astype(np.int16) for s in (swap, cycle)]
    mul = np.empty((size, size), dtype=np.int16)
    # the identity has rank 0
    mul[0] = np.arange(size)
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while len(frontier):
        reached = []
        for left in lefts:
            # left is a permutation of the ranks, so q holds no repeats
            q = left[frontier]
            fresh = ~seen[q]
            q = q[fresh]
            seen[q] = True
            mul[q] = left[mul[frontier[fresh]]]
            reached.append(q)
        frontier = np.concatenate(reached)
    every = np.arange(size)
    powers = [np.zeros(size, dtype=np.intp), every]
    while powers[-1].any():
        powers.append(mul[powers[-1], every])
    powers = np.array(powers)
    return _Tables(mul, mul.argmin(axis=1), powers, (powers[1:] == 0).argmax(axis=0) + 1)


def _same_class_extensions(
    t: _Tables, base: np.ndarray, normalizer: np.ndarray, x: int
) -> np.ndarray:
    """The ranks, with repeats, of B.{v x^j v^-1 : v in N(B), j prime to
    ord(x)}.B, for the sorted ranks of a group B and of its normalizer
    N(B): every y in it gives <B, y> conjugate to <B, x> (the skip rule,
    proved in the module docstring)."""
    j = np.arange(1, t.order[x])
    xj = t.powers[j[np.gcd(j, t.order[x]) == 1], x]
    conjugates = _distinct(t.mul[t.mul[normalizer[:, None], xj], t.inv[normalizer, None]])
    left = _distinct(t.mul[base[:, None], conjugates])
    return t.mul[left[:, None], base]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` without its masked-array
    check, which imports ``numpy.ma`` (numpy 2.4)."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


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
    t = _tables(sn_rows)
    mul, inv = t.mul, t.inv
    pp_elements = [r for r, m in enumerate(t.order.tolist()) if _is_prime_power(m)]
    if _extension_order == "reversed":
        pp_elements.reverse()

    classes: list[SubgroupClass] = []
    index: dict[tuple[int, ...], SubgroupClass] = {}

    def register(ranks: np.ndarray) -> np.ndarray | None:
        """Record the class of the group with these sorted ranks and return
        the ranks of its normalizer; None if the class is known."""
        if tuple(ranks.tolist()) in index:
            return None
        # row s holds the sorted ranks of s.H.s^-1
        conj = np.sort(mul[mul[:, ranks], inv[:, None]], axis=1)
        normalizer = np.flatnonzero((conj == ranks).all(axis=1))
        members = tuple(map(tuple, _distinct_rows(conj).tolist()))
        rep = _group_of_ranks(sn_rows, members[0])
        cls = SubgroupClass(len(ranks), len(members), rep, members)
        classes.append(cls)
        index.update(dict.fromkeys(members, cls))
        return normalizer

    trivial = np.zeros(1, dtype=np.intp)
    # each pending base keeps the short generator list it was grown from
    # and its normalizer
    pending: list[tuple[np.ndarray, list[int], np.ndarray]] = [
        (trivial, [], register(trivial))
    ]
    while pending:
        base, base_gens, normalizer = pending.pop()
        covered = np.zeros(len(mul), dtype=bool)
        covered[base] = True
        for x in pp_elements:
            if covered[x]:
                continue
            gens = base_gens + [x]
            grown = _span(mul, base, np.array(gens))
            grown_normalizer = register(grown)
            if grown_normalizer is not None:
                pending.append((grown, gens, grown_normalizer))
            covered[_same_class_extensions(t, base, normalizer, x)] = True

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
