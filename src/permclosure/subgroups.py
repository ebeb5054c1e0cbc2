"""Exhaustive subgroup enumeration of small symmetric groups, the survey
of nontrivial closures at degree up to 6, and chain-length statistics.

Enumeration works up to conjugacy, on lex ranks throughout: a subgroup is
its sorted rank array, and every group operation is a lookup in S_n's
tables by rank (``_tables``): the multiplication table ``mul``, the
inverses read off it, and the powers and order of every element.  ``mul``
is filled by a breadth-first walk from the identity over the generators
(0 1) and (0 1 ... n-1) of S_n: row s.p is row p mapped through the left
multiplication by s, as (s.p).b = s.(p.b), so each row is one gather.
One index from every member's rank tuple to its class finds repeats,
answers ``class_of`` and names the survey rows.

From the trivial group, each class is extended from its first group B by
one candidate at a time: a prime-power element y outside B whose p-th
power lies in B, p the prime of ord(y).  The candidates lose no class.
Every H > 1 is <M, x> for a maximal subgroup M of H and a candidate x of
M: take any h in H outside M; h is a product of powers of its prime-power
parts, so one of them, h_p, lies outside M; x is the last power
h_p^(p^i) still outside M, so x^p lies in M, and <M, x> = H as M is
maximal.  Every class serves as a base, and extensions of conjugate
groups are conjugate, so by induction on the order every class is reached
from the class of one of its maximal subgroups.

One labelling per base picks the candidates to span: ``_min_labels`` over
the n! ranks under maps that keep the class of <B, y>:

- y -> b.y and y -> y.b for generators b of B, as <B, b.y> = <B, y.b> = <B, y>;
- y -> v.y.v^-1 for generators v of N(B), as <B, v.y.v^-1> = v.<B, y>.v^-1;
- y -> y^j where j is prime to ord(y), for j = -1 and each prime j below
  the greatest element order, as y is then a power of y^j; these j
  generate every unit modulo ord(y).

Each map permutes S_n, so a label class is an orbit of the group the maps
generate, and all its candidates give one class of <B, y>: one span per
label class that holds a candidate, from its least, finds them all.  This
is the idea of the skip rule of Neubueser's cyclic extension method (Holt,
Eick & O'Brien, Handbook of Computational Group Theory, 2005), applied to
all of a base's candidates at once.

A new class of H = <gens> is registered without conjugating H by all n!
elements.  N(H) is every s with s.g.s^-1 in H for each g in gens, one
(n!, |gens|) gather, and the greedy rule extends gens to generators of
N(H).  s.H.s^-1 depends only on the left coset s.N(H), whose least element
is its label under right multiplication by those generators: the fixed
points of that labelling are a transversal, and the sorted conjugates by
it, lexsorted, are the class's members.  The representative is the least
member.  At degree 6 this takes 464 spans for the 56 classes: 385
extensions and 79 greedy steps.
"""

from __future__ import annotations

import functools
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
from .perm import PermGroup, _lex_ranks, _min_labels, _symmetric_rows

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


def _prime_of_power(m: int) -> int:
    """The prime p if m = p^a for some a >= 1, else 0."""
    for p in range(2, m + 1):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else 0
    return 0


def _span(mul: np.ndarray, base: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Sorted ranks of the group generated by the sorted ranks ``base`` and
    the generator ranks ``gens``, which also generate base: a breadth-first
    closure under right multiplication over a mask of all n! ranks.  A
    ``PermGroup`` from generators is built by Dimino's algorithm on image
    rows (``perm._Span``), and ``symmetric_on``, ``alternating_on`` and the
    products write their rows directly; this exists only for enumeration,
    where all of S_n (n <= 6) fits in a 720-row table."""
    member = np.zeros(len(mul), dtype=bool)
    member[base] = True
    frontier = base
    while len(frontier):
        before = member.copy()
        member[mul[frontier[:, None], gens]] = True
        frontier = (member > before).nonzero()[0]
    return member.nonzero()[0]


class _Tables(NamedTuple):
    """S_n by lex rank: ``mul[a, b]`` is the rank of a.b, applying b first,
    ``inv[a]`` that of a^-1, ``powers[j, a]`` that of a^j for j up to the
    exponent of S_n, ``order[a]`` the order of a, and ``prime[a]`` the
    prime p if that order is a power of p, else 0."""

    mul: np.ndarray
    inv: np.ndarray
    powers: np.ndarray
    order: np.ndarray
    prime: np.ndarray


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
    order = (powers[1:] == 0).argmax(axis=0) + 1
    prime = np.array([_prime_of_power(m) for m in range(order.max() + 1)])[order]
    return _Tables(mul, mul.argmin(axis=1), powers, order, prime)


def _normalizer(t: _Tables, ranks: np.ndarray, gens: list[int]) -> tuple[np.ndarray, list[int]]:
    """The sorted ranks of N(H), for the sorted ranks of a group H and
    generators ``gens`` of it, and the generators the greedy rule adds to
    ``gens`` to generate N(H).

    N(H) is every s with s.g.s^-1 in H for each g in ``gens``: one (n!,
    |gens|) gather.  The greedy rule scans N(H) in rank order and keeps each
    element outside the group generated so far, starting from H."""
    inside = np.zeros(len(t.mul), dtype=bool)
    inside[ranks] = True
    g = np.array(gens, dtype=np.intp)
    normalizer = inside[t.mul[t.mul[:, g], t.inv[:, None]]].all(axis=1).nonzero()[0]
    extra: list[int] = []
    span = ranks
    while len(span) < len(normalizer):
        inside[span] = True
        extra.append(int(normalizer[np.argmin(inside[normalizer])]))
        span = _span(t.mul, span, np.array(gens + extra))
    return normalizer, extra


def _extension_labels(
    t: _Tables, base: np.ndarray, base_gens: list[int], normalizer_gens: list[int],
    power_maps: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates for extending the group B with the sorted ranks
    ``base``, ascending, and their labels: candidates with equal labels give
    conjugate groups <B, y> (proved in the module docstring).

    ``base_gens`` generate B, ``normalizer_gens`` together with them
    generate N(B), and ``power_maps`` are the maps y -> y^j."""
    mul = t.mul
    in_base = np.zeros(len(mul), dtype=bool)
    in_base[base] = True
    maps = [mul[b] for b in base_gens] + [mul[:, b] for b in base_gens]
    maps += [mul[mul[v], t.inv[v]] for v in normalizer_gens]
    labels = _min_labels(len(mul), maps + power_maps)
    # prime-power elements y outside B with y^p in B, p the prime of ord(y)
    y_to_the_p = t.powers[t.prime, np.arange(len(mul))]
    candidates = (~in_base & (t.prime > 0) & in_base[y_to_the_p]).nonzero()[0]
    return candidates, labels[candidates]


def all_subgroups(n: int, budgets: Budgets | None = None) -> SubgroupCatalog:
    """All subgroups of the symmetric group of degree n, up to conjugacy.

    Supported for n up to 6.  Raises BudgetExceeded up front, on every
    call, when the materialization bound is below n!, as the spans reach
    S_n itself.  The catalog is enumerated once per degree and cached: it
    reads no budget past that check.
    """
    if not 1 <= n <= 6:
        raise UsageError("subgroup enumeration is supported for degree 1..6")
    resolve(budgets).check("materialization", math.factorial(n))
    return _enumerate(n, "forward")


@functools.lru_cache(maxsize=None)
def _enumerate(n: int, extension_order: str) -> SubgroupCatalog:
    """The catalog ``all_subgroups`` returns.  ``extension_order="reversed"``
    spans each label class from its greatest candidate instead of its
    least ("forward"); the result must not depend on it (checked in the
    test suite)."""
    sn_rows, _ = _symmetric_rows(range(1, n + 1), n)  # row r has lex rank r
    t = _tables(sn_rows)
    mul, inv = t.mul, t.inv
    size = len(mul)
    every = np.arange(size)
    # y -> y^j for j = -1 and each prime j below the greatest order, where j
    # is prime to ord(y); such j generate every unit modulo ord(y)
    power_maps = [inv] + [
        np.where(t.order % j, t.powers[j], every)
        for j in range(2, int(t.order.max())) if _prime_of_power(j) == j
    ]

    classes: list[SubgroupClass] = []
    index: dict[tuple[int, ...], SubgroupClass] = {}

    def register(ranks: np.ndarray, gens: list[int]) -> list[int] | None:
        """Record the class of the group H with these sorted ranks and
        generators; return the generators that generate N(H) with
        ``gens``, or None if the class is known."""
        if tuple(ranks.tolist()) in index:
            return None
        normalizer, extra = _normalizer(t, ranks, gens)
        # the least s of each left coset s.N(H) is its label under right
        # multiplication by N(H)'s generators, and s.H.s^-1 is the coset's
        # conjugate
        cosets = _min_labels(size, [mul[:, g] for g in gens + extra])
        s = (cosets == every).nonzero()[0]
        conj = np.sort(mul[mul[s[:, None], ranks], inv[s, None]], axis=1)
        members = tuple(map(tuple, conj[np.lexsort(conj.T[::-1])].tolist()))
        rep = _group_of_ranks(sn_rows, members[0])
        cls = SubgroupClass(len(ranks), len(members), rep, members)
        classes.append(cls)
        index.update(dict.fromkeys(members, cls))
        return extra

    trivial = np.zeros(1, dtype=np.intp)
    # each pending base keeps the short generator list it was grown from
    # and the generators its normalizer adds to them
    pending: list[tuple[np.ndarray, list[int], list[int]]] = [(trivial, [], register(trivial, []))]
    while pending:
        base, base_gens, normalizer_gens = pending.pop()
        candidates, labels = _extension_labels(t, base, base_gens, normalizer_gens, power_maps)
        if extension_order == "reversed":
            candidates, labels = candidates[::-1], labels[::-1]
        # a stable sort keeps the scan order within each label class, so
        # each run's first candidate is the class's least (greatest reversed)
        by_label = np.argsort(labels, kind="stable")
        candidates, labels = candidates[by_label], labels[by_label]
        first = np.ones(len(labels), dtype=bool)
        first[1:] = labels[1:] != labels[:-1]
        for x in candidates[first].tolist():
            gens = base_gens + [x]
            grown = _span(mul, base, np.array(gens))
            extra = register(grown, gens)
            if extra is not None:
                pending.append((grown, gens, extra))

    classes.sort(key=lambda c: (c.order, c.class_size, c._members[0]))
    catalog = SubgroupCatalog(n, tuple(classes), sum(c.class_size for c in classes), index)
    if catalog.total_subgroups != EXPECTED_TOTALS[n]:
        raise AssertionError(
            f"enumeration found {catalog.total_subgroups} subgroups at degree {n}, "
            f"expected {EXPECTED_TOTALS[n]}"
        )
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

    def summary_dict(self) -> dict:
        return {
            "reference_rows": [r.summary_dict() for r in self.reference_rows],
            "additional_rows": [r.summary_dict() for r in self.extra_rows],
            "missing_reference": [list(m) for m in self.missing_reference],
            "matches_reference": self.matches_reference,
        }


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
