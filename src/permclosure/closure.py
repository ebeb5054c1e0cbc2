"""Galois closures of permutation groups over a bounded alphabet.

The closure of G at alphabet size k is the largest group with the same
orbits as G on k^n under the coordinate action; equivalently, all
permutations sigma such that every tuple lands inside its own G-orbit.
Three interchangeable algorithms are provided:

* ``closure_naive``   tests one permutation per left coset of G in the
  symmetric group against the orbits on all of k^n, so it rests on
  nothing below;
* ``closure_pruned``  searches only the product set stab(a*) . G for one
  well-chosen tuple a* (the most balanced value pattern), which provably
  contains the closure, one left coset of H = G ∩ stab(a*) in stab(a*)
  at a time, on the balanced class alone;
* ``closure_kearnes`` intersects the product sets stab(a) . G over
  representative tuples a, one per set partition of the coordinates into
  at most k classes.  x lies in stab(a) . G exactly when a o x lies in the
  orbit G.a, so each product set is a union of left cosets of G, tested
  one leader per coset without being built.  Oracle grade, bounded by the
  candidate budget.

All three agree exactly; the test suite checks that on a wide panel.
The permutations that keep a labelling form a group, and one containing
a subgroup S is a union of left cosets x.S.  So every search tests only
the least element of each coset, read off S's point-stabilizer chain
(``_chain_pairs``; Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005), in numpy batches: by ``_accepted_rows`` against orbit labels,
or in ``closure_kearnes`` against the orbits of single tuples.

The search is one job: list the leaders of the left cosets of a subgroup
H in a product of symmetric groups on blocks of points
(``_YoungSubgroup``), test them, and rebuild the closure from G and the
accepted ones (``_closure_of_cosets``: the materialization bound first,
then the greedy generators, then the rows).  The blocks are all n points
for ``closure_naive``, ``closure_kearnes``, ``invariance_group`` and
``min_codomain_report``, with H = G; the runs of a* for ``closure_pruned``,
with H = G ∩ stab(a*); and the point orbits for
``classify.wielandt_closure``, with H = G.

The balanced class decides.  The tuples of k^n in which each value occurs
a given number of times form one S_n-orbit, a content class; its content
is the partition of n that the multiplicities form, and classes of one
content are alike up to renaming values.  The balanced class is the class
of a*, content lambda* = ``balanced_sizes``.
For G <= L <= S_n, if G and L have the same orbits on the balanced class,
they have the same orbits on all of k^n:

* Maximal classes.  The coordinate action commutes with every value map
  f: [k] -> [k], so sigma.r in G.r gives sigma.(f o r) in G.(f o r).  Every
  tuple is f o r for some r with exactly min(k, n) distinct values, so
  the classes of contents with min(k, n) parts decide.
* The balanced class.  lambda* is dominated by every partition mu of n
  with at most k parts.  The number of G-orbits on the class of mu is the
  dimension of the G-fixed space of its permutation module M^mu over Q.
  By Young's rule M^mu is the sum of K_(nu,mu) copies of each Specht
  module S^nu, and Kostka numbers grow down the dominance order, so
  K_(nu,mu) <= K_(nu,lambda*) and there is an S_n-equivariant injection
  phi: M^mu -> M^lambda*.  phi carries G-fixed vectors to G-fixed
  vectors, which are L-fixed by hypothesis; injectivity makes the vector
  itself L-fixed.  So G and L have the same fixed vectors, hence orbits,
  on every class.  At k = 2 this is Livingstone and Wagner (Math. Z. 90,
  1965).

Hence sigma is in the closure exactly when it keeps every G-orbit of the
balanced class (take L = <G, sigma>), and G and H are orbit equivalent
exactly when their orbits on the balanced class agree (take L = <G, H>,
whose orbits there are the join of theirs).  ``closure_pruned``
therefore labels n!/prod(lambda*_v!) tuples, not k^n, through
``cached_orbit_partition(..., content=balanced_sizes(n, k))``, and
``orbit_equivalent`` decides there, by orbit counts for a nested pair.
``classify.wielandt_closure`` labels another class the same way, the hook
content (1^k, n-k) over k+1 letters, and tests its candidates with the same
``_accepted_rows``: there is one action and one kind of labelled set.
The full k^n partition stays in ``closure_naive``, the independent
oracle, and where a k^n table is an input or an output: ``orbit_coloring``,
``invariance_group``, ``min_codomain_report`` and ``is_k_thick``.

Derived conveniences: closure chains in k, orbit equivalence, thickness
certificates, invariance groups of concrete colorings, and the least
codomain size over which a closed group is an invariance group.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .budgets import Budgets, resolve
from .errors import DegreeMismatch, ParseError, UsageError
from .perm import (
    PermGroup,
    Permutation,
    _Span,
    _distinct_ranks,
    _greedy_span,
    _lex_permutations,
    _lex_ranks,
    _min_labels,
    _moved_points,
    _point_dtype,
    _run_starts,
    _symmetric_rows,
    format_perm,
    generate_group,
)
from .tuples import (
    ContentClass,
    TupleSpace,
    _orbit_ranks,
    _weights,
    balanced_sizes,
    cached_orbit_partition,
    orbit_count,
)

__all__ = [
    "ClosureReport",
    "ChainEntry",
    "ChainReport",
    "FunctionTable",
    "NotRepresentable",
    "MinCodomainReport",
    "closure_naive",
    "closure_pruned",
    "closure_kearnes",
    "galois_closure",
    "is_closed",
    "closure_chain",
    "closure_report",
    "orbit_equivalent",
    "is_k_thick",
    "invariance_group",
    "orbit_coloring",
    "min_codomain",
    "min_codomain_report",
    "clear_closure_cache",
]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ClosureReport:
    group: PermGroup
    k: int
    closure: PermGroup
    algorithm: str
    candidates_examined: int
    pruning_tuple: tuple[int, ...] | None
    wall_time: float

    @property
    def is_closed(self) -> bool:
        return self.closure.order == self.group.order

    def summary_dict(self) -> dict:
        return {
            "degree": self.group.degree,
            "k": self.k,
            "group_order": self.group.order,
            "closure_order": self.closure.order,
            "closed": self.is_closed,
            "algorithm": self.algorithm,
            "candidates_examined": self.candidates_examined,
            "pruning_tuple": list(self.pruning_tuple) if self.pruning_tuple else None,
            "group_generators": [format_perm(g) for g in self.group.generators],
            "closure_generators": [format_perm(g) for g in self.closure.generators],
        }


@dataclass(frozen=True)
class ChainEntry:
    k: int
    closure: PermGroup


@dataclass(frozen=True)
class ChainReport:
    """Closures of one group at every alphabet size from 2 up to its degree."""

    group: PermGroup
    entries: tuple[ChainEntry, ...]
    largest_nonclosed_k: int | None
    distinct_count: int

    def distinct_groups(self) -> tuple[PermGroup, ...]:
        seen: list[PermGroup] = []
        for e in self.entries:
            if e.closure not in seen:
                seen.append(e.closure)
        if self.group not in seen:
            seen.append(self.group)
        return tuple(seen)

    def summary_dict(self) -> dict:
        return {
            "degree": self.group.degree,
            "group_order": self.group.order,
            "entries": [
                {"k": e.k, "closure_order": e.closure.order,
                 "closed": e.closure.order == self.group.order}
                for e in self.entries
            ],
            "largest_nonclosed_k": self.largest_nonclosed_k,
            "distinct_count": self.distinct_count,
        }


# ---------------------------------------------------------------------------
# the membership test


# Most cells (tuple rows times candidates, or rows times arity) in any
# temporary array of the batched test.
_TEST_CELLS = 1 << 18
# Fewest cells in the first chunk of the test, which is still at least one
# tuple: below this a chunk costs more in per-call overhead than in work
# (timed on the closures of C_6, C_9, C_10 and PSL(2,8)).
_FIRST_CELLS = 1 << 13


def _accepted_rows(
    space: TupleSpace | ContentClass,
    labels: np.ndarray,
    runs: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Indices, ascending, of the candidate permutations whose coordinate
    action on the space preserves the labels.

    The candidates are a product over runs, blocks of points that cover
    the arity.  A run ``(points, perms, digits)`` maps its sorted points
    among themselves: candidate c sends points[j] to
    points[perms[digits[c], j]].  ``_YoungSubgroup.runs`` splits the
    indices of its elements into one run per block, so no image row is
    built for a candidate that fails.

    The test is of sigma^-1 in place of sigma.  Every permutation maps the
    space onto itself, so the permutations that keep the labels f form a
    group: if f(sigma.t) = f(t) for every t, then f(sigma^-1.t) =
    f(sigma.(sigma^-1.t)) = f(t).  A candidate and its inverse therefore
    get the same verdict.  Entry i of sigma^-1.t is t[sigma^-1(i)], so the
    key of sigma^-1.t, its index in alphabet^arity, weights digit j by
    ``weights[sigma(j)]``: a gather by the candidate's own images.

    Tuple 0 is never read.  A candidate permutes the space, so each label
    is taken as often as it is given; if it is kept at every other tuple,
    it is kept at tuple 0 too.  That tuple is the one every candidate of
    ``closure_pruned`` fixes, a* itself, and on all of k^n, (1, ..., 1).

    Candidates go in blocks against chunks of the other tuples, in order,
    and a candidate leaves at its first failing chunk.  The first chunk
    holds at most ``_FIRST_CELLS`` cells and at least one tuple, which is
    all it holds when candidates are many; most of them fail there.  Each
    later chunk doubles, up to ``_TEST_CELLS`` over the live candidates.

    Per chunk, each run's key table holds its part of the key for each
    tuple and each of its local rows, so a candidate's key is the sum of
    one gather per run.  Once the runs have as many local rows together as
    there are live candidates, as one run of all points has from the
    start, each candidate's weights are gathered once into a column of one
    table, and a chunk's keys are one product, a (tuples, candidates)
    table.  The labels are read at ``space.positions`` of the keys.  A
    block holds at most ``_TEST_CELLS`` / arity candidates, so the weights
    table stays within ``_TEST_CELLS`` too.  The keys are integer products,
    which are exact and, unlike floating-point ones, do not go through a
    multithreaded BLAS.
    """
    size, arity, weights = space.size, space.arity, space.weights
    count = len(runs[0][2])
    block = max(1, _TEST_CELLS // arity)
    kept = [np.empty(0, dtype=np.intp)]
    for start in range(0, count, block):
        alive = np.arange(start, min(start + block, count))
        live = [(points, perms, digits[start:start + block]) for points, perms, digits in runs]
        lo, rows = 1, max(1, _FIRST_CELLS // alive.size)
        while alive.size and lo < size:
            if live and sum(len(perms) for _, perms, _ in live) >= alive.size:
                # one local row per candidate: weigh all points at once
                moved = np.empty((arity, alive.size), dtype=weights.dtype)
                for points, perms, digits in live:
                    moved[points] = weights[points][perms[digits]].T
                live = []
            cap = max(1, _TEST_CELLS // max(alive.size, arity))
            hi = min(size, lo + min(rows, cap))
            tuples = space.rows(lo, hi)
            if live:
                keys = np.zeros((hi - lo, alive.size), dtype=np.intp)
                for points, perms, digits in live:
                    keys += np.take(tuples[:, points] @ weights[points][perms].T, digits, axis=1)
            else:
                keys = tuples @ moved
            at = space.positions(keys)
            del keys  # so that at most two (rows, candidates) arrays live at once
            ok = (labels[at] == labels[lo:hi, None]).all(axis=0).nonzero()[0]
            del at
            rows = 2 * (hi - lo)
            alive = alive[ok]
            if live:
                live = [(points, perms, digits[ok]) for points, perms, digits in live]
            else:
                moved = moved[:, ok]
            lo = hi
        kept.append(alive)
    return np.concatenate(kept)


def _chain_pairs(rows: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (i, j), j != i in the orbit of i under the stabilizer of
    0..i-1 in the group S of the rows.  x is least in x.S exactly when
    x(i) < x(j) at every pair: entry i of x.s is x(s(i)) and x is
    injective, so the first point s moves decides between x and x.s.  The
    chain stops once the stabilizer is the identity, which has no pairs."""
    n = rows.shape[1]
    pairs = []
    for i in range(n - 1):
        if len(rows) == 1:
            break
        orbit = np.bincount(rows[:, i], minlength=n).nonzero()[0]
        pairs.extend((i, j) for j in orbit.tolist() if j != i)
        rows = rows[rows[:, i] == i]
    return pairs


def _leading(rows: np.ndarray, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Which rows pass the ``_chain_pairs``: the least of their cosets."""
    keep = np.ones(len(rows), dtype=bool)
    for i, j in pairs:
        keep &= rows[:, i] < rows[:, j]
    return keep


class _YoungSubgroup:
    """The product of the symmetric groups on blocks of 0-based points that
    cover 0..degree-1: the stabilizer of a tuple whose value classes are
    the blocks.  Every closure search lists the leaders of a subgroup's
    left cosets in one: all points as one block, the runs of a*, or the
    point orbits.  Each search's materialization bound is charged here, m!
    for the largest block of m points, before any table is built.

    Elements are indexed by mixed-radix numbers whose digits, block by
    block, are the lex ranks (``_lex_permutations``) of their actions on
    the sorted points of each block.  When the blocks are consecutive runs
    in order, an element's index is its lexicographic rank."""

    __slots__ = ("degree", "order", "_blocks", "_perms")

    def __init__(self, blocks: Iterable[Sequence[int]], degree: int, b: Budgets):
        self.degree = degree
        self._blocks = [np.asarray(points, dtype=np.intp) for points in blocks]
        b.check("materialization", math.factorial(max(map(len, self._blocks))))
        self._perms = [_lex_permutations(len(points))[0] for points in self._blocks]
        self.order = math.prod(len(perms) for perms in self._perms)

    def coset_leaders(self, h_rows: np.ndarray) -> np.ndarray:
        """The indices, ascending, of the least element of each left coset
        of H, given by its rows, in this group.  H keeps each block, so each
        of its ``_chain_pairs`` lies in a block and screens that block's
        digits: the points are sorted, so x(i) < x(j) exactly when the
        local images of their places are in that order."""
        pairs = _chain_pairs(h_rows)
        index = np.zeros(1, dtype=np.intp)
        for points, perms in zip(self._blocks, self._perms):
            place = {p: a for a, p in enumerate(points.tolist())}
            local = [(place[i], place[j]) for i, j in pairs if i in place]
            kept = _leading(perms, local).nonzero()[0]
            # index holds the identity, 0, so it is [0] until a block keeps more
            index = kept if index.size == 1 else (index[:, None] * len(perms) + kept).ravel()
        return index

    def runs(self, index: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The elements of the given indices as runs (``_accepted_rows``):
        per block its points, its lex-ordered permutations, and each
        element's digit there."""
        digits = []
        rest = index
        for perms in reversed(self._perms[1:]):
            # floor division by a scalar is several times faster than divmod
            quotient = rest // len(perms)
            digits.append(rest - quotient * len(perms))
            rest = quotient
        digits.append(rest)  # indices are below the order, so this is a digit
        return list(zip(self._blocks, self._perms, reversed(digits)))

    def rows(self, index: np.ndarray) -> np.ndarray:
        """The elements of the given indices as 0-based image rows."""
        out = np.empty((index.size, self.degree), dtype=_point_dtype(self.degree))
        for points, perms, digits in self.runs(index):
            # gathered in the rows' dtype, not as intp (8 bytes a cell)
            out[:, points] = points.astype(out.dtype)[perms[digits]]
        return out


def _closure_of_cosets(group: PermGroup, leaders: np.ndarray, b: Budgets) -> PermGroup:
    """G with the left cosets x.G of the leaders x, lex-ordered least
    elements of cosets other than G.  The materialization bound is checked
    before any row is built.  The greedy generators are those of all its
    rows, G's own first, since the least of them outside a group
    containing G is a leader."""
    n = group.degree
    order = group.order * (len(leaders) + 1)
    b.check("materialization", order)
    gens = tuple(_greedy_extension(group, leaders, order, b))
    # the generators move what the union moves
    ground = sorted(set(group.ground_set) | _moved_points(gens)) or None
    if order == group.order:
        rows, ranks = group._rows, group._ranks
    elif order == math.factorial(n):
        rows, ranks = _symmetric_rows(range(1, n + 1), n)
    else:
        # x.G is x[g] over g in G, G applied first
        cosets = leaders[:, group._rows].reshape(-1, n)
        ranks, first = _distinct_ranks(np.concatenate([group._ranks, _lex_ranks(cosets)]))
        if len(ranks) != order:
            raise AssertionError("coset leaders repeat or meet the group")
        rows = np.concatenate([group._rows, cosets])[first]
    return PermGroup._build(n, rows, gens, ground, ranks)


def _greedy_extension(
    base: PermGroup, candidates: np.ndarray, order: int, b: Budgets
) -> list[tuple[int, ...]]:
    """The generators ``_greedy_span`` keeps when it scans base's
    generators, then the candidate rows (none in base), up to the order.

    The span of all of base's generators is base, so only proper prefixes
    need spanning, and its last generator is kept exactly when they fall
    short.  Those generators depend on base alone, so they are found once
    per group and kept on it: every span they build lies in base, so its
    charges are at most |base|, no more than the order the caller charged.
    While the span is base, a kept candidate spans the whole group when the
    index is prime (Lagrange), so no span is built.  Otherwise the span
    starts from base's rows and grows by the same Dimino step."""
    if base._greedy is None:
        base_gens = [g._img for g in base.generators]
        prefix, span = _greedy_span(base_gens[:-1], base.degree, b, base.order)
        if len(span) < base.order:
            prefix.append(base_gens[-1])
        base._greedy = tuple(prefix)
    gens = list(base._greedy)
    size, span = base.order, None
    for row in candidates.astype(_point_dtype(base.degree), copy=False):
        if size == order:
            break
        key = row.tobytes()
        if span is None:
            if _is_prime(order // size):
                gens.append(tuple(row.tolist()))
                size = order
                break
            span = _Span(base.degree, b, base._rows, gens)
        elif key in span.keys:
            continue
        span.extend(key)
        gens.append(tuple(row.tolist()))
        size = len(span)
    if size != order:
        raise AssertionError("generator candidates failed to span the closure")
    return gens


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % p for p in range(2, math.isqrt(m) + 1))


# ---------------------------------------------------------------------------
# the three algorithms


def _check_arguments(group: PermGroup, k: int) -> None:
    if k < 2:
        raise UsageError("alphabet size must be at least 2")
    if group.degree < 1:
        raise UsageError("degree must be at least 1")


def closure_naive(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> ClosureReport:
    """Reference algorithm: one test per left coset of G, on all of k^n."""
    _check_arguments(group, k)
    t0 = time.perf_counter()
    b = resolve(budgets)

    def labelled() -> tuple[TupleSpace, np.ndarray]:
        part = cached_orbit_partition(group, k, budgets=b)
        return part.space, part.labels

    closure = _preserving_group(group, labelled, b)
    return ClosureReport(
        group, k, closure, "naive", math.factorial(group.degree), None,
        time.perf_counter() - t0,
    )


def _preserving_group(
    base: PermGroup, labelled: Callable[[], tuple[TupleSpace, np.ndarray]], b: Budgets
) -> PermGroup:
    """Every permutation of base's degree whose coordinate action preserves
    the labels that ``labelled()`` returns with their space; base's own
    elements must preserve them, so the least element of each left coset
    of base in S_n, all points as one block, is tested.  The candidate
    budget and then the materialization bound are charged n! before the labels."""
    n = base.degree
    b.check("candidate", math.factorial(n))
    everything = _YoungSubgroup([range(n)], n, b)
    space, labels = labelled()
    leaders = everything.coset_leaders(base._rows)[1:]  # less the identity
    accepted = leaders[_accepted_rows(space, labels, everything.runs(leaders))]
    return _closure_of_cosets(base, everything.rows(accepted), b)


def closure_pruned(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> ClosureReport:
    """Search the product set stab(a*) . G for the balanced pattern a*.

    That set provably contains the closure, a union of left cosets of G.
    gamma in stab(a*) lies in an earlier coset gamma'.G exactly when it
    lies in gamma'.H, H = G ∩ stab(a*).  So the representatives are the
    least elements of the left cosets of H in stab(a*) other than H, in
    sorted order (``_YoungSubgroup.coset_leaders``).  The product set is
    never materialized, and ``candidates_examined`` is its size
    |G|.|stab(a*)|/|H|.  The representatives stay lexicographic ranks
    until they are accepted: ``_accepted_rows`` takes them as one digit
    per run of a* and tests them against G's orbits on the balanced class,
    which decide membership (module docstring), building no image row."""
    _check_arguments(group, k)
    t0 = time.perf_counter()
    b = resolve(budgets)
    n = group.degree
    sizes = balanced_sizes(n, k)
    a_star = tuple(v for v, m in enumerate(sizes, start=1) for _ in range(m))
    stab_order = math.prod(math.factorial(m) for m in sizes)
    b.check("materialization", stab_order)
    b.check("candidate", min(stab_order * group.order, math.factorial(n)))

    ends = list(itertools.accumulate(sizes))
    stab = _YoungSubgroup([np.arange(e - m, e) for m, e in zip(sizes, ends)], n, b)
    g_rows = group._rows
    # H = G ∩ stab(a*).  Per point, listing stab(a*) costs about 6 scanned rows
    # of G per element plus 1,500 once, so n drops out (timed on catalog groups)
    if group.order > 6 * stab.order + 1500:
        s_rows = stab.rows(np.arange(stab.order))
        s_ranks = _lex_ranks(s_rows)
        pos = np.minimum(np.searchsorted(group._ranks, s_ranks), group.order - 1)
        h_rows = s_rows[group._ranks[pos] == s_ranks]
    else:
        a = np.array(a_star, dtype=g_rows.dtype) - 1
        h_rows = g_rows[(a[g_rows] == a).all(axis=1)]
    reps = stab.coset_leaders(h_rows)[1:]

    passed = np.empty((0, n), dtype=g_rows.dtype)
    if len(reps):
        part = cached_orbit_partition(group, k, budgets=b, content=sizes)
        accepted = reps[_accepted_rows(part.space, part.labels, stab.runs(reps))]
        if len(accepted):
            passed = stab.rows(accepted)
    closure = _closure_of_cosets(group, passed, b)
    examined = group.order * (len(reps) + 1)
    return ClosureReport(
        group, k, closure, "pruned", examined, a_star, time.perf_counter() - t0
    )


def _set_partitions(n: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of {0..n-1} into at most max_blocks classes, as
    restricted growth strings (the class of each point, numbered by first
    appearance) in lexicographic order."""

    def rec(head: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(head) == n:
            yield head
            return
        for v in range(min(top + 2, max_blocks)):
            yield from rec(head + (v,), max(top, v))

    if n:
        yield from rec((0,), 0)


def closure_kearnes(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> ClosureReport:
    """Intersection of the product sets stab(a) . G over representative
    tuples, one per set partition of the coordinates into at most k classes.

    Oracle grade.  x lies in stab(a) . G exactly when a o x (entry i is
    a[x(i)]) lies in the orbit G.a: x = s.g with s in stab(a) gives
    a o x = a o g.  So each product set is a union of left cosets of G,
    and the intersection is tested, as ``closure_naive`` tests, on the
    least element of each left coset of G in S_n other than G.  The
    partitions come in order; a leader leaves at its first failing one,
    and the search stops when none is left, where the intersection is G.
    ``candidates_examined`` totals the product-set sizes |stab(a)|.|G.a|
    (orbit-stabilizer) over the partitions tried, and the candidate budget
    is charged n per such candidate, before each partition; the first one's
    stab(a) = S_n is the table the leaders are listed in."""
    _check_arguments(group, k)
    t0 = time.perf_counter()
    n = group.degree
    b = resolve(budgets)
    g_rows = group._rows
    leaders: np.ndarray | None = None
    examined = 0
    for classes in _set_partitions(n, min(k, n)):
        a = np.array(classes, dtype=g_rows.dtype)
        sizes = np.bincount(a).tolist()
        stab_order = math.prod(math.factorial(m) for m in sizes)
        b.check("candidate", n * (examined + min(stab_order * group.order, math.factorial(n))))
        if leaders is None:
            everything = _YoungSubgroup([range(n)], n, b)
            leaders = everything.rows(everything.coset_leaders(g_rows)[1:])  # less G
        # a o x in base len(sizes); a[leaders] is cast to the least dtype that
        # holds it, not to intp, which for C_10's leaders takes 29 MB
        w = _weights(n, len(sizes)).astype(np.min_scalar_type(len(sizes) ** n - 1))
        # sorted, not hashed as np.unique does: 3 ms, not 25, for 200,000 keys
        orbit = np.sort(a[g_rows] @ w)
        orbit = orbit[_run_starts(orbit)]
        examined += stab_order * len(orbit)
        leaders = leaders[np.isin(a[leaders] @ w, orbit)]
        if not len(leaders):
            break
    closure = _closure_of_cosets(group, leaders, b)
    return ClosureReport(
        group, k, closure, "kearnes", examined, None, time.perf_counter() - t0
    )


_ALGORITHMS = {
    "naive": closure_naive,
    "pruned": closure_pruned,
    "kearnes": closure_kearnes,
}


def closure_report(
    group: PermGroup,
    k: int,
    algorithm: str = "pruned",
    budgets: Budgets | None = None,
) -> ClosureReport:
    """Dispatch by algorithm name: naive, pruned, or kearnes."""
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {sorted(_ALGORITHMS)}")
    return _ALGORITHMS[algorithm](group, k, budgets=budgets)


# ---------------------------------------------------------------------------
# cached convenience layer


def galois_closure(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> PermGroup:
    """The closure itself, via the pruned algorithm, LRU-cached per (group,
    ground set, k, budgets): groups compare equal regardless of their
    ground sets, but the closure's ground set contains the group's, and a
    closure computed under one set of budgets does not answer a call that
    another would refuse."""
    return _closure(group, group.ground_set, k, resolve(budgets))


# table1 leaves 243 closures and the verify theorems 576: neither evicts
@functools.lru_cache(maxsize=1024)
def _closure(
    group: PermGroup, ground_set: tuple[int, ...], k: int, budgets: Budgets
) -> PermGroup:
    return closure_pruned(group, k, budgets=budgets).closure


def clear_closure_cache() -> None:
    _closure.cache_clear()


def is_closed(group: PermGroup, k: int, budgets: Budgets | None = None) -> bool:
    """Does the group already equal its closure at alphabet size k?"""
    return galois_closure(group, k, budgets=budgets).order == group.order


def closure_chain(
    group: PermGroup, budgets: Budgets | None = None
) -> ChainReport:
    """Closures at k = 2 .. degree.  The sequence is nonincreasing and
    stops at the group itself once k reaches the degree, so the first
    closure equal to the group is reused, the same object, for every
    larger k."""
    entries = []
    largest: int | None = None
    distinct: list[PermGroup] = []
    clo: PermGroup | None = None
    for k in range(2, group.degree + 1):
        if clo is None or clo.order != group.order:
            clo = galois_closure(group, k, budgets=budgets)
        entries.append(ChainEntry(k, clo))
        if clo.order != group.order:
            largest = k
        if clo not in distinct:
            distinct.append(clo)
    if group not in distinct:
        distinct.append(group)
    return ChainReport(group, tuple(entries), largest, len(distinct))


def orbit_equivalent(
    g: PermGroup, h: PermGroup, k: int, budgets: Budgets | None = None
) -> bool:
    """Same orbits on k^degree under the coordinate action, decided by the
    orbits on the balanced class (module docstring), whose size the tuple
    budget is charged.

    When the smaller group lies in the other, each of its orbits lies in
    one of the other's, so they agree exactly when they are equally many:
    two ``orbit_count``s, with no tuple labelled for a group no larger
    than the class.  Other pairs compare labelled partitions."""
    if k < 2:
        raise UsageError("alphabet must be at least 2")
    if g.degree != h.degree:
        raise DegreeMismatch("orbit equivalence requires equal degrees")
    content = balanced_sizes(g.degree, k)
    small, large = (g, h) if g.order <= h.order else (h, g)
    if small.is_subgroup_of(large):
        return orbit_count(small, k, content, budgets) == orbit_count(large, k, content, budgets)
    pg = cached_orbit_partition(g, k, budgets=budgets, content=content)
    ph = cached_orbit_partition(h, k, budgets=budgets, content=content)
    return pg.equals(ph)


def is_k_thick(
    h_group: PermGroup, k: int, budgets: Budgets | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Does every tuple over {1..k} on the ground set have a nontrivial
    stabilizing element in the group?  A tuple's stabilizer is trivial
    exactly when its orbit has |H| members, so k^m is labelled once, by the
    generators squeezed to the m points of the ground set.

    Returns (True, None) or (False, first_uncovered_tuple); the witness
    tuple's positions follow the sorted ground set."""
    omega = h_group.ground_set
    if not omega:
        raise UsageError("thickness on an empty ground set is undefined")
    space = TupleSpace(len(omega), k, budgets=budgets)
    pos = {p: i for i, p in enumerate(omega)}
    maps = [space.coordinate_index_map(Permutation._raw(tuple(pos[g(q)] for q in omega)))
            for g in h_group.generators]
    labels = _min_labels(space.size, maps)
    free = (np.bincount(labels)[labels] == h_group.order).nonzero()[0]
    return (False, space.decode(int(free[0]))) if free.size else (True, None)


# ---------------------------------------------------------------------------
# concrete colorings


class FunctionTable:
    """A total function from k^n tuples to colors {1..m}."""

    __slots__ = ("n", "k", "m", "_vals", "_space")

    def __init__(
        self,
        n: int,
        k: int,
        m: int,
        values,
        default: int | None = None,
        budgets: Budgets | None = None,
    ):
        if n < 1 or k < 2 or m < 1:
            raise ValueError("need n >= 1, k >= 2, m >= 1")
        self.n = n
        self.k = k
        self.m = m
        self._space = TupleSpace(n, k, budgets=budgets)
        size = self._space.size
        if isinstance(values, Mapping):
            arr = np.full(size, -1 if default is None else default, dtype=np.int32)
            for key, v in values.items():
                arr[self._space.encode(key)] = v
            if default is None and np.any(arr == -1):
                missing = self._space.decode(int((arr == -1).nonzero()[0][0]))
                raise ValueError(f"table is not total: no value for {missing}")
        else:
            arr = np.asarray(values, dtype=np.int32)
            if arr.shape != (size,):
                raise ValueError(f"value array must have length {size}")
            arr = arr.copy()
        if np.any((arr < 1) | (arr > m)):
            bad = self._space.decode(int(((arr < 1) | (arr > m)).nonzero()[0][0]))
            raise ValueError(f"value outside 1..{m} at {bad}")
        self._vals = arr
        self._vals.setflags(write=False)

    @property
    def space(self) -> TupleSpace:
        return self._space

    @property
    def values_array(self) -> np.ndarray:
        return self._vals

    def value(self, a: Iterable[int]) -> int:
        return int(self._vals[self._space.encode(a)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionTable)
            and (self.n, self.k, self.m) == (other.n, other.k, other.m)
            and bool(np.array_equal(self._vals, other._vals))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FunctionTable(n={self.n}, k={self.k}, m={self.m})"

    # -- text format

    def to_text(self) -> str:
        lines = [f"{self.n} {self.k} {self.m}"]
        for t in range(self._space.size):
            tup = self._space.decode(t)
            lines.append(" ".join(str(v) for v in tup) + f" -> {self._vals[t]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, budgets: Budgets | None = None) -> "FunctionTable":
        """Parse the table format::

            # comment
            3 2 4
            default 1
            1 1 1 -> 2
            ...

        Header is ``n k m``; a ``default`` line makes the table total
        without listing every tuple."""
        header = None
        default = None
        entries: dict[tuple[int, ...], int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 3:
                    raise ParseError("header must be 'n k m'", line=lineno)
                try:
                    header = tuple(int(x) for x in parts)
                except ValueError:
                    raise ParseError("header must be three integers", line=lineno) from None
                continue
            if line.startswith("default"):
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError("default line must be 'default v'", line=lineno)
                try:
                    default = int(parts[1])
                except ValueError:
                    raise ParseError("default value must be an integer", line=lineno) from None
                continue
            if "->" not in line:
                raise ParseError("expected 'a_1 ... a_n -> v'", line=lineno)
            left, _, right = line.partition("->")
            try:
                tup = tuple(int(x) for x in left.split())
                val = int(right.strip())
            except ValueError:
                raise ParseError("entries must be integers", line=lineno) from None
            n, k, m = header
            if len(tup) != n:
                raise ParseError(f"tuple has {len(tup)} entries, expected {n}", line=lineno)
            if any(not 1 <= v <= k for v in tup):
                raise ParseError(f"tuple entries must lie in 1..{k}", line=lineno)
            if not 1 <= val <= m:
                raise ParseError(f"value must lie in 1..{m}", line=lineno)
            if tup in entries:
                raise ParseError(f"tuple {tup} listed twice", line=lineno)
            entries[tup] = val
        if header is None:
            raise ParseError("missing 'n k m' header", line=1)
        n, k, m = header
        if default is not None and not 1 <= default <= m:
            raise ParseError(f"default value must lie in 1..{m}", line=1)
        try:
            return cls(n, k, m, entries, default=default, budgets=budgets)
        except ValueError as exc:
            raise ParseError(str(exc), line=1) from None

    @classmethod
    def read(cls, path, budgets: Budgets | None = None) -> "FunctionTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), budgets=budgets)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def invariance_group(
    table: FunctionTable, budgets: Budgets | None = None
) -> PermGroup:
    """All permutations of the coordinates preserving the table's values."""
    n = table.n
    trivial = generate_group([], ground_set=range(1, n + 1), degree=n)
    return _preserving_group(
        trivial, lambda: (table.space, table.values_array), resolve(budgets)
    )


def orbit_coloring(group: PermGroup, k: int, budgets: Budgets | None = None) -> FunctionTable:
    """Color each tuple of k^degree by the rank of its orbit; the finest
    coloring invariant under the group, realizing the closure as an
    invariance group."""
    part = cached_orbit_partition(group, k, budgets=budgets)
    ranks = _orbit_ranks(part.labels).astype(np.int32)
    return FunctionTable(group.degree, k, part.orbit_count, ranks + 1, budgets=budgets)


# ---------------------------------------------------------------------------
# least codomain size


class NotRepresentable:
    """Outcome of ``min_codomain`` for a group that is not closed at k:
    no coloring with any number of colors has it as invariance group,
    because the closure would always slip in.  Falsy; carries the closure."""

    __slots__ = ("closure",)

    def __init__(self, closure: PermGroup):
        self.closure = closure

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, NotRepresentable) and self.closure == other.closure

    def __hash__(self):
        return hash(("NotRepresentable", self.closure))

    def __repr__(self) -> str:
        return f"NotRepresentable(closure_order={self.closure.order})"


@dataclass(frozen=True)
class MinCodomainReport:
    group: PermGroup
    k: int
    result: "int | NotRepresentable"
    colorings_tested: dict[int, int]
    witness: FunctionTable | None

    def summary_dict(self) -> dict:
        rep: dict = {
            "degree": self.group.degree,
            "k": self.k,
            "group_order": self.group.order,
            "colorings_tested": {str(m): c for m, c in sorted(self.colorings_tested.items())},
        }
        if isinstance(self.result, NotRepresentable):
            rep["representable"] = False
            rep["closure_order"] = self.result.closure.order
        else:
            rep["representable"] = True
            rep["min_codomain"] = self.result
        return rep


def min_codomain_report(
    group: PermGroup,
    k: int,
    max_orbits: int = 16,
    budgets: Budgets | None = None,
) -> MinCodomainReport:
    """Search the least m such that some coloring of k^degree with m colors
    has exactly this group as invariance group.

    Only orbit-constant colorings need checking, so the search runs over
    set partitions of the orbit classes, smallest m first; a candidate is
    rejected when some permutation outside the group preserves it.  More
    than ``max_orbits`` orbits is a UsageError, since it is no budget.
    One row per left coset of G other than G is tested, but n! - |G| are
    charged, as n! is to the materialization bound before the labels."""
    b = resolve(budgets)
    n = group.degree
    clo = galois_closure(group, k, budgets=b)
    if clo.order != group.order:
        return MinCodomainReport(group, k, NotRepresentable(clo), {}, None)
    r = orbit_count(group, k, budgets=b)
    if r > max_orbits:
        raise UsageError(f"{r} orbits on {k}^{n} pass max_orbits={max_orbits}; raise max_orbits")
    b.check("candidate", math.factorial(n))
    everything = _YoungSubgroup([range(n)], n, b)
    part = cached_orbit_partition(group, k, budgets=b)
    outside = everything.runs(everything.coset_leaders(group._rows)[1:])
    ranks = _orbit_ranks(part.labels)
    tested: dict[int, int] = {}
    work = 0
    for m in range(1, r + 1):
        count = 0
        for classes in _set_partitions(r, m):
            if max(classes) != m - 1:
                continue
            count += 1
            work += max(1, math.factorial(n) - group.order)
            b.check("candidate", work)
            vals = np.array(classes, dtype=np.int32)[ranks] + 1
            if _accepted_rows(part.space, vals, outside).size:
                continue
            tested[m] = count
            witness = FunctionTable(n, k, m, vals, budgets=b)
            return MinCodomainReport(group, k, m, tested, witness)
        tested[m] = count
    raise AssertionError(
        "orbit coloring itself must succeed; search cannot exhaust"
    )


def min_codomain(
    group: PermGroup, k: int, max_orbits: int = 16, budgets: Budgets | None = None
) -> "int | NotRepresentable":
    """Least codomain size over which the group is an invariance group,
    or NotRepresentable with the closure attached."""
    return min_codomain_report(group, k, max_orbits=max_orbits, budgets=budgets).result
