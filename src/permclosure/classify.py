"""Structure tests for groups that fail to be closed at small codegree.

Write d = degree - k.  Once the degree is strictly above
max(2^d, d^2 + d), a group that is not closed at alphabet size k must
have a rigid product shape: a single large orbit B whose complement D has
fewer than d points, with the group acting on B as at least the
alternating group, and one of

* alternating(B) x L, where L is the action induced on D, or
* the index-2 gluing of symmetric(B) with L over a half L0: even
  permutations of B paired with L0, odd ones with its complement.

In both shapes the closure is symmetric(B) x L.  ``classify_main``
recognizes the shapes, ``verify_main`` compares the resulting prediction
with the computed closure.  No shape is built to be compared with the
group: the group lies in the product of its actions G_B on B and L on D
and maps onto both, so by Goursat's lemma orders decide both shapes
(``classify_main``).  The module also hosts the classical orbit closure
on k-tuples of points (Wielandt's, decided on the hook content class)
and the containment check between the two closure notions, plus the
curated degree-7 panel used by the verification suite.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .budgets import Budgets, resolve
from .closure import _accepted_rows, _closure_of_cosets, _YoungSubgroup, galois_closure
from .errors import UsageError
from .perm import (
    Permutation,
    PermGroup,
    _lex_permutations,
    _lex_ranks,
    alternating_on,
    direct_product,
    full_orbits,
    generate_group,
    index2_subdirect,
    parse_perm,
    symmetric_on,
    viewed_at_degree,
)
from .tuples import OrbitPartition, balanced_sizes, cached_orbit_partition

__all__ = [
    "FormKind",
    "NonClosedForm",
    "MainVerifyReport",
    "classify_main",
    "verify_main",
    "wielandt_closure",
    "check_wielandt_containment",
    "degree7_panel",
    "degree7_panel_expectations",
]


class FormKind(Enum):
    ALTERNATING_TIMES_L = "AlternatingTimesL"
    PROPER_SUBDIRECT = "ProperSubdirect"
    PREDICTED_CLOSED = "PredictedClosed"
    OUT_OF_THEOREM_RANGE = "OutOfTheoremRange"


@dataclass(frozen=True)
class NonClosedForm:
    """Outcome of the shape test at one (degree, k) pair.

    ``block`` is the large orbit, ``complement`` the remaining points,
    ``complement_factor`` the action induced on them, ``complement_half``
    the distinguished index-2 part in the gluing case.  The first two
    kinds predict the group is not closed, with ``predicted_closure``
    attached; PredictedClosed predicts closure; OutOfTheoremRange makes
    no prediction at all."""

    kind: FormKind
    degree: int
    k: int
    codegree: int
    threshold: int
    block: tuple[int, ...] | None = None
    complement: tuple[int, ...] | None = None
    complement_factor: PermGroup | None = None
    complement_half: PermGroup | None = None
    predicted_closure: PermGroup | None = None
    note: str = ""

    @property
    def predicts_nonclosed(self) -> bool:
        return self.kind in (FormKind.ALTERNATING_TIMES_L, FormKind.PROPER_SUBDIRECT)

    def summary_dict(self) -> dict:
        out = {
            "kind": self.kind.value,
            "degree": self.degree,
            "k": self.k,
            "codegree": self.codegree,
            "threshold": self.threshold,
            "note": self.note,
        }
        if self.block is not None:
            out["block"] = list(self.block)
            out["complement"] = list(self.complement or ())
        if self.complement_factor is not None:
            out["complement_factor_order"] = self.complement_factor.order
        if self.complement_half is not None:
            out["complement_half_order"] = self.complement_half.order
        if self.predicted_closure is not None:
            out["predicted_closure_order"] = self.predicted_closure.order
        return out


def _restricted_rows(rows: np.ndarray, points: tuple[int, ...], degree: int) -> np.ndarray:
    """The image rows' action on an invariant point set, identity elsewhere."""
    idx = np.array(points, dtype=np.intp) - 1
    out = np.tile(np.arange(degree, dtype=rows.dtype), (len(rows), 1))
    out[:, idx] = rows[:, idx]
    return out


def _projection(group: PermGroup, points: tuple[int, ...]) -> PermGroup:
    """The action induced on an invariant point set, identity elsewhere,
    generated by the generators' restrictions less the identity: the group
    itself when it moves no other point.  No larger than the group, it is
    bounded by the group's order, not by the caller's budgets."""
    n = group.degree
    gens = np.array([p._img for p in group.generators], dtype=np.intp).reshape(-1, n)
    restricted = _restricted_rows(gens, points, n)
    if np.array_equal(restricted, gens):
        return group
    moving = restricted[(restricted != np.arange(n)).any(axis=1)].tolist()
    return generate_group([Permutation._raw(tuple(t)) for t in moving], points or None,
                          degree=n, budgets=Budgets(materialization_bound=group.order))


def classify_main(
    group: PermGroup, n: int, k: int, force: bool = False,
    budgets: Budgets | None = None,
) -> NonClosedForm:
    """Shape test at degree n and alphabet size k.

    With ``force`` the applicability threshold is skipped, which turns the
    test into a pure shape diagnostic; predictions are then only reliable
    inside the threshold regime.

    G lies in G_B x G_D, its actions on the block B and the complement D,
    and maps onto both.  By Goursat's lemma, with N_B = {b : (b, 1) in G}
    and N_D = {l : (1, l) in G}, G pairs the cosets of N_B with those of
    N_D under an isomorphism of the quotients, so |G| = |G_B| |N_D|.
    Alt(B) is the only subgroup of index 2 in Sym(B).  So G = Alt(B) x
    G_D exactly when |G_B| = |B|!/2 and |G| = |G_B| |G_D|; and G is the
    gluing of Sym(B) with G_D over L0 = N_D exactly when |G_B| = |B|! and
    2|G| = |B|! |G_D|, for then N_B = Alt(B), and L0 is the action on D
    of the elements even on B.  Sym(B) is built only when a shape holds,
    for the predicted closure Sym(B) x G_D."""
    if n < group.degree:
        raise UsageError(f"degree {n} is below the group's degree {group.degree}")
    g = viewed_at_degree(group, n)
    d = n - k
    if d < 1:
        return NonClosedForm(
            FormKind.PREDICTED_CLOSED, n, k, d, 0,
            note="alphabet at least the degree; every group is closed there",
        )
    threshold = max(2**d, d * d + d)
    if n <= threshold and not force:
        return NonClosedForm(
            FormKind.OUT_OF_THEOREM_RANGE, n, k, d, threshold,
            note=f"degree {n} is not above the threshold {threshold}",
        )
    orbits = full_orbits(g, n)
    candidates = [o for o in orbits if n - len(o) < d]
    if not candidates:
        return NonClosedForm(
            FormKind.PREDICTED_CLOSED, n, k, d, threshold,
            note="no orbit has complement smaller than the codegree",
        )
    block = max(candidates, key=len)
    note = ""
    if len(candidates) > 1:
        note = f"{len(candidates)} candidate blocks; largest chosen"
    complement = tuple(p for p in range(1, n + 1) if p not in set(block))
    on_block = _projection(g, block)
    on_complement = _projection(g, complement)
    bfact = math.factorial(len(block))
    if on_block.order * 2 == bfact and g.order == on_block.order * on_complement.order:
        kind, half = FormKind.ALTERNATING_TIMES_L, None
        note = note or "alternating on the block times the complement action"
    elif on_block.order == bfact and g.order * 2 == bfact * on_complement.order:
        kind = FormKind.PROPER_SUBDIRECT
        local = _to_support(np.array(block) - 1, n)(g._rows)
        even = (~_lex_permutations(len(block))[1][_lex_ranks(local)]).nonzero()[0]
        half_rows = _restricted_rows(g._rows.take(even, axis=0), complement, n)
        half = PermGroup._build(n, half_rows, None, complement or None)
        note = note or "index-2 gluing of the symmetric block with the complement action"
    else:
        return NonClosedForm(
            FormKind.PREDICTED_CLOSED, n, k, d, threshold,
            block=block, complement=complement,
            note=note or "block action matches neither shape",
        )
    return NonClosedForm(
        kind, n, k, d, threshold,
        block=block, complement=complement,
        complement_factor=on_complement,
        complement_half=half,
        predicted_closure=direct_product(symmetric_on(block, n, budgets), on_complement, budgets),
        note=note,
    )


@dataclass(frozen=True)
class MainVerifyReport:
    form: NonClosedForm
    computed_closure: PermGroup
    applicable: bool
    predicted_nonclosed: bool
    computed_nonclosed: bool
    agree: bool

    def summary_dict(self) -> dict:
        return {
            "form": self.form.summary_dict(),
            "computed_closure_order": self.computed_closure.order,
            "applicable": self.applicable,
            "predicted_nonclosed": self.predicted_nonclosed,
            "computed_nonclosed": self.computed_nonclosed,
            "agree": self.agree,
        }


def verify_main(
    group: PermGroup, n: int, k: int, budgets: Budgets | None = None
) -> MainVerifyReport:
    """Compare the shape prediction against the computed closure.

    Inside the threshold regime, agreement means: predicted non-closed
    groups have exactly the predicted closure, predicted closed groups
    equal their closure.  Outside it no claim is checked."""
    form = classify_main(group, n, k, budgets=budgets)
    g = viewed_at_degree(group, n)
    closure = galois_closure(g, k, budgets=budgets)
    computed_nonclosed = closure.order != g.order
    if form.kind is FormKind.OUT_OF_THEOREM_RANGE:
        return MainVerifyReport(form, closure, False, False, computed_nonclosed, True)
    if form.predicts_nonclosed:
        agree = computed_nonclosed and closure == form.predicted_closure
        return MainVerifyReport(form, closure, True, True, computed_nonclosed, agree)
    agree = not computed_nonclosed
    return MainVerifyReport(form, closure, True, False, computed_nonclosed, agree)


# ---------------------------------------------------------------------------
# orbit closure on tuples of points, on the hook class


def wielandt_closure(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> PermGroup:
    """The largest group with the same orbits on k-tuples of points.

    The closure keeps every point orbit (below), so it fixes every point
    the group fixes.  It is therefore computed on the group's m moved
    points, relabelled 1..m in order, and extended by the identity on the
    fixed points; the relabelling keeps the lex order of the rows, so the
    candidates and generators are those of the whole degree.

    A permutation is fixed by its image of one injective (m-1)-tuple, so
    G^(m-1) = G, and so is every G^(k), k >= m-1, which lies between G and
    G^(m-1); the group itself is returned there.

    For k <= m-2, candidates are restricted to permutations preserving
    every point orbit setwise, which is sound: orbits of constant tuples
    recover the point orbits, so any permutation with the same tuple
    orbits preserves them.  They form the product of the symmetric groups
    on the orbits, which contains the closure, itself a union of left
    cosets of G.  So the least element of each left coset of G in the
    product other than G is tested, against the group's orbits on the hook
    class of content (1^k, m-k) over k+1 letters under the coordinate
    action:

    * The injective k-tuple r of points corresponds to the m-tuple a with
      a_(r_i) = i and k+1 elsewhere, and sigma o r to a^(sigma^-1).  So
      sigma keeps every orbit of injective k-tuples exactly when sigma^-1,
      hence sigma, keeps every orbit of the class: the accepted cosets,
      and through ``_closure_of_cosets`` the generators, are those of the
      value action on all of m^k.
    * Every k-tuple r is a contraction s o f of an injective k-tuple s,
      f a map of the k coordinates, and sigma o s in G o s gives
      sigma o r in G o r.

    So m!/(m-k)! tuples are labelled, not n^k.  The repeated letter comes
    last, so the first members in lex order are the tuples of the first
    points, and a candidate that moves them fails early; only at k = m-2,
    where the content (2, 1^k) is also the balanced one, is it taken in
    the balanced order, first.  Any order of the letters gives the same
    accepted candidates.  The hook class has at most k+1 parts, so by the
    balanced-class argument of ``closure`` the balanced class over k+1
    letters decides it, and with it ``check_wielandt_containment``: the
    closure at alphabet size k+1 keeps every orbit of the hook class."""
    if k < 1:
        raise UsageError("k must be at least 1")
    n = group.degree
    support = _support(group)
    m = len(support)
    if k >= m - 1:
        return group
    b = resolve(budgets)
    on_support = _on_support(group, support)
    closure = _closure_moving_every_point(on_support, k, b)
    if on_support is group:
        return closure
    if closure.order == group.order:
        return group

    def up(rows: np.ndarray) -> np.ndarray:
        out = np.tile(np.arange(n, dtype=group._rows.dtype), (len(rows), 1))
        out[:, support] = support[rows]
        return out

    return PermGroup._build(n, up(closure._rows), _generator_rows(closure, up), group.ground_set)


def _support(group: PermGroup) -> np.ndarray:
    """The 0-based points some element moves, ascending."""
    return (group._rows != np.arange(group.degree)).any(axis=0).nonzero()[0]


def _generator_rows(group: PermGroup, relabel: Callable) -> list[tuple[int, ...]]:
    """The group's generators as image tuples, relabelled."""
    return list(map(tuple, relabel(np.array([p._img for p in group.generators])).tolist()))


def _to_support(support: np.ndarray, degree: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from image rows that keep the sorted 0-based points to
    their action there, the points relabelled 0..m-1 in order, which keeps
    the rows' lex order."""
    local = np.zeros(degree, dtype=np.intp)
    local[support] = np.arange(len(support))
    return lambda rows: local[rows[:, support]]


def _on_support(group: PermGroup, support: np.ndarray) -> PermGroup:
    """The group on the points it moves (``_to_support``): the group itself
    when it moves every point."""
    if len(support) == group.degree:
        return group
    down = _to_support(support, group.degree)
    return PermGroup._build(len(support), down(group._rows), _generator_rows(group, down), None)


def _orbit_product(
    group: PermGroup, k: int, b: Budgets
) -> tuple[_YoungSubgroup, OrbitPartition]:
    """For a group that moves all its n points and k <= n-2: the product
    of the symmetric groups on its point orbits and its partition of the
    hook class, charged as ``wielandt_closure`` charges them, the candidate
    budget the product's order and, by ``_YoungSubgroup``, the
    materialization bound m! for the largest orbit's m points, before any
    tuple is labelled."""
    n = group.degree
    orbits = full_orbits(group, n)
    b.check("candidate", math.prod(math.factorial(len(o)) for o in orbits))
    product = _YoungSubgroup([np.array(o) - 1 for o in orbits], n, b)
    # at k = n-2 the hook content is the balanced one, (2, 1^k): in that
    # order galois_closure(group, k+1) and this closure share a partition
    content = balanced_sizes(n, k + 1) if k == n - 2 else (1,) * k + (n - k,)
    return product, cached_orbit_partition(group, k + 1, budgets=b, content=content)


def _closure_moving_every_point(group: PermGroup, k: int, b: Budgets) -> PermGroup:
    """``wielandt_closure`` of a group that moves all its n points, k <= n-2."""
    product, part = _orbit_product(group, k, b)
    leaders = product.coset_leaders(group._rows)[1:]  # less the identity
    accepted = product.rows(leaders[_accepted_rows(part.space, part.labels, product.runs(leaders))])
    # the orbits need not be runs, so indices are not in lex order
    return _closure_of_cosets(group, accepted[np.argsort(_lex_ranks(accepted))], b)


def check_wielandt_containment(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> bool:
    """Closure at alphabet size k+1 sits inside the orbit closure on
    k-tuples of points.

    The closure F = G^(k+1) is computed, but the Wielandt closure W =
    ``wielandt_closure(G, k)`` is not; m is the number of points G moves.

    * At k >= m-1, W = G, which lies in F, so F <= W exactly when F and G
      have the same order.
    * Below that, F keeps every point orbit of G: the orbits of the tuples
      with one letter 2 and the rest 1 are the point orbits.  So F fixes
      the points G fixes, and its generators, read on G's m moved points,
      lie in the product of the symmetric groups on G's orbits there.  W
      is exactly the set of permutations in that product that keep G's
      labels on the hook class (``wielandt_closure``).  So F <= W exactly
      when each generator of F keeps those labels, which
      ``_in_wielandt_closure`` tests in one batch.

    The answer is always True, as the end of ``wielandt_closure``'s
    docstring shows: F has G's orbits on the hook class."""
    fine = galois_closure(group, k + 1, budgets=budgets)
    if k >= len(_support(group)) - 1:
        return fine.order == group.order
    gens = np.array([p._img for p in fine.generators])
    return bool(_in_wielandt_closure(group, k, gens, resolve(budgets)).all())


def _in_wielandt_closure(
    group: PermGroup, k: int, rows: np.ndarray, b: Budgets
) -> np.ndarray:
    """Which of the 0-based image rows, each keeping every point orbit of
    the group, lie in ``wielandt_closure(group, k)``, for k <= m-2 with m
    the number of points the group moves, without building the closure.

    The rows, read on the moved points, are tested against the group's
    labels on the hook class (``check_wielandt_containment``): one
    ``_accepted_rows`` call, with one run over all m points and one
    candidate per row.  The budgets are charged as ``wielandt_closure``
    charges them up to its labels: the candidate budget the order of the
    product of the symmetric groups on the orbits, the materialization
    bound m! for the largest orbit of m points, the tuple budget the
    class.  The closure's order, which it charges before it rebuilds, is
    not charged."""
    support = _support(group)
    _, part = _orbit_product(_on_support(group, support), k, b)
    local = _to_support(support, group.degree)(rows)
    run = (np.arange(len(support)), local, np.arange(len(local)))
    kept = np.zeros(len(local), dtype=bool)
    kept[_accepted_rows(part.space, part.labels, [run])] = True
    return kept


# ---------------------------------------------------------------------------
# the degree-7 panel


def degree7_panel() -> tuple[tuple[str, PermGroup], ...]:
    """Ten structurally varied groups of degree 7 used to exercise the
    shape test at k = 5.  They are built under the package defaults,
    ``Budgets()``, as the catalog is: a fixed panel reads no bound from the
    environment, which would not be the caller's."""
    b = Budgets()

    def gen(*texts: str) -> PermGroup:
        return generate_group([parse_perm(t, 7) for t in texts], budgets=b)

    def sym(points) -> PermGroup:
        return symmetric_on(points, 7, b)

    def alt(points) -> PermGroup:
        return alternating_on(points, 7, b)

    triv_tail = generate_group([], degree=7, ground_set=(6, 7), budgets=b)
    panel = (
        ("A_7", alt(range(1, 8))),
        ("A_6 embedded", alt(range(1, 7))),
        ("S_7", sym(range(1, 8))),
        ("C_7", gen("(1 2 3 4 5 6 7)")),
        ("D_7", gen("(1 2 3 4 5 6 7)", "(2 7)(3 6)(4 5)")),
        ("S_3 x S_4", direct_product(sym((1, 2, 3)), sym((4, 5, 6, 7)), b)),
        ("A_3 x A_4", direct_product(alt((1, 2, 3)), alt((4, 5, 6, 7)), b)),
        ("S_5 sd S_2", index2_subdirect(sym(range(1, 6)), sym((6, 7)), triv_tail)),
        ("F_21", gen("(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)")),
        ("S_6 embedded", sym(range(1, 7))),
    )
    return panel


def degree7_panel_expectations() -> dict[str, FormKind]:
    """Hand-derived expected shape kinds for the panel at k = 5."""
    return {
        "A_7": FormKind.ALTERNATING_TIMES_L,
        "A_6 embedded": FormKind.ALTERNATING_TIMES_L,
        "S_7": FormKind.PREDICTED_CLOSED,
        "C_7": FormKind.PREDICTED_CLOSED,
        "D_7": FormKind.PREDICTED_CLOSED,
        "S_3 x S_4": FormKind.PREDICTED_CLOSED,
        "A_3 x A_4": FormKind.PREDICTED_CLOSED,
        "S_5 sd S_2": FormKind.PREDICTED_CLOSED,
        "F_21": FormKind.PREDICTED_CLOSED,
        "S_6 embedded": FormKind.PREDICTED_CLOSED,
    }
