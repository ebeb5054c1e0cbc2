"""Shape classification of non-closed groups and the point-tuple closure."""

import hashlib
import random

import numpy as np
import pytest

from helpers import (
    classify_by_rebuilding,
    containment_by_closures,
    cyclic_4,
    grp,
    named_panel,
    point_tuple_partition,
    relabel,
    value_index_map,
)
from permclosure.budgets import Budgets
from permclosure.classify import (
    FormKind,
    _in_wielandt_closure,
    check_wielandt_containment,
    classify_main,
    degree7_panel,
    degree7_panel_expectations,
    verify_main,
    wielandt_closure,
)
from permclosure.closure import galois_closure
from permclosure.subgroups import all_subgroups
from permclosure.errors import BudgetExceeded, UsageError
from permclosure.tuples import cached_orbit_partition
from permclosure.perm import (
    Permutation,
    alternating_on,
    direct_product,
    format_perm,
    full_orbits,
    generate_group,
    index2_subdirect,
    symmetric_on,
    viewed_at_degree,
)


# ---------------------------------------------------------------------------
# the applicability threshold


def test_threshold_blocks_small_degrees():
    form = classify_main(symmetric_on(range(1, 7), 6), 6, 4)
    assert form.kind is FormKind.OUT_OF_THEOREM_RANGE
    assert form.codegree == 2 and form.threshold == 6


def test_alphabet_at_least_degree_predicts_closed():
    form = classify_main(cyclic_4(), 4, 4)
    assert form.kind is FormKind.PREDICTED_CLOSED
    assert form.codegree == 0


def test_degree_below_group_degree_is_rejected():
    with pytest.raises(ValueError):
        classify_main(symmetric_on(range(1, 7), 6), 5, 3)


# ---------------------------------------------------------------------------
# shapes at degree 7, alphabet 5


def test_panel_shapes_match_expectations():
    expected = degree7_panel_expectations()
    for name, group in degree7_panel():
        form = classify_main(group, 7, 5)
        assert form.kind is expected[name], name


def test_alternating_product_shape_details():
    a7 = alternating_on(range(1, 8), 7)
    form = classify_main(a7, 7, 5)
    assert form.kind is FormKind.ALTERNATING_TIMES_L
    assert form.block == tuple(range(1, 8)) and form.complement == ()
    assert form.predicted_closure == symmetric_on(range(1, 8), 7)

    a6 = alternating_on(range(1, 7), 7)
    form = classify_main(a6, 7, 5)
    assert form.kind is FormKind.ALTERNATING_TIMES_L
    assert form.block == tuple(range(1, 7)) and form.complement == (7,)
    assert form.predicted_closure == symmetric_on(range(1, 7), 7)


def test_forced_classification_sees_the_gluing():
    """Below the threshold the gluing shape is still recognizable with
    force, and its closure prediction matches the computation."""
    s5 = symmetric_on(range(1, 6), 7)
    tail = symmetric_on((6, 7), 7)
    half = generate_group([], ground_set=(6, 7), degree=7)
    glued = index2_subdirect(s5, tail, half)
    form = classify_main(glued, 7, 4, force=True)
    assert form.kind is FormKind.PROPER_SUBDIRECT
    assert form.complement_half is not None and form.complement_half.order == 1
    assert form.predicted_closure.order == 240
    assert galois_closure(glued, 4) == form.predicted_closure


def _shape_cases():
    """1,171 (group, degree, k) cases: every class representative of
    degree 1 to 6 at its degree and one more (up to 7), at every k; the
    degree-7 panel at every k; and A_8, A_9, A_7 and A_8 with a fixed
    point, and S_(m-2) glued with S_2 at m = 8, 9, at the four largest k."""
    for m in range(1, 7):
        for cls in all_subgroups(m).classes:
            for n in range(m, min(m + 1, 7) + 1):
                for k in range(1, n + 1):
                    yield cls.representative, n, k
    for _, g in degree7_panel():
        for k in range(1, 8):
            yield g, 7, k
    extra = [alternating_on(range(1, m + 1), n) for m, n in ((8, 8), (9, 9), (7, 8), (8, 9))]
    extra += [index2_subdirect(symmetric_on(range(1, m - 1), m), symmetric_on((m - 1, m), m),
                               generate_group([], ground_set=(m - 1, m), degree=m))
              for m in (8, 9)]
    for g in extra:
        for k in range(g.degree - 3, g.degree + 1):
            yield g, g.degree, k


def _shape(form):
    return (form.kind, form.block, form.complement, form.note, form.complement_factor,
            form.complement_half, form.predicted_closure)


def test_shapes_by_orders_match_the_rebuilt_shapes():
    """Goursat's order count decides both shapes as building them and
    comparing with the group does, on every field of the form; groups
    compare by their elements."""
    cases = list(_shape_cases())
    assert len(cases) == 1171
    kinds = set()
    for g, n, k in cases:
        form = classify_main(g, n, k, force=True)
        assert _shape(form) == _shape(classify_by_rebuilding(g, n, k, force=True)), (g, n, k)
        kinds.add(form.kind)
    assert kinds == {FormKind.ALTERNATING_TIMES_L, FormKind.PROPER_SUBDIRECT,
                     FormKind.PREDICTED_CLOSED}


def test_verify_main_agrees_on_the_panel():
    for name, group in degree7_panel():
        rep = verify_main(group, 7, 5)
        assert rep.applicable and rep.agree, name
        assert rep.predicted_nonclosed == rep.computed_nonclosed, name


def test_verify_main_outside_the_range_checks_nothing():
    rep = verify_main(cyclic_4(), 4, 2)
    assert not rep.applicable and rep.agree
    assert rep.computed_nonclosed


# ---------------------------------------------------------------------------
# the closure on tuples of points


def test_point_pair_closure_of_the_four_cycle_is_itself():
    assert wielandt_closure(cyclic_4(), 2) == cyclic_4()


def test_point_tuple_closure_at_one_is_the_orbit_stabilizer():
    # orbits of single points determine nothing beyond the point orbits
    assert wielandt_closure(cyclic_4(), 1) == symmetric_on(range(1, 5), 4)
    g = grp(5, "(1 2)", "(4 5)")
    clo = wielandt_closure(g, 1)
    assert clo == direct_product(symmetric_on((1, 2), 5), symmetric_on((4, 5), 5))


def test_point_tuple_closure_grows_the_dihedral_group():
    d4 = grp(4, "(1 2 3 4)", "(1 3)")
    assert wielandt_closure(d4, 2) == d4
    assert wielandt_closure(d4, 1).order == 24


def _wielandt_by_brute_force(group, k):
    """Ranks of every permutation of the degree whose value action keeps
    the group's orbits on k-tuples of points."""
    part = point_tuple_partition(group, k)
    n = group.degree
    return [
        r for r, sigma in enumerate(symmetric_on(range(1, n + 1), n).elements)
        if np.array_equal(part.labels[value_index_map(sigma, k)], part.labels)
    ]


@pytest.mark.parametrize("n", [4, 5])
def test_point_tuple_closure_matches_brute_force(n):
    """The hook class against the value action on all of n^k, for every k
    up to n+1: from k = n-1 on the group is its own closure, unlabelled."""
    catalog = all_subgroups(n)
    groups = catalog.all_groups() if n == 4 else [c.representative for c in catalog.classes]
    for g in groups:
        for k in range(1, n + 2):
            assert wielandt_closure(g, k)._ranks.tolist() == _wielandt_by_brute_force(g, k), (g, k)


# sha256 over "name|k|closure order|closure generators" lines of
# wielandt_closure at k = 1, 2 and 3 over helpers.named_panel(8), recorded
# while the candidates were the whole product of the symmetric groups on the
# point orbits, screened and sorted
WIELANDT_DIGEST = "d12806e91a320730e31b69e102617c4ab48303cd5deba91852328e09f8128914"


def test_point_tuple_closures_match_the_recorded_digest():
    lines = []
    for name, g in named_panel(8):
        for k in (1, 2, 3):
            clo = wielandt_closure(g, k)
            gens = " ".join(format_perm(p) for p in clo.generators)
            lines.append(f"{name}|{k}|{clo.order}|{gens}")
    assert len(lines) == 312
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WIELANDT_DIGEST


def test_point_tuple_closure_of_a_degree_one_group_is_itself():
    g = generate_group([], degree=1)
    for k in (1, 2):
        assert wielandt_closure(g, k) == g
    with pytest.raises(ValueError):
        wielandt_closure(g, 0)


@pytest.mark.parametrize("k", [0, -1])
def test_point_tuple_closure_rejects_k_below_one(k):
    # k = 1, the closure on points, is checked above
    with pytest.raises(UsageError, match="k must be at least 1"):
        wielandt_closure(cyclic_4(), k)


@pytest.mark.parametrize("cycles", [("(1 2 3)", "(4 5)"), ("(36 37 38)", "(39 40)")])
def test_point_tuple_closure_past_intp_indices(cycles):
    """At degree 40, (k+1)^40 passes intp indices for k >= 2 (3^40 and
    4^40 exceed 2^63); the closure is computed on the five moved points, so
    no tuple over the fixed points is labelled.  The closure lies in the product of the symmetric groups on the point
    orbits, so the value action on 40^k, tried on that product alone, is
    the brute force."""
    g = grp(40, " ".join(cycles))
    orbits = [tuple(int(x) for x in c.strip("()").split()) for c in cycles]
    product = direct_product(symmetric_on(orbits[0], 40), symmetric_on(orbits[1], 40))
    for k in (1, 2, 3):
        part = point_tuple_partition(g, k)
        want = [
            sigma for sigma in product.elements
            if np.array_equal(part.labels[value_index_map(sigma, k)], part.labels)
        ]
        got = wielandt_closure(g, k)
        assert got.order == len(want) and all(sigma in got for sigma in want), (cycles, k)
    assert wielandt_closure(g, 2) == g


def test_point_tuple_closure_moving_40_points_refuses_keys_past_64_bits():
    """A group moving all 40 points labels the hook class over k+1
    letters: at k = 2, 3^40 passes 2^63, so the closure is refused as a
    usage error, while at k = 1 the class of 2^40 keys is labelled.  The
    closure at k = 1 itself ranks 2^20 candidates as Python ints, which
    takes seconds, so only the partition it reads is built here."""
    g = grp(40, " ".join(f"({p} {p + 1})" for p in range(1, 40, 2)))
    with pytest.raises(UsageError, match="arity 40 over 3 letters"):
        wielandt_closure(g, 2)
    part = cached_orbit_partition(g, 2, content=(1, 39))
    assert part.orbit_count == 20
    hook = part.space
    assert part.labels[hook.encode((1,) + (2,) * 39)] == part.labels[hook.encode((2, 1) + (2,) * 38)]


@pytest.mark.parametrize("support", [(36, 37, 38, 39, 40), (3, 11, 17, 29, 40)])
def test_point_tuple_closure_of_a_moved_group_is_the_moved_closure(s5_catalog, support):
    """Each degree-5 class moved onto five of 40 points, in order: its
    closure is the moved closure, generators included, from k = 1 to k = 4,
    where it is the group itself."""
    # points 1..5 go to the support in order, the rest to the rest in order
    pi = Permutation(list(support) + [p for p in range(1, 41) if p not in support])
    for cls in s5_catalog.classes:
        moved = relabel(viewed_at_degree(cls.representative, 40), pi)
        for k in range(1, 5):
            want = relabel(viewed_at_degree(wielandt_closure(cls.representative, k), 40), pi)
            got = wielandt_closure(moved, k)
            assert got == want, (cls.order, k, support)
            assert got.generators == want.generators and got.ground_set == want.ground_set


def test_one_representative_decides_its_class_at_degree_six():
    """Both closures commute with relabelling the points, so a seeded
    sample of degree-6 subgroups gets its class representative's verdict
    and closure orders."""
    catalog = all_subgroups(6)
    for g in random.Random(6).sample(catalog.all_groups(), 40):
        rep = catalog.class_of(g).representative
        for k in (1, 2, 3):
            assert check_wielandt_containment(g, k) == check_wielandt_containment(rep, k)
            assert wielandt_closure(g, k).order == wielandt_closure(rep, k).order, (g, k)
            assert galois_closure(g, k + 1).order == galois_closure(rep, k + 1).order, (g, k)


def test_containment_between_the_two_closures():
    for g in (cyclic_4(), grp(4, "(1 2 3)"), alternating_on(range(1, 6), 5)):
        for k in (1, 2, 3):
            assert check_wielandt_containment(g, k)


def test_containment_matches_building_both_closures():
    """Every class representative of degree 1 to 6 at k = 1..4, against
    ``galois_closure(G, k+1).is_subgroup_of(wielandt_closure(G, k))``."""
    for n in range(1, 7):
        for cls in all_subgroups(n).classes:
            for k in (1, 2, 3, 4):
                g = cls.representative
                assert check_wielandt_containment(g, k) == containment_by_closures(g, k), (g, k)


def test_membership_in_the_point_tuple_closure_without_building_it():
    """Seeded random permutations of each point orbit, tested without the
    closure against membership in the closure built by
    ``wielandt_closure``, on the class representatives of degree 4 to 6 at
    every k <= m-2.  Some lie inside and some outside."""
    rng = np.random.default_rng(34)
    outcomes = set()
    for n in (4, 5, 6):
        for cls in all_subgroups(n).classes:
            g = cls.representative
            m = sum(len(o) for o in full_orbits(g) if len(o) > 1)
            for k in range(1, m - 1):
                closure = wielandt_closure(g, k)
                rows = np.tile(np.arange(n), (8, 1))
                for orbit in full_orbits(g):
                    points = np.array(orbit) - 1
                    for row in rows:
                        row[points] = rng.permutation(points)
                got = _in_wielandt_closure(g, k, rows, Budgets())
                want = [Permutation((row + 1).tolist()) in closure for row in rows]
                assert got.tolist() == want, (g, k, rows)
                outcomes.update(want)
    assert outcomes == {True, False}


def test_containment_is_not_charged_the_point_tuple_closures_order():
    """The closure over 3 letters of <(3 4 5), (1 2)(4 5)>, of order 6,
    lies in its orbit closure on point pairs, of order 12, which is never
    built: under a materialization bound of 11 the containment is decided,
    and only building the orbit closure is refused."""
    g = grp(5, "(3 4 5)", "(1 2)(4 5)")
    tight = Budgets(materialization_bound=11)
    assert check_wielandt_containment(g, 2, budgets=tight)
    with pytest.raises(BudgetExceeded) as refused:
        wielandt_closure(g, 2, budgets=tight)
    assert (refused.value.budget_name, refused.value.needed) == ("materialization", 12)


def test_coordinate_closure_of_the_four_cycle_at_three_letters():
    assert galois_closure(cyclic_4(), 3) == cyclic_4()
