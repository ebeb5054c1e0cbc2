"""Permutation arithmetic, cycle notation, and group construction."""

import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import are_conjugate, cyclic_4, grp, klein_four, relabel
from permclosure.budgets import Budgets
from permclosure.catalog import catalog_names, get_group
from permclosure.errors import BudgetExceeded, DegreeMismatch, ParseError
from permclosure.perm import (
    PermGroup,
    Permutation,
    _lex_permutations,
    _lex_rank,
    _lex_ranks,
    alternating_on,
    compose,
    conjugate,
    direct_product,
    extend_degree,
    format_perm,
    full_orbits,
    generate_group,
    identity,
    index2_subdirect,
    is_primitive,
    is_transitive,
    orbits_on_points,
    parse_group_text,
    parse_perm,
    read_group_file,
    shift_group,
    shift_perm,
    symmetric_on,
    viewed_at_degree,
)
from permclosure.subgroups import all_subgroups


def perms_of(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


# ---------------------------------------------------------------------------
# single permutations


def test_images_are_one_based():
    p = Permutation([2, 3, 1])
    assert p(1) == 2 and p(2) == 3 and p(3) == 1
    assert p.images == (2, 3, 1)
    assert p.degree == 3


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1, 2])
    with pytest.raises(ValueError):
        Permutation([1, 2, 4])


def test_call_outside_domain():
    p = identity(3)
    with pytest.raises(ValueError):
        p(0)
    with pytest.raises(ValueError):
        p(4)


def test_s3_multiplication_table():
    """Every product in S_3 against a hand-rolled composition."""
    elements = [Permutation(list(t)) for t in itertools.permutations((1, 2, 3))]
    for p in elements:
        for q in elements:
            expected = tuple(p(q(i)) for i in (1, 2, 3))
            assert (p * q).images == expected


@given(perms_of(5), perms_of(5))
def test_compose_applies_right_factor_first(p, q):
    r = compose(p, q)
    for i in range(1, 6):
        assert r(i) == p(q(i))


@given(perms_of(4), perms_of(4), perms_of(4))
def test_compose_is_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perms_of(6))
def test_inverse_cancels(p):
    assert p * p.inverse() == identity(6)
    assert p.inverse() * p == identity(6)


@given(perms_of(5), perms_of(5))
def test_sign_is_multiplicative(p, q):
    assert (p * q).sign == p.sign * q.sign


@given(perms_of(6), perms_of(6))
def test_conjugation_preserves_cycle_type(p, s):
    assert conjugate(p, s).cycle_type() == p.cycle_type()
    assert conjugate(p, s) == s * p * s.inverse()


def test_order_and_cycle_type():
    p = parse_perm("(1 2 3)(4 5)", 6)
    assert p.order == 6
    assert p.cycle_type() == (3, 2, 1)
    assert p.moved_points() == (1, 2, 3, 4, 5)
    assert identity(4).order == 1


def test_compose_requires_equal_degrees():
    with pytest.raises(DegreeMismatch):
        compose(identity(3), identity(4))


# ---------------------------------------------------------------------------
# cycle notation


@given(perms_of(7))
def test_format_parse_round_trip(p):
    assert parse_perm(format_perm(p), 7) == p


def test_identity_spellings():
    for text in ("id", "()", "", "  "):
        assert parse_perm(text, 5) == identity(5)
    assert format_perm(identity(5)) == "id"


def test_cycles_start_at_least_point():
    assert format_perm(parse_perm("(3 1 2)", 3)) == "(1 2 3)"
    assert format_perm(parse_perm("(5 4)(2 1)", 5)) == "(1 2)(4 5)"


def test_commas_and_spacing_accepted():
    assert parse_perm("(1,2,3)(4, 5)", 5) == parse_perm("(1 2 3)(4 5)", 5)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_perm("(1 2", 4)
    assert err.value.position == 0 and "unclosed" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_perm("(1 2) x", 4)
    assert err.value.position == 6

    with pytest.raises(ParseError) as err:
        parse_perm("(1 5)", 4)
    assert err.value.position == 3 and "outside" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_perm("(1 2)(2 3)", 4)
    assert "appears twice" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_perm("(3)", 4)
    assert "length 1" in str(err.value)


# ---------------------------------------------------------------------------
# reshaping


def test_extend_and_shift():
    p = parse_perm("(1 2)", 2)
    assert extend_degree(p, 5).images == (2, 1, 3, 4, 5)
    assert shift_perm(p, 2, 5).images == (1, 2, 4, 3, 5)
    with pytest.raises(ValueError):
        extend_degree(p, 1)
    with pytest.raises(ValueError):
        shift_perm(p, 4, 5)


# ---------------------------------------------------------------------------
# group construction


def test_generate_group_orders():
    assert cyclic_4().order == 4
    assert grp(4, "(1 2 3 4)", "(1 3)").order == 8
    assert grp(4, "(1 2)", "(1 2 3 4)").order == 24
    assert klein_four().order == 4


def test_empty_generators_need_a_degree():
    triv = generate_group([], degree=3)
    assert triv.order == 1 and triv.degree == 3 and triv.ground_set == ()
    with pytest.raises(ValueError):
        generate_group([])


def test_ground_set_defaults_to_moved_points():
    g = grp(5, "(2 3)")
    assert g.ground_set == (2, 3)
    h = generate_group([parse_perm("(2 3)", 5)], ground_set=(1, 2, 3), degree=5)
    assert h.ground_set == (1, 2, 3)
    with pytest.raises(ValueError):
        generate_group([parse_perm("(2 3)", 5)], ground_set=(1, 2), degree=5)


def test_membership_and_subgroup_order():
    d4 = grp(4, "(1 2 3 4)", "(1 3)")
    assert parse_perm("(1 3)(2 4)", 4) in d4
    assert parse_perm("(1 2)", 4) not in d4
    assert cyclic_4() <= d4
    assert not d4 <= cyclic_4()
    with pytest.raises(DegreeMismatch):
        grp(3, "(1 2)") <= d4


def test_group_equality_is_by_element_set():
    a = cyclic_4()
    b = generate_group([parse_perm("(1 4 3 2)", 4)], degree=4)
    assert a == b and hash(a) == hash(b)
    assert a != klein_four()


def test_equality_and_hash_ignore_the_ground_set():
    # a group is its permutations; the closure cache keys on the ground set
    narrow = grp(4, "(1 2)")
    wide = generate_group([parse_perm("(1 2)", 4)], ground_set=range(1, 5))
    assert narrow.ground_set == (1, 2) and wide.ground_set == (1, 2, 3, 4)
    assert narrow == wide and hash(narrow) == hash(wide)


def test_from_elements_validates_closure():
    with pytest.raises(ValueError):
        PermGroup.from_elements([identity(3), parse_perm("(1 2 3)", 3)])
    # the span of C_4 and (1 2) outgrows the five given elements
    with pytest.raises(ValueError, match="not closed under composition"):
        PermGroup.from_elements(cyclic_4().elements + (parse_perm("(1 2)", 4),))
    with pytest.raises(DegreeMismatch):
        PermGroup.from_elements([identity(3), identity(4)])
    v = PermGroup.from_elements(klein_four().elements)
    assert v == klein_four()


def test_materialization_budget_is_enforced():
    small = Budgets(materialization_bound=10)
    with pytest.raises(BudgetExceeded) as err:
        generate_group([parse_perm("(1 2)", 4), parse_perm("(1 2 3 4)", 4)], budgets=small)
    assert err.value.budget_name == "materialization"
    # D_4 fits a bound of exactly 8; below it, the refusal counts the whole group
    d4_gens = [parse_perm("(1 2 3 4)", 4), parse_perm("(1 3)", 4)]
    assert generate_group(d4_gens, budgets=Budgets(materialization_bound=8)).order == 8
    with pytest.raises(BudgetExceeded) as err:
        generate_group(d4_gens, budgets=Budgets(materialization_bound=7))
    assert err.value.needed == 8


@pytest.mark.parametrize("texts, degree, bound, needed", [
    (("(1 2)", "(1 2 3 4 5)"), 5, 3, 4),
    (("(1 2)", "(1 2 3 4 5)"), 5, 50, 52),
    (("(1 2)", "(1 2 3 4 5)"), 5, 119, 120),
    (("(1 2 3)", "(1 2 3 4 5 6 7 8 9)"), 9, 100_000, 100_002),
])
def test_refusals_partway_through_a_step_count_whole_cosets(texts, degree, bound, needed):
    """A refusal inside a Dimino step names the elements so far plus one
    coset of the group the step extends: <(1 2)> has 2 elements, <(1 2 3)>
    has 3, so the need is the least multiple of those past the bound."""
    gens = [parse_perm(t, degree) for t in texts]
    with pytest.raises(BudgetExceeded) as err:
        generate_group(gens, budgets=Budgets(materialization_bound=bound))
    assert (err.value.budget_name, err.value.needed, err.value.allowed) == (
        "materialization", needed, bound,
    )


@pytest.mark.parametrize("n", [*range(1, 10), 20, 21])
def test_lex_ranks_match_the_rank_of_each_tuple(n):
    # 20 is the last degree of int64 ranks, 21 the first of Python ints
    rng = np.random.default_rng(n)
    rows = np.array([rng.permutation(n) for _ in range(200)], dtype=np.uint8)
    assert _lex_ranks(rows).tolist() == [_lex_rank(tuple(r)) for r in rows.tolist()]
    assert _lex_ranks(rows).dtype == (np.int64 if n <= 20 else object)


def test_lex_ranks_count_the_lex_order():
    rows, _ = _lex_permutations(7)
    assert np.array_equal(_lex_ranks(rows), np.arange(5040))
    # wider integer rows rank the same
    assert np.array_equal(_lex_ranks(rows.astype(np.int64)), np.arange(5040))


@pytest.mark.parametrize("m", range(9))
def test_lex_permutations_match_itertools_and_sign(m):
    rows, odd = _lex_permutations(m)
    assert rows.dtype == np.uint8 and not rows.flags.writeable
    assert rows.tolist() == [list(t) for t in itertools.permutations(range(m))]
    assert odd.tolist() == [Permutation([v + 1 for v in t]).sign == -1 for t in rows.tolist()]


def test_full_symmetric_groups_share_one_rank_array():
    one, two = symmetric_on(range(1, 9), 8), symmetric_on(range(1, 9), 8)
    assert one._ranks is two._ranks and not one._ranks.flags.writeable
    assert one._ranks.tolist() == list(range(math.factorial(8)))


def test_symmetric_and_alternating_on_points():
    s = symmetric_on((2, 4, 5), 6)
    assert s.order == 6 and s.ground_set == (2, 4, 5)
    a = alternating_on((2, 4, 5), 6)
    assert a.order == 3 and all(p.sign == 1 for p in a.elements)
    assert a <= s
    assert alternating_on((1, 2), 4).order == 1
    assert symmetric_on(range(1, 5), 4).order == 24


_SCATTERED = ((), (5,), (3, 7), (2, 5, 8), (2, 4, 5, 8), (1, 3, 4, 6, 8),
              (1, 2, 4, 5, 7, 8), (1, 2, 3, 5, 6, 7, 8))


@pytest.mark.parametrize("m", range(8))
def test_alternating_on_is_the_even_part_of_symmetric_on(m):
    for pts in (tuple(range(1, m + 1)), _SCATTERED[m]):
        a = alternating_on(pts, 8)
        even = [t for t in symmetric_on(pts, 8).element_images()
                if Permutation._raw(t).sign == 1]
        assert a.element_images() == tuple(even), pts
        assert a.ground_set == pts and a.degree == 8
        expected_gens = []
        if m >= 3:
            expected_gens.append("(%d %d %d)" % pts[:3])
        if m >= 4:
            cyc = pts if m % 2 else pts[1:]
            expected_gens.append("(" + " ".join(map(str, cyc)) + ")")
        assert [format_perm(g) for g in a.generators] == expected_gens, pts


def test_alternating_on_refuses_before_materializing():
    assert alternating_on(range(1, 6), 5, Budgets(materialization_bound=60)).order == 60
    with pytest.raises(BudgetExceeded) as err:
        alternating_on(range(1, 6), 5, Budgets(materialization_bound=59))
    assert (err.value.budget_name, err.value.needed, err.value.allowed) == (
        "materialization", 60, 59
    )


def test_viewed_at_degree_and_shift_group():
    g = grp(3, "(1 2 3)")
    wide = viewed_at_degree(g, 6)
    assert wide.degree == 6 and wide.order == 3 and wide.ground_set == (1, 2, 3)
    moved = shift_group(g, 3, 6)
    assert moved.ground_set == (4, 5, 6)
    assert parse_perm("(4 5 6)", 6) in moved
    with pytest.raises(ValueError):
        viewed_at_degree(g, 2)


# ---------------------------------------------------------------------------
# products


def test_direct_product_orders_and_overlap():
    left = symmetric_on((1, 2, 3), 5)
    right = symmetric_on((4, 5), 5)
    prod = direct_product(left, right)
    assert prod.order == 12 and prod.ground_set == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        direct_product(left, symmetric_on((3, 4), 5))
    with pytest.raises(DegreeMismatch):
        direct_product(left, symmetric_on((4, 5), 6))


def test_index2_gluing_exact_elements():
    """S_3 glued with S_2 over the trivial half: odd triples swap the tail."""
    b = symmetric_on((1, 2, 3), 5)
    l = symmetric_on((4, 5), 5)
    l0 = generate_group([], ground_set=(4, 5), degree=5)
    glued = index2_subdirect(b, l, l0)
    expected = {
        parse_perm(s, 5)
        for s in ("id", "(1 2 3)", "(1 3 2)", "(1 2)(4 5)", "(1 3)(4 5)", "(2 3)(4 5)")
    }
    assert set(glued.elements) == expected
    assert glued.order == 6


def test_index2_gluing_rejects_bad_shapes():
    l = symmetric_on((4, 5), 5)
    l0 = generate_group([], ground_set=(4, 5), degree=5)
    with pytest.raises(ValueError):
        index2_subdirect(alternating_on((1, 2, 3), 5), l, l0)
    with pytest.raises(ValueError):
        index2_subdirect(symmetric_on((1, 2, 3), 5), l, l)


def test_index2_gluing_refusals():
    b, l = symmetric_on((1, 2, 3), 6), symmetric_on((4, 5), 6)
    trivial = generate_group([], ground_set=(4, 5), degree=6)
    with pytest.raises(DegreeMismatch, match="all three groups must share a degree"):
        index2_subdirect(b, l, generate_group([], ground_set=(4, 5), degree=7))
    with pytest.raises(ValueError, match="^ground sets overlap$"):
        index2_subdirect(b, symmetric_on((3, 4), 6), trivial)
    with pytest.raises(ValueError, match="index of the distinguished subgroup is 3, not 2"):
        index2_subdirect(b, symmetric_on((4, 5, 6), 6), grp(6, "(4 5)"))
    with pytest.raises(ValueError, match="index-2 part moves points outside the second factor"):
        index2_subdirect(b, l, generate_group([], ground_set=(4, 5, 6), degree=6))


def test_group_construction_refusals():
    with pytest.raises(ValueError, match="shifted group does not fit inside the degree"):
        shift_group(cyclic_4(), 1, 4)
    with pytest.raises(ValueError, match=re.escape("ground set outside 1..2")):
        generate_group([], ground_set=(0,), degree=2)
    with pytest.raises(ValueError, match="element list is empty"):
        PermGroup.from_elements([])
    with pytest.raises(DegreeMismatch, match="generators have mixed degrees"):
        generate_group([identity(3), identity(4)])


# ---------------------------------------------------------------------------
# orbits and primitivity


def test_point_orbits():
    g = grp(6, "(1 2)", "(3 4 5)")
    assert orbits_on_points(g) == ((1, 2), (3, 4, 5))
    assert not is_transitive(g)
    assert is_transitive(grp(4, "(1 2 3 4)"))


def test_primitivity():
    assert not is_primitive(cyclic_4())
    assert is_primitive(grp(5, "(1 2 3 4 5)", "(2 5)(3 4)"))
    assert is_primitive(alternating_on(range(1, 6), 5))
    assert not is_primitive(grp(6, "(1 2 3)", "(1 4)(2 5)(3 6)"))
    # ground sets of one and two points, the first with no generators
    assert is_primitive(generate_group([], ground_set=(2,), degree=3))
    assert is_primitive(grp(4, "(2 3)"))


def test_primitivity_matches_sympy():
    """Every class representative of degree 2 to 6 transitive on all its
    points, and every catalog group, against sympy's block search."""
    from sympy.combinatorics import Permutation as SympyPerm, PermutationGroup

    groups = [cls.representative for n in range(2, 7) for cls in all_subgroups(n).classes]
    groups = [g for g in groups if g.ground_set == tuple(range(1, g.degree + 1))
              and is_transitive(g)]
    groups += [get_group(name) for name in catalog_names()]
    verdicts = set()
    for g in groups:
        sg = PermutationGroup([SympyPerm([v - 1 for v in p.images]) for p in g.generators])
        verdict = is_primitive(g)
        assert verdict == sg.is_primitive(randomized=False), g
        verdicts.add(verdict)
    assert len(groups) == 49 and verdicts == {False, True}


def test_orbit_and_primitivity_refusals():
    with pytest.raises(ValueError, match="degree smaller than the group's"):
        full_orbits(cyclic_4(), 3)
    with pytest.raises(ValueError, match="primitivity is defined for transitive groups only"):
        is_primitive(grp(4, "(1 2)", "(3 4)"))


# ---------------------------------------------------------------------------
# the S_n-conjugacy oracle of the tests, against a scan over relabelings


def test_conjugacy_in_the_symmetric_group():
    other = grp(4, "(1 3 2 4)")
    assert are_conjugate(cyclic_4(), other)
    assert not are_conjugate(cyclic_4(), klein_four())


def _group_fingerprint(group: PermGroup) -> tuple:
    types: dict[tuple[int, ...], int] = {}
    for p in group.elements:
        ct = p.cycle_type()
        types[ct] = types.get(ct, 0) + 1
    return (group.order, tuple(sorted(types.items())))


def _are_conjugate_by_relabeling(g: PermGroup, h: PermGroup) -> bool:
    """Conjugacy inside the symmetric group of their common degree.

    Cheap fingerprints first, then a brute scan over relabelings; meant for
    degree at most 6 or so.
    """
    if g.degree != h.degree:
        raise DegreeMismatch("conjugacy test requires equal degrees")
    if g == h:
        return True
    if _group_fingerprint(g) != _group_fingerprint(h):
        return False
    target = set(h.element_images())
    for simg in itertools.permutations(range(g.degree)):
        s = Permutation._raw(simg)
        if all(conjugate(p, s)._img in target for p in g.generators):
            if {conjugate(p, s)._img for p in g.elements} == target:
                return True
    return False


def test_conjugacy_matches_the_relabeling_scan_on_degree_four_subgroups():
    members = all_subgroups(4).all_groups()
    verdicts = set()
    for g, h in itertools.product(members, repeat=2):
        verdict = are_conjugate(g, h)
        assert verdict == _are_conjugate_by_relabeling(g, h)
        verdicts.add((g.order == h.order, verdict))
    # both verdicts occur between distinct groups of one order
    assert {(True, True), (True, False)} <= verdicts


def test_conjugacy_matches_the_relabeling_scan_on_catalog_groups():
    rng = random.Random(11)
    named = [get_group(name) for name in catalog_names()]
    named += [get_group(f"{kind}_{n}") for kind in "CDAS" for n in range(3, 8)]
    by_degree: dict[int, list[PermGroup]] = {}
    for g in named:
        if g.degree <= 7:
            by_degree.setdefault(g.degree, []).append(g)
    for groups in by_degree.values():
        for g, h in itertools.product(groups, repeat=2):
            images = list(range(1, h.degree + 1))
            rng.shuffle(images)
            relabeled = relabel(h, Permutation(images))
            verdict = are_conjugate(g, relabeled)
            assert verdict == _are_conjugate_by_relabeling(g, relabeled)
            if g is h:
                assert verdict


# ---------------------------------------------------------------------------
# group files


def test_parse_group_text():
    text = """
    # a dihedral group
    degree: 4
    (1 2 3 4)
    (1 3)
    """
    g = parse_group_text(text)
    assert g.order == 8 and g.degree == 4


def test_group_text_errors():
    with pytest.raises(ParseError):
        parse_group_text("(1 2)\n")  # missing header
    with pytest.raises(ParseError):
        parse_group_text("degree: x\n")
    with pytest.raises(ParseError):
        parse_group_text("degree: 3\n(1 5)\n")


@pytest.mark.parametrize("bound_bits", [27, 20_000])
def test_huge_group_text_degree_is_refused_before_allocating(bound_bits):
    """Past the tuple budget a degree is refused before a generator lists
    its images; the power shown stays exact up to the cap."""
    budgets = Budgets(tuple_budget=2**bound_bits)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            parse_group_text("degree: 1000000000000\n(1 2)\n", budgets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.budget_name == "tuple-space"
    assert err.value.needed > err.value.allowed
    assert peak < 1 << 20
    with pytest.raises(BudgetExceeded) as err:
        parse_group_text(f"degree: {bound_bits + 1}\n(1 2)\n", budgets)
    assert err.value.needed == 2 ** (bound_bits + 1)
    assert parse_group_text("degree: 27\n(1 2)\n", budgets).order == 2


def test_read_group_file(tmp_path):
    path = tmp_path / "c4.grp"
    path.write_text("degree: 4\n(1 2 3 4)\n")
    assert read_group_file(path) == cyclic_4()


def test_element_count_matches_lagrange():
    s4 = symmetric_on(range(1, 5), 4)
    for g in (cyclic_4(), klein_four(), grp(4, "(1 2 3)")):
        assert math.factorial(4) % g.order == 0
        assert g <= s4
