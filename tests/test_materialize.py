"""Group materialization by Dimino's algorithm on image rows: orders
against sympy, the element-list round trip, the greedy generator choice,
two-byte points past degree 256, memory peaks of large groups, and the
budget of a closure rebuild.  The element arrays behind each group are
checked against the breadth-first tuple-set definition of a span."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import grp
from permclosure.budgets import Budgets
from permclosure.closure import (
    _chain_pairs,
    _closure_of_cosets,
    _leading,
    _YoungSubgroup,
    closure_pruned,
)
from permclosure.errors import BudgetExceeded, DegreeMismatch
from permclosure.perm import (
    PermGroup,
    Permutation,
    _greedy_span,
    _lex_ranks,
    alternating_on,
    compose,
    generate_group,
    orbits_on_points,
    parse_perm,
    symmetric_on,
)
from permclosure.tuples import clear_partition_cache


@st.composite
def generator_sets(draw, max_degree=7):
    """One to four random permutations of a common degree from 1 to 7."""
    n = draw(st.integers(1, max_degree))
    images = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4))
    return [Permutation(img) for img in images]


def _span(gens, n):
    """The image tuples the generators span, by breadth-first closure."""
    ident = tuple(range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        grown = [tuple(t[j] for j in g) for t in frontier for g in gens]
        frontier = [x for x in dict.fromkeys(grown) if x not in seen]
        seen.update(frontier)
    return seen


@st.composite
def group_cases(draw):
    """A group with its element tuples by definition and its ground set if
    one was given: random generators of degree at most 7, or the symmetric
    or alternating group on scattered points inside degree at most 8."""
    kind = draw(st.sampled_from(("generated", "symmetric", "alternating")))
    if kind == "generated":
        gens = draw(generator_sets())
        return generate_group(gens), _span([g._img for g in gens], gens[0].degree), None
    n = draw(st.integers(1, 8))
    pts = tuple(sorted(draw(st.lists(st.integers(1, n), unique=True, max_size=7))))
    elems = set()
    for images in itertools.permutations(pts):
        img = list(range(n))
        for p, v in zip(pts, images):
            img[p - 1] = v - 1
        if kind == "symmetric" or Permutation._raw(tuple(img)).sign == 1:
            elems.add(tuple(img))
    build = symmetric_on if kind == "symmetric" else alternating_on
    return build(pts, n), elems, pts


@settings(max_examples=60)
@given(case=group_cases(), data=st.data())
def test_element_arrays_match_the_tuple_definitions(case, data):
    g, elems, ground = case
    n = g.degree
    assert g.element_images() == tuple(sorted(elems))
    assert [p._img for p in g.elements] == sorted(elems)
    if ground is None:
        ground = tuple(sorted({i + 1 for t in elems for i, v in enumerate(t) if v != i}))
    assert g.ground_set == ground
    probes = data.draw(st.lists(st.permutations(range(n)), max_size=20))
    for t in [*map(tuple, probes), *sorted(elems)[::max(1, len(elems) // 50)]]:
        assert (Permutation._raw(t) in g) == (t in elems)
    assert Permutation._raw(tuple(range(n + 1))) not in g
    # a subgroup from some of the elements, and any group of the degree
    inner = data.draw(st.lists(st.sampled_from(sorted(elems)), max_size=3))
    outer = data.draw(st.lists(st.permutations(range(n)).map(tuple), max_size=3))
    for gens in (inner, outer):
        h = generate_group([Permutation._raw(t) for t in gens], degree=n)
        h_elems = _span(gens, n)
        assert h.is_subgroup_of(g) == (h_elems <= elems)
        assert g.is_subgroup_of(h) == (elems <= h_elems)
        assert (h == g) == (h_elems == elems)
        if h == g:
            assert hash(h) == hash(g)
    same = PermGroup.from_elements(reversed(g.elements), ground_set=range(1, n + 1))
    assert same == g and hash(same) == hash(g)


def test_subgroup_test_reads_generators_and_refuses_other_degrees():
    """A group built from its elements tests the generators it derived;
    the trivial group, with none, lies in every group of its degree."""
    s4 = symmetric_on(range(1, 5), 4)
    a4 = PermGroup.from_elements(alternating_on(range(1, 5), 4).elements)
    assert a4 <= s4 and not s4 <= a4
    assert generate_group([], degree=4) <= a4
    with pytest.raises(DegreeMismatch):
        a4.is_subgroup_of(symmetric_on(range(1, 6), 5))


@settings(max_examples=40)
@given(case=group_cases())
def test_element_array_orders_match_sympy(case, sympy_group, sympy_perm):
    g = case[0]
    gens = g.generators or (Permutation._raw(tuple(range(g.degree))),)
    assert g.order == sympy_group(*(sympy_perm(list(p._img)) for p in gens)).order()


def test_groups_past_degree_twenty_rank_by_python_ints():
    # 21! outgrows int64, so ranks there are exact Python integers
    cycle = Permutation([*range(2, 23), 1])
    g = generate_group([cycle])
    assert g.order == 22 and g._ranks.dtype == object
    assert compose(cycle, cycle) in g and Permutation([2, 1, *range(3, 23)]) not in g
    assert PermGroup.from_elements(g.elements) == g
    assert generate_group([compose(cycle, cycle)]) <= g


@pytest.mark.parametrize("cycles", [["(1 2)", "(299 300)"], ["(7 150 300)"]])
def test_groups_past_degree_256_hold_two_byte_points(cycles):
    gens = [parse_perm(c, 300) for c in cycles]
    g = generate_group(gens)
    elems = _span([p._img for p in gens], 300)
    assert g._rows.dtype == np.uint16
    assert g.element_images() == tuple(sorted(elems))
    same = PermGroup.from_elements(reversed(g.elements))
    assert same == g and same.element_images() == tuple(sorted(elems))
    assert generate_group(same.generators, degree=300) == g


@pytest.mark.parametrize("texts, order, tuple_set_peak_mib", [
    (("(1 2 3 4 5 6 7 8 9)", "(1 2)"), 362880, 74.7),
    (("(1 2 3)", "(1 2 3 4 5 6 7 8 9)"), 181440, 37.2),
])
def test_large_spans_peak_below_the_tuple_sets(texts, order, tuple_set_peak_mib):
    """S_9 and A_9 from two generators: many cosets of a group of order 2
    or 3.  Their peaks with image tuples in sets were 74.7 and 37.2 MiB."""
    gens = [parse_perm(t, 9) for t in texts]
    tracemalloc.start()
    try:
        g = generate_group(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == order
    assert peak < tuple_set_peak_mib * 2**20


@pytest.fixture(scope="module")
def sympy_group():
    return pytest.importorskip("sympy.combinatorics").PermutationGroup


@pytest.fixture(scope="module")
def sympy_perm():
    return pytest.importorskip("sympy.combinatorics").Permutation


@settings(max_examples=80)
@given(gens=generator_sets())
def test_order_matches_sympy(gens, sympy_group, sympy_perm):
    g = generate_group(gens)
    reference = sympy_group(*(sympy_perm([v - 1 for v in p.images]) for p in gens))
    assert g.order == reference.order()
    # the ground set is the moved points, so sympy's fixed singletons drop out
    orbits = sorted(tuple(sorted(p + 1 for p in o)) for o in reference.orbits() if len(o) > 1)
    assert orbits_on_points(g) == tuple(orbits)
    # a set holding the generators and closed under them is the group they span
    assert all(p in g for p in gens)
    assert all(compose(e, p) in g for e in g.elements for p in gens)


@settings(max_examples=60)
@given(gens=generator_sets())
def test_from_elements_round_trip(gens):
    g = generate_group(gens)
    assert PermGroup.from_elements(g.elements) == g
    assert PermGroup.from_elements(reversed(g.elements)) == g


@settings(max_examples=60)
@given(gens=generator_sets())
def test_derived_generators_are_the_greedy_choice(gens):
    g = generate_group(gens)
    derived = PermGroup.from_elements(g.elements).generators
    assert generate_group(derived, degree=g.degree) == g
    # scanning the sorted elements, each derived generator is the first
    # element outside the span of the earlier ones
    kept = 0
    span = generate_group([], degree=g.degree)
    for p in g.elements:
        if p in span:
            continue
        assert kept < len(derived) and p == derived[kept]
        kept += 1
        span = generate_group(derived[:kept], degree=g.degree)
    assert kept == len(derived)


@settings(max_examples=60)
@given(gens=generator_sets())
def test_closure_rebuild_keeps_the_greedy_generators(gens):
    """The rebuild spans only proper prefixes of the base's generators and
    scans only the leaders of the permutations outside the base, yet keeps
    what one greedy scan over those generators and all the permutations
    outside keeps."""
    n = gens[0].degree
    g = generate_group(gens + [compose(gens[-1], gens[0])])  # a redundant last one
    everything = symmetric_on(range(1, n + 1), n)
    outside = everything._rows[~np.isin(everything._ranks, g._ranks)]
    for extra in (outside[:0], outside):
        scan = itertools.chain((p._img for p in g.generators), map(tuple, extra.tolist()))
        bound = Budgets(materialization_bound=math.factorial(n))
        expected, _ = _greedy_span(scan, n, bound, g.order + len(extra))
        rebuilt = _closure_of_cosets(g, extra[_leading(extra, _chain_pairs(g._rows))], bound)
        assert rebuilt.order == g.order + len(extra)
        assert [p._img for p in rebuilt.generators] == expected


@settings(max_examples=60)
@given(gens=generator_sets(max_degree=6))
def test_one_block_leaders_are_the_least_of_each_left_coset(gens):
    """With all points as one block, the coset leaders of a group are the
    least element of each of its left cosets x.G, in lexicographic order,
    the identity first, and each one's index is its lex rank."""
    g = generate_group(gens)
    elements = g.element_images()
    seen, want = set(), []
    for x in itertools.permutations(range(g.degree)):  # lex order
        if x not in seen:
            seen.update(tuple(x[i] for i in h) for h in elements)  # x.h, h first
            want.append(x)
    everything = _YoungSubgroup([range(g.degree)], g.degree, Budgets())
    leaders = everything.coset_leaders(g._rows)
    rows = everything.rows(leaders)
    assert leaders.tolist() == _lex_ranks(rows).tolist()
    assert [tuple(row) for row in rows.tolist()] == want


def test_closure_rebuild_is_refused_before_its_rows_are_built():
    """A_9 on 10 points at k = 3 closes to S_9, 362,880 elements from one
    accepted coset of 181,440 rows.  The bound is checked before those
    rows are gathered, so the refusal peaks below that 1.8 MB array."""
    a9 = alternating_on(range(1, 10), 10)
    clear_partition_cache()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            closure_pruned(a9, 3, budgets=Budgets(materialization_bound=200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.budget_name, err.value.needed) == ("materialization", 362880)
    assert peak < 2**20


def test_closure_rebuild_respects_the_materialization_bound():
    # C_4 fits under the bound, its closure D_4 at k = 2 does not
    c4 = grp(4, "(1 2 3 4)")
    with pytest.raises(BudgetExceeded) as err:
        closure_pruned(c4, 2, budgets=Budgets(materialization_bound=7))
    assert err.value.budget_name == "materialization"

