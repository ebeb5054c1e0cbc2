"""Group materialization by Dimino's algorithm: orders against sympy, the
element-list round trip, the greedy generator choice, and the budget of a
closure rebuild."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import grp
from permclosure.budgets import Budgets
from permclosure.closure import closure_pruned
from permclosure.errors import BudgetExceeded
from permclosure.perm import PermGroup, Permutation, compose, generate_group


@st.composite
def generator_sets(draw):
    """One to four random permutations of a common degree from 1 to 7."""
    n = draw(st.integers(1, 7))
    images = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4))
    return [Permutation(img) for img in images]


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


def test_closure_rebuild_respects_the_materialization_bound():
    # C_4 fits under the bound, its closure D_4 at k = 2 does not
    c4 = grp(4, "(1 2 3 4)")
    with pytest.raises(BudgetExceeded) as err:
        closure_pruned(c4, 2, budgets=Budgets(materialization_bound=7))
    assert err.value.budget_name == "materialization"

