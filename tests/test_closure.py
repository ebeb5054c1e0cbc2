"""Closure algorithms, closure laws, function tables, and representability."""

import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from helpers import (
    cyclic_4,
    grp,
    klein_four,
    named_panel,
    relabel,
    sympy_closure_k,
    sympy_closure_k2,
    thickness_by_elements,
)
from permclosure import closure as closure_module, tuples as tuples_module
from permclosure.budgets import Budgets, resolve
from permclosure.catalog import catalog_entries, get_group
from permclosure.classify import wielandt_closure
from permclosure.closure import (
    FunctionTable,
    NotRepresentable,
    _accepted_rows,
    clear_closure_cache,
    closure_chain,
    closure_kearnes,
    closure_naive,
    closure_pruned,
    closure_report,
    galois_closure,
    invariance_group,
    is_closed,
    is_k_thick,
    min_codomain,
    min_codomain_report,
    orbit_coloring,
    orbit_equivalent,
)
from permclosure.errors import BudgetExceeded, DegreeMismatch, ParseError, UsageError
from permclosure.perm import (
    PermGroup,
    Permutation,
    alternating_on,
    direct_product,
    format_perm,
    full_orbits,
    generate_group,
    parse_perm,
    symmetric_on,
)
from permclosure.subgroups import all_subgroups
from permclosure.tuples import (
    TupleSpace,
    balanced_sizes,
    cached_orbit_partition,
    clear_partition_cache,
)


# ---------------------------------------------------------------------------
# known closures


def test_alternating_three_closes_to_symmetric():
    a3 = grp(3, "(1 2 3)")
    clo = galois_closure(a3, 2)
    assert clo == symmetric_on(range(1, 4), 3)
    assert is_closed(a3, 3)


def test_four_cycle_closes_to_dihedral_at_two_letters():
    clo = galois_closure(cyclic_4(), 2)
    assert clo.order == 8
    assert parse_perm("(1 3)", 4) in clo
    assert is_closed(cyclic_4(), 3)
    assert is_closed(cyclic_4(), 4)


def test_klein_four_is_closed_at_two_letters():
    assert is_closed(klein_four(), 2)


def test_symmetric_groups_are_closed_everywhere():
    for n in (2, 3, 4, 5):
        sn = symmetric_on(range(1, n + 1), n)
        for k in range(2, n + 2):
            assert is_closed(sn, k)


def test_closure_fixes_points_the_group_fixes():
    g = generate_group([parse_perm("(2 3 4)", 6)], degree=6)
    clo = galois_closure(g, 2)
    assert clo.ground_set == (2, 3, 4)
    assert clo.order == 6


def test_pruned_closure_past_degree_256():
    """At k >= n the stabilizer of a* is trivial, so no tuple is labelled;
    its runs are uint8 rows, shifted into the uint16 points of degree 300."""
    g = generate_group([parse_perm("(1 2)", 300)])
    rep = closure_pruned(g, 300)
    assert rep.closure == g and rep.candidates_examined == 2


# ---------------------------------------------------------------------------
# the three algorithms agree


@pytest.mark.parametrize("k", [2, 3])
def test_algorithms_agree_on_small_groups(k):
    groups = [
        cyclic_4(),
        klein_four(),
        grp(4, "(1 2 3)"),
        alternating_on(range(1, 5), 4),
        grp(5, "(1 2 3 4 5)"),
        direct_product(grp(5, "(1 2 3)"), symmetric_on((4, 5), 5)),
    ]
    for g in groups:
        a = closure_naive(g, k).closure
        b = closure_pruned(g, k).closure
        c = closure_kearnes(g, k).closure
        assert a.element_images() == b.element_images() == c.element_images()


@pytest.mark.parametrize("name", [e.name for e in catalog_entries() if e.degree <= 9])
def test_closures_at_two_letters_match_sympy(name):
    """Every named group of degree at most 9 against a closure built from
    outside the engine, sympy's subgroup search of S_n: the same order,
    and every generator sympy finds lies in the closure."""
    pytest.importorskip("sympy.combinatorics")
    g = get_group(name)
    oracle = sympy_closure_k2(g)
    closure = galois_closure(g, 2)
    assert oracle.order() == closure.order
    for s in oracle.generators:
        assert Permutation([v + 1 for v in s.array_form]) in closure, s


@pytest.mark.parametrize("k, degree", [(3, 4), (3, 5), (3, 6), (4, 4), (4, 5)])
def test_closures_past_two_letters_match_sympy(k, degree):
    """Every class representative of the degree against sympy's subgroup
    search for the permutations that keep each word of k^n in its orbit:
    the same order, and every generator sympy finds lies in the closure."""
    pytest.importorskip("sympy.combinatorics")
    for cls in all_subgroups(degree).classes:
        g = cls.representative
        oracle = sympy_closure_k(g, k)
        closure = galois_closure(g, k)
        assert oracle.order() == closure.order, g
        for s in oracle.generators:
            assert Permutation([v + 1 for v in s.array_form]) in closure, (g, s)


@seed(20261021)
@settings(max_examples=30)
@given(st.data())
def test_closure_laws_on_random_groups(data):
    """G <= G^(k), G^(k+1) <= G^(k), (G^(k))^(k) = G^(k), and relabelling
    commutes with the closure: (G^pi)^(k) = (G^(k))^pi."""
    n = data.draw(st.integers(1, 7), label="degree")
    perms = st.permutations(range(1, n + 1)).map(Permutation)
    g = generate_group(data.draw(st.lists(perms, min_size=1, max_size=3), label="G"))
    pi = data.draw(perms, label="pi")
    for k in range(2, 5):
        closure = galois_closure(g, k)
        assert g.is_subgroup_of(closure), k
        assert galois_closure(g, k + 1).is_subgroup_of(closure), k
        assert galois_closure(closure, k) == closure, k
        assert galois_closure(relabel(g, pi), k) == relabel(closure, pi), k


@settings(max_examples=30)
@given(st.data())
def test_the_balanced_class_decides_like_all_of_k_to_the_n(data):
    """Random groups of degree at most 7, at every k = 2..n: orbit
    equivalence on the balanced class gives the verdict of the full k^n
    labels, for a nested pair and for an unrelated one, and the pruned
    closure, tested on the class, is the naive one, tested on all k^n."""
    n = data.draw(st.integers(2, 7), label="degree")
    perms = st.permutations(range(1, n + 1)).map(Permutation)
    g = generate_group(data.draw(st.lists(perms, min_size=1, max_size=2), label="G"))
    nested = generate_group(list(g.generators) + [data.draw(perms, label="extra")])
    other = generate_group([data.draw(perms, label="other")])
    for k in range(2, n + 1):
        full = cached_orbit_partition(g, k)
        for h in (nested, other):
            assert orbit_equivalent(g, h, k) == full.equals(cached_orbit_partition(h, k)), (h, k)
        assert closure_pruned(g, k).closure == closure_naive(g, k).closure, k


def test_the_balanced_class_decides_where_the_hook_class_does_not():
    """G = <(3 4 5), (1 2)(4 5)> inside H = S_2 x S_3 at k = 3: their orbits
    agree on the tuples of content (3, 1, 1), but not on the balanced class
    of content (2, 2, 1).  So a test on the hook class would call G and H
    orbit equivalent and give H as G's closure."""
    g = grp(5, "(3 4 5)", "(1 2)(4 5)")
    h = grp(5, "(4 5)", "(3 4)", "(1 2)")
    space = TupleSpace(5, 3)
    digits = space.rows(0, space.size)
    content = np.stack([(digits == v).sum(axis=1) for v in range(3)], axis=1)
    labels = [cached_orbit_partition(x, 3).labels for x in (g, h)]
    hook = (content == (3, 1, 1)).all(axis=1)
    balanced = (content == (2, 2, 1)).all(axis=1)
    assert np.array_equal(labels[0][hook], labels[1][hook])
    assert not np.array_equal(labels[0][balanced], labels[1][balanced])
    assert not orbit_equivalent(g, h, 3)
    assert closure_pruned(g, 3).closure == g == closure_naive(g, 3).closure


def _fixing_permutations(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """stab(a) as 0-based image tuples: every permutation sigma of the
    coordinates with a[sigma(i)] == a[i] for all i, found by listing S_n."""
    n = len(a)
    return [
        img for img in itertools.permutations(range(n))
        if all(a[img[i]] == a[i] for i in range(n))
    ]


def _closure_kearnes_literal(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> PermGroup:
    """The same intersection taken over every tuple, no representative
    shortcut, each product set stab(a).G built as a set of image tuples,
    G applied first.  Test-only cross-check; degree capped at 4."""
    n = group.degree
    if n > 4:
        raise ValueError("literal intersection is for degree at most 4")
    space = TupleSpace(n, k, budgets=resolve(budgets))
    g_eltups = group.element_images()
    running: set[tuple[int, ...]] | None = None
    for t in range(space.size):
        pset = {
            tuple(gamma[v] for v in g)
            for gamma in _fixing_permutations(space.decode(t)) for g in g_eltups
        }
        running = pset if running is None else running & pset
        if len(running) == len(g_eltups):
            break
    assert running is not None
    return PermGroup.from_elements(Permutation._raw(t) for t in running)


def test_intersection_shortcut_matches_literal_intersection(s4_catalog):
    """Representative tuples suffice: one product set per coordinate
    pattern gives the same intersection as all tuples."""
    for cls in s4_catalog.classes:
        g = cls.representative
        for k in (2, 3):
            assert closure_kearnes(g, k).closure == _closure_kearnes_literal(g, k)


@pytest.mark.parametrize("name", ["C_7", "D_7", "F_21"])
def test_kearnes_matches_naive_past_degree_six(name):
    g = get_group(name)
    for k in (2, 3):
        assert closure_kearnes(g, k).closure == closure_naive(g, k).closure


# sha256 over "name|k|closure order|candidates_examined|closure generators"
# lines of closure_kearnes at k = 2 and 3 over helpers.named_panel(6), recorded
# while the rebuild scanned every extra row and stab(a) was listed by a
# product of symmetric-group row tables
KEARNES_DIGEST = "a5415d5708a93d0d72925251fbe4c0aeaa5cc500fd300384fe8e7a5aebd63dce"


def test_kearnes_panel_matches_the_recorded_digest():
    lines = []
    for name, g in named_panel(6):
        for k in (2, 3):
            rep = closure_kearnes(g, k)
            gens = " ".join(format_perm(p) for p in rep.closure.generators)
            lines.append(f"{name}|{k}|{rep.closure.order}|{rep.candidates_examined}|{gens}")
    assert len(lines) == 200
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KEARNES_DIGEST


def test_candidate_budget_refuses_kearnes_before_a_product_set(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a product set was started")

    monkeypatch.setattr(closure_module, "_YoungSubgroup", unreachable)
    with pytest.raises(BudgetExceeded) as err:
        closure_kearnes(cyclic_4(), 2, budgets=Budgets(candidate_budget=23))
    # the constant tuple comes first: stab . G is all of S_4, 24 candidates
    # of 4 entries each
    assert err.value.budget_name == "candidate" and err.value.needed == 4 * 24


@pytest.mark.parametrize("name, needed", [("AGL(1,8)", 10_128_384), ("A_9", 13_063_680)])
def test_kearnes_is_refused_late_under_default_budgets(name, needed):
    # under the default budgets, as the product sets that came before
    # count against the one that would come next
    with pytest.raises(BudgetExceeded) as err:
        closure_kearnes(get_group(name), 2)
    assert (err.value.budget_name, err.value.needed) == ("candidate", needed)


@pytest.mark.parametrize(
    "name, k, examined",
    [
        ("PGL(2,9)", 2, 1_484_697_600),
        ("PGL(2,9)", 3, 4_620_084_480),
        ("PGammaL(2,9)", 2, 834_624_000),
        ("PGammaL(2,9)", 3, 5_243_201_280),
    ],
)
def test_kearnes_closes_degree_ten_like_the_pruned_search(name, k, examined):
    """A second closure at degree 10 that does not rest on the balanced
    class: the coset leaders of G tested against one tuple per set
    partition."""
    g = get_group(name)
    rep = closure_kearnes(g, k, budgets=Budgets(candidate_budget=10**11))
    assert rep.closure == galois_closure(g, k)
    assert rep.candidates_examined == examined


@seed(20261020)
@settings(max_examples=30)
@given(st.data())
def test_kearnes_matches_naive_on_random_groups(data):
    n = data.draw(st.integers(1, 7), label="degree")
    perms = st.permutations(range(1, n + 1)).map(Permutation)
    g = generate_group(data.draw(st.lists(perms, min_size=1, max_size=3), label="G"))
    for k in range(2, 5):
        kearnes = closure_kearnes(g, k, budgets=Budgets(candidate_budget=10**12))
        assert kearnes.closure == closure_naive(g, k).closure, k


def test_kearnes_is_refused_late_without_building_product_sets():
    """C_10 at k=2 passes many partitions before the charge outgrows the
    budget; the product sets it charges are counted, not listed."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            closure_kearnes(get_group("C_10"), 2, budgets=Budgets(candidate_budget=10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.budget_name, err.value.needed) == ("candidate", 1_024_704_000)
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("k", [0, 1, -1])
def test_orbit_equivalence_rejects_an_alphabet_below_two(k):
    with pytest.raises(UsageError, match="alphabet must be at least 2"):
        orbit_equivalent(cyclic_4(), klein_four(), k)


def test_alphabet_size_one_is_rejected():
    for fn in (closure_naive, closure_pruned, closure_kearnes):
        with pytest.raises(ValueError):
            fn(cyclic_4(), 1)


def test_degree_zero_is_rejected():
    nothing = generate_group([], degree=0)
    for fn in (closure_naive, closure_pruned, closure_kearnes):
        with pytest.raises(UsageError):
            fn(nothing, 2)


def test_closure_cache_tells_ground_sets_apart():
    a = generate_group([parse_perm("(1 2)", 4)])
    b = generate_group([parse_perm("(1 2)", 4)], ground_set=[1, 2, 3, 4])
    assert a == b and a.ground_set != b.ground_set
    clear_closure_cache()
    assert galois_closure(a, 2).ground_set == (1, 2)
    assert galois_closure(b, 2).ground_set == (1, 2, 3, 4)
    assert galois_closure(b, 2).ground_set == closure_pruned(b, 2).closure.ground_set


def test_clear_functions_empty_the_caches_they_own():
    galois_closure(cyclic_4(), 2)
    assert orbit_equivalent(cyclic_4(), grp(4, "(1 2 3 4)", "(1 3)"), 2)
    assert tuples_module._partition.cache_info().currsize > 0
    assert tuples_module._cycle_census.cache_info().currsize > 0
    clear_partition_cache()
    for builder in (tuples_module._partition, tuples_module._cycle_census):
        info = builder.cache_info()
        assert (info.maxsize, info.currsize) == (24, 0)
    assert closure_module._closure.cache_info().currsize > 0
    clear_closure_cache()
    info = closure_module._closure.cache_info()
    assert (info.maxsize, info.currsize) == (1024, 0)


def test_closure_report_dispatch():
    rep = closure_report(cyclic_4(), 2, algorithm="naive")
    assert rep.algorithm == "naive" and rep.pruning_tuple is None
    rep = closure_report(cyclic_4(), 2, algorithm="pruned")
    assert rep.algorithm == "pruned" and rep.pruning_tuple == (1, 1, 2, 2)
    with pytest.raises(ValueError):
        closure_report(cyclic_4(), 2, algorithm="brutal")


def test_report_summary_shape():
    rep = closure_pruned(cyclic_4(), 2)
    d = rep.summary_dict()
    assert d["degree"] == 4 and d["k"] == 2
    assert d["group_order"] == 4 and d["closure_order"] == 8
    assert d["closed"] is False
    assert d["candidates_examined"] >= 8
    assert "wall_time" not in d


def test_candidate_budget_refuses_up_front():
    with pytest.raises(BudgetExceeded) as err:
        closure_naive(symmetric_on(range(1, 6), 5), 2, budgets=Budgets(candidate_budget=100))
    assert err.value.budget_name == "candidate"


# ---------------------------------------------------------------------------
# the pruned algorithm without the product set

# sha256 over "degree|k|class index|candidates_examined|closure generators"
# lines of closure_pruned, recorded while the pruned algorithm still built the
# product set stab(a*).G tuple by tuple
PANEL_DIGEST = "87bd8c366f354f6c5cbde6f26b0e2c1c5f4f31b3606deb39253f9132886598f1"


@pytest.fixture(scope="module")
def class_panel():
    """(degree, class index, representative) for every subgroup class of
    degree 2 to 6."""
    return [
        (n, idx, cls.representative)
        for n in range(2, 7)
        for idx, cls in enumerate(all_subgroups(n).classes)
    ]


def test_pruned_panel_matches_the_recorded_digest(class_panel):
    lines = []
    for n, idx, g in class_panel:
        for k in range(2, n + 1):
            rep = closure_pruned(g, k)
            gens = " ".join(format_perm(p) for p in rep.closure.generators)
            lines.append(f"{n}|{k}|{idx}|{rep.candidates_examined}|{gens}")
    assert len(lines) == 399
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PANEL_DIGEST


def test_pruned_equals_naive_on_the_panel(class_panel):
    for n, idx, g in class_panel:
        for k in range(2, n + 1):
            naive = closure_naive(g, k).closure
            pruned = closure_pruned(g, k).closure
            assert naive.element_images() == pruned.element_images(), (n, idx, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coset_leaders_are_the_least_of_each_left_coset(n):
    """For every class representative G of degree n at k = 2 and 3, with
    H = G ∩ stab(a*), the leaders are the ranks in stab(a*) of the least
    element of each left coset of H in stab(a*), listed by brute force."""
    for cls in all_subgroups(n).classes:
        inside = set(cls.representative.element_images())
        for k in (2, 3):
            sizes = balanced_sizes(n, k)
            a = np.repeat(np.arange(len(sizes)), sizes)
            stab = [x for x in itertools.permutations(range(n))  # lex order
                    if all(a[x[i]] == a[i] for i in range(n))]
            h = [x for x in stab if x in inside]
            seen, want = set(), []
            for rank, x in enumerate(stab):
                if x not in seen:
                    seen.update(tuple(x[i] for i in y) for y in h)
                    want.append(rank)
            young = closure_module._YoungSubgroup(_runs(sizes), n, Budgets())
            got = young.coset_leaders(np.array(h, dtype=np.uint8))
            assert got.tolist() == want, (n, cls.representative, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_block_leaders_are_the_least_of_each_left_coset(n):
    """For every class representative G of degree n, and for G relabelled
    by the shuffle 1, 3, 5, ..., 2, 4, ..., which scatters its orbits, with
    the point orbits as blocks the leaders as rows are the least element of
    each left coset of G in the product of the symmetric groups on the
    orbits, listed by brute force; the identity comes first."""
    shuffle = Permutation(list(range(1, n + 1, 2)) + list(range(2, n + 1, 2)))
    scattered = 0
    for g in (h for cls in all_subgroups(n).classes
              for h in (cls.representative, relabel(cls.representative, shuffle))):
        inside = g.element_images()
        orbits = full_orbits(g, n)
        orbit_of = {p - 1: i for i, o in enumerate(orbits) for p in o}
        product = [x for x in itertools.permutations(range(n))  # lex order
                   if all(orbit_of[x[i]] == orbit_of[i] for i in range(n))]
        seen, want = set(), []
        for x in product:
            if x not in seen:
                seen.update(tuple(x[i] for i in h) for h in inside)  # x.h, h first
                want.append(x)
        young = closure_module._YoungSubgroup([np.array(o) - 1 for o in orbits], n, Budgets())
        assert young.order == len(product)
        leaders = young.coset_leaders(g._rows)
        rows = [tuple(row) for row in young.rows(leaders).tolist()]
        assert sorted(rows) == want and rows[0] == want[0], (n, g)
        assert np.all(np.diff(leaders) > 0)
        scattered += any(o[-1] - o[0] >= len(o) for o in orbits)
    assert scattered or n <= 3  # from degree 4 on, blocks that are not runs


@pytest.mark.parametrize("name, k", [("A_8", 4), ("A_9", 3)])
def test_naive_closure_tests_each_coset_once(name, k):
    """Under default budgets, cold, the naive closures of A_8 at k = 4 and
    of A_9 at k = 3 are S_n, with all n! permutations examined, in under
    5 s and 64 MiB: the one coset of A_n outside it is tested by one row,
    not n!/2."""
    group = get_group(name)
    n = group.degree
    clear_partition_cache()
    tracemalloc.start()
    started = time.perf_counter()
    try:
        rep = closure_naive(group, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    assert rep.closure.order == rep.candidates_examined == math.factorial(n)
    assert elapsed < 5 and peak < 64 * 2**20


def _dihedral(n: int) -> PermGroup:
    rotation = parse_perm("(" + " ".join(map(str, range(1, n + 1))) + ")", n)
    flip = parse_perm("".join(f"({i} {n + 2 - i})" for i in range(2, (n + 3) // 2)), n)
    return generate_group([rotation, flip])


def test_d12_is_refused_before_anything_is_materialized():
    d12 = _dihedral(12)
    assert d12.order == 24
    with pytest.raises(BudgetExceeded) as err:
        closure_pruned(d12, 2)
    assert (err.value.budget_name, err.value.needed, err.value.allowed) == (
        "candidate", 12441600, 10000000,
    )


def test_symmetric_tables_are_charged_before_they_are_built():
    """With the candidate budget raised past 11!, the searches that list
    cosets in S_11 are refused by the materialization bound, 10!, before
    the 39,916,800-row table of S_11 or any label is built."""
    c11, raised = get_group("C_11"), Budgets(candidate_budget=10**8)
    table = FunctionTable(11, 2, 2, np.ones(2**11, dtype=np.int32))
    calls = [
        lambda: closure_naive(c11, 2, budgets=raised),
        lambda: invariance_group(table, budgets=raised),
        lambda: wielandt_closure(c11, 2, budgets=raised),
        lambda: closure_kearnes(c11, 2, budgets=Budgets(candidate_budget=10**12)),
    ]
    for call in calls:
        clear_partition_cache()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as err:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.budget_name, err.value.needed) == ("materialization", 39916800)
        assert peak < 2**20, peak


def test_materialization_budget_is_checked_before_the_candidate_budget():
    with pytest.raises(BudgetExceeded) as err:
        closure_pruned(_dihedral(12), 2, budgets=Budgets(materialization_bound=518399))
    assert (err.value.budget_name, err.value.needed) == ("materialization", 518400)


def test_c12_at_two_letters_is_closed():
    c12 = grp(12, "(1 2 3 4 5 6 7 8 9 10 11 12)")
    clear_partition_cache()
    tracemalloc.start()
    try:
        rep = closure_pruned(c12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.closure.order == 12
    assert rep.candidates_examined == 6220800
    assert peak < 150 * 2**20


def test_candidate_test_allocates_no_digit_matrix():
    """Cold, the pruned closure of A_8 at k = 5 peaks below one (5^8, 8)
    int32 matrix: it labels and scans only the 5,040-tuple balanced class,
    so no array over the 5^8 tuples is built."""
    a8 = get_group("A_8")
    clear_partition_cache()
    tracemalloc.start()
    try:
        rep = closure_pruned(a8, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.closure.order == 40320
    assert peak < 5**8 * 8 * 4


def test_stabilizer_membership_allocates_no_intp_matrix():
    """With S_9's partition at k = 3 warm, the pruned closure peaks below
    half a (|G|, n) intp array: the run map that picks G ∩ stab(a*) has the
    rows' own dtype, so indexing it with G's rows stays small."""
    s9 = symmetric_on(range(1, 10), 9)
    cached_orbit_partition(s9, 3)
    tracemalloc.start()
    try:
        rep = closure_pruned(s9, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.closure == s9
    assert peak < s9.order * s9.degree * np.dtype(np.intp).itemsize // 2


# ---------------------------------------------------------------------------
# the batched candidate test


def _accepts_by_index_map(space, labels, row) -> bool:
    imap = space.coordinate_index_map(Permutation([v + 1 for v in row.tolist()]))
    return bool(np.array_equal(labels[imap], labels))


def _one_run(rows):
    """Explicit image rows as one run of all points."""
    return [(np.arange(rows.shape[1]), rows, np.arange(len(rows)))]


def _runs(sizes):
    """The points of consecutive runs of the given sizes, as blocks."""
    return np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])


def test_tester_with_no_candidates():
    part = cached_orbit_partition(cyclic_4(), 2)
    out = _accepted_rows(part.space, part.labels, _one_run(np.empty((0, 4), dtype=np.uint8)))
    assert out.size == 0 and out.dtype == np.intp


@pytest.mark.parametrize("cells", [64, closure_module._TEST_CELLS])
def test_tester_matches_one_map_at_a_time(monkeypatch, cells):
    """All of S_4 against C_4's orbits at k = 2 and 3.  With 64 cells a
    block holds 16 candidates and a chunk at most 64 / (live candidates)
    tuples, so the accepted rows fall in both blocks and every block is
    tested in several chunks."""
    monkeypatch.setattr(closure_module, "_TEST_CELLS", cells)
    rows = np.array(list(itertools.permutations(range(4))), dtype=np.uint8)
    for k in (2, 3):
        part = cached_orbit_partition(cyclic_4(), k)
        got = _accepted_rows(part.space, part.labels, _one_run(rows))
        want = [i for i, row in enumerate(rows)
                if _accepts_by_index_map(part.space, part.labels, row)]
        assert got.tolist() == want
        assert got[0] == 0  # the identity row
    assert want == [0, 9, 16, 18]  # C_4 itself at k = 3, in blocks 0 and 1
    # wide spaces: arity 9 over 2 letters, arity 3 over 9 letters, and the
    # 504 injective point triples of degree 9 as a content class
    rng = np.random.default_rng(5)
    agl = get_group("AGL(1,9)")
    agl_rows = np.concatenate([agl._rows, [rng.permutation(9) for _ in range(120)]])
    wide = [
        (agl, 2, None, agl_rows),
        (grp(3, "(1 2 3)"), 9, None, np.array(list(itertools.permutations(range(3))))),
        (agl, 4, (6, 1, 1, 1), agl_rows),
    ]
    for group, k, content, rows in wide:
        rows = rows.astype(np.uint8)[rng.permutation(len(rows))]
        part = cached_orbit_partition(group, k, content=content)
        got = _accepted_rows(part.space, part.labels, _one_run(rows))
        want = [i for i, row in enumerate(rows)
                if _accepts_by_index_map(part.space, part.labels, row)]
        assert got.tolist() == want
        assert len(want) >= group.order
        assert len(want) < len(rows)


@pytest.mark.parametrize("cells", [64, 4096, closure_module._TEST_CELLS])
@pytest.mark.parametrize("name, k, accepted", [("C_10", 3, 1), ("AGL(1,9)", 2, 2)])
def test_tester_takes_young_subgroup_ranks_as_runs(monkeypatch, cells, name, k, accepted):
    """Every element of stab(a*), given by its rank and split into one run
    per class, against the group's orbits on the balanced class: the
    verdicts are those of one map at a time.  With 64 cells a block holds
    fewer candidates than the runs have local rows, so they are tested as
    explicit rows; with 4096 there are several blocks of run tables.
    C_10 meets stab(a*) only in the identity at k = 3, so every other
    element fails."""
    monkeypatch.setattr(closure_module, "_TEST_CELLS", cells)
    group = get_group(name)
    sizes = balanced_sizes(group.degree, k)
    stab = closure_module._YoungSubgroup(_runs(sizes), group.degree, Budgets())
    part = cached_orbit_partition(group, k, content=sizes)
    ranks = np.arange(stab.order)
    got = _accepted_rows(part.space, part.labels, stab.runs(ranks))
    want = [r for r, row in zip(ranks, stab.rows(ranks))
            if _accepts_by_index_map(part.space, part.labels, row)]
    assert got.tolist() == want
    assert want[0] == 0 and len(want) == accepted


def test_tester_verdicts_do_not_change_under_inversion():
    """The accepted permutations form a group, so a row and its inverse
    get the same verdict; the tester rests on that."""
    rng = np.random.default_rng(9)
    agl = get_group("AGL(1,9)")
    rows = np.concatenate([agl._rows, [rng.permutation(9) for _ in range(200)]])
    rows = rows.astype(np.uint8)[rng.permutation(len(rows))]
    inverses = np.argsort(rows, axis=1).astype(np.uint8)
    for k, content in ((2, None), (3, balanced_sizes(9, 3))):
        part = cached_orbit_partition(agl, k, content=content)
        verdicts = [_accepts_by_index_map(part.space, part.labels, row) for row in rows]
        inverse_verdicts = [_accepts_by_index_map(part.space, part.labels, row)
                            for row in inverses]
        assert verdicts == inverse_verdicts
        assert _accepted_rows(part.space, part.labels, _one_run(inverses)).tolist() == [
            i for i, v in enumerate(verdicts) if v
        ]


def test_tester_with_keys_over_forty_points():
    """The points of degree 40 as the class of content (1, 39) over 2
    letters, whose keys run below 2^40.  The product of the symmetric
    groups on the orbits of <(1 2 3)(4 5)>, which keeps every point orbit,
    and random permutations of the 40 points are tested against one map
    at a time as rows, and so is the product with the symmetric group on
    (6 7 8) as runs of ranks."""
    g = grp(40, "(1 2 3)(4 5)")
    part = cached_orbit_partition(g, 2, content=(1, 39))
    assert part.space.weights[0] == 2**39 and part.orbit_count == 37
    rng = np.random.default_rng(40)
    product = direct_product(symmetric_on((1, 2, 3), 40), symmetric_on((4, 5), 40))
    rows = np.concatenate([product._rows, [rng.permutation(40) for _ in range(20)]])
    rows = rows.astype(np.uint8)[rng.permutation(len(rows))]
    got = _accepted_rows(part.space, part.labels, _one_run(rows))
    want = [i for i, row in enumerate(rows)
            if _accepts_by_index_map(part.space, part.labels, row)]
    assert got.tolist() == want and len(want) == product.order
    # 72 candidates against 46 local rows: the first chunk adds run tables
    young = closure_module._YoungSubgroup(_runs((3, 2, 3) + (1,) * 32), 40, Budgets())
    ranks = np.arange(young.order)
    got = _accepted_rows(part.space, part.labels, young.runs(ranks))
    want = [r for r, row in zip(ranks, young.rows(ranks))
            if _accepts_by_index_map(part.space, part.labels, row)]
    assert got.tolist() == want and len(want) == product.order


def test_tester_reads_the_first_tuple_of_every_later_chunk(monkeypatch):
    """Over {1, 2}^5, labels that set the tuple 01000 apart from all the
    others: a permutation keeps them exactly when it fixes point 2.  Every
    element of S_3 x S_2 that moves point 2 breaks them at exactly two of
    the tuples 00100, 01000 and 10000, which are tuples 4, 8 and 16.  With
    ``_FIRST_CELLS`` = 1 the first chunk is tuple 1 and the later ones start
    at 2, 4, 8 and 16, so every failure is seen only at the first tuple of
    a later chunk.  The candidates go in as rows and as runs of ranks."""
    monkeypatch.setattr(closure_module, "_FIRST_CELLS", 1)
    starts = []
    rows_of = TupleSpace.rows

    def rows(space, lo, hi):
        starts.append(lo)
        return rows_of(space, lo, hi)

    monkeypatch.setattr(TupleSpace, "rows", rows)
    space = TupleSpace(5, 2)
    labels = np.zeros(space.size, dtype=np.intp)
    labels[8] = 8
    young = closure_module._YoungSubgroup(_runs((3, 2)), 5, Budgets())
    ranks = np.arange(young.order)
    candidates = young.rows(ranks)
    want = [r for r, row in zip(ranks, candidates) if row[1] == 1]
    assert want == [r for r, row in zip(ranks, candidates)
                    if _accepts_by_index_map(space, labels, row)]
    assert len(want) == 4  # <(1 3), (4 5)>
    for runs in (_one_run(candidates), young.runs(ranks)):
        starts.clear()
        assert _accepted_rows(space, labels, runs).tolist() == want
        assert starts == [1, 2, 4, 8, 16]


# ---------------------------------------------------------------------------
# closure laws (small samples; the verification suite runs the full battery)


@pytest.mark.parametrize("k", [2, 3])
def test_closure_is_extensive_and_idempotent(k):
    for g in (cyclic_4(), grp(4, "(1 2 3)"), klein_four()):
        clo = galois_closure(g, k)
        assert g <= clo
        assert galois_closure(clo, k) == clo


def test_closures_shrink_as_the_alphabet_grows():
    g = alternating_on(range(1, 6), 5)
    orders = [galois_closure(g, k).order for k in range(2, 7)]
    assert orders == sorted(orders, reverse=True)
    for k in range(2, 6):
        assert galois_closure(g, k + 1) <= galois_closure(g, k)


def test_orbit_equivalence_matches_closure_equality():
    c4, d4 = cyclic_4(), grp(4, "(1 2 3 4)", "(1 3)")
    assert orbit_equivalent(c4, d4, 2)
    assert not orbit_equivalent(c4, d4, 3)
    assert not orbit_equivalent(c4, klein_four(), 2)
    with pytest.raises(DegreeMismatch):
        orbit_equivalent(c4, grp(5, "(1 2 3 4 5)"), 2)


def _labelling_spy(monkeypatch, refuse=lambda group, space: False) -> list:
    """Record the order of each group whose orbits are labelled, and fail
    a labelling that ``refuse`` names."""
    labelled = []
    real = tuples_module.orbit_partition

    def spy(group, space):
        assert not refuse(group, space), f"labelled {space!r} for a group of order {group.order}"
        labelled.append(group.order)
        return real(group, space)

    monkeypatch.setattr(tuples_module, "orbit_partition", spy)
    return labelled


@pytest.mark.parametrize("small, large, k", [
    ("AGL(1,9)", "AGammaL(1,9)", 3),
    ("PSL(2,8)", "PGammaL(2,8)", 3),
    ("ASL(2,3)", "AGL(2,3)", 4),
    ("PGL(2,9)", "PGammaL(2,9)", 4),
    ("C_9", "D_9", 3),
])
def test_nested_verdicts_label_no_tuple(monkeypatch, small, large, k):
    """Groups no larger than the balanced class are counted there by
    their cycle index, whichever order they come in, and the verdict is
    the labelled partitions' verdict."""
    g, h = get_group(small), get_group(large)
    content = balanced_sizes(g.degree, k)
    want = cached_orbit_partition(g, k, content=content).equals(
        cached_orbit_partition(h, k, content=content)
    )
    clear_partition_cache()
    _labelling_spy(monkeypatch, refuse=lambda group, space: True)
    class_size = math.factorial(g.degree) // math.prod(map(math.factorial, content))
    assert g.is_subgroup_of(h) and h.order <= class_size
    assert orbit_equivalent(g, h, k) == want == orbit_equivalent(h, g, k)


def test_a_nested_verdict_meets_a_count_and_a_labelling(monkeypatch):
    """Where the balanced class is smaller than the larger group only, the
    smaller group is counted by its cycle index and the larger labelled.
    C_4 <= D_4 at k = 2 have 2 orbits each on the 6 tuples of the class;
    D_5 <= AGL(1,5) have 2 against 1 on its 10."""
    labelled = _labelling_spy(monkeypatch)
    clear_partition_cache()
    assert orbit_equivalent(cyclic_4(), _dihedral(4), 2)
    assert labelled == [8]
    assert not orbit_equivalent(get_group("AGL(1,5)"), get_group("D_5"), 2)
    assert labelled == [8, 20]


def test_orbit_equivalence_is_refused_warm_as_cold():
    """The tuple budget is checked before the cycle census cache is read,
    so censuses taken under the default budget do not let a smaller one
    through."""
    c8, d8 = get_group("C_8"), get_group("D_8")
    small = Budgets(tuple_budget=10)
    clear_partition_cache()
    with pytest.raises(BudgetExceeded):
        orbit_equivalent(c8, d8, 3, budgets=small)
    assert not orbit_equivalent(c8, d8, 3)  # counts both groups by cycle index
    with pytest.raises(BudgetExceeded) as err:
        orbit_equivalent(c8, d8, 3, budgets=small)
    assert (err.value.budget_name, err.value.needed) == ("tuple-space", 560)


def test_closure_is_refused_warm_as_cold():
    """The closure cache keys on the budgets, so a closure computed under
    the defaults does not answer a call whose tuple budget is below the
    balanced class of 4,200 tuples."""
    group = get_group("PGL(2,9)")
    small = Budgets(tuple_budget=100)
    clear_closure_cache()
    with pytest.raises(BudgetExceeded):
        galois_closure(group, 3, budgets=small)
    assert galois_closure(group, 3).order == 720
    for call in (galois_closure, is_closed):
        with pytest.raises(BudgetExceeded) as err:
            call(group, 3, budgets=small)
        assert (err.value.budget_name, err.value.needed) == ("tuple-space", 4200)


# ---------------------------------------------------------------------------
# chains


def test_chain_of_even_product_on_seven_points():
    g = direct_product(alternating_on((1, 2, 3), 7), alternating_on((4, 5, 6, 7), 7))
    chain = closure_chain(g)
    orders = [e.closure.order for e in chain.entries]
    assert orders == [144, 72, 36, 36, 36, 36]
    assert chain.largest_nonclosed_k == 3
    assert chain.distinct_count == 3
    assert [h.order for h in chain.distinct_groups()] == [144, 72, 36]


def test_chain_of_a_closed_group_is_flat():
    chain = closure_chain(klein_four())
    assert chain.largest_nonclosed_k is None
    assert chain.distinct_count == 1
    assert all(e.closure == klein_four() for e in chain.entries)


# ---------------------------------------------------------------------------
# thickness


def test_thickness_matches_one_element_at_a_time():
    """The orbit-stabilizer answer, witness included, is that of marking
    the tuples each element fixes: on every class representative of degree
    at most 6 with a nonempty ground set and every catalog group, at
    k = 2, 3 where k^m is at most 10^6."""
    cases = 0
    for name, g in named_panel(10):
        for k in (2, 3):
            if g.ground_set and k ** len(g.ground_set) <= 10**6:
                assert is_k_thick(g, k) == thickness_by_elements(g, k), (name, k)
                cases += 1
    assert cases == 214


def test_thickness_labels_once_without_the_elements():
    s9 = symmetric_on(range(1, 10), 9)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        assert is_k_thick(s9, 2) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    assert elapsed < 0.05 and peak < 2**20, (elapsed, peak)


def test_thickness_witnesses():
    d4 = grp(4, "(1 2 3 4)", "(1 3)")
    ok, witness = is_k_thick(d4, 2)
    assert ok and witness is None
    ok, witness = is_k_thick(cyclic_4(), 2)
    assert not ok and witness is not None
    # the witness really is uncovered: only the identity stabilizes it
    stab = [p for p in cyclic_4().elements
            if tuple(witness[p(i) - 1] for i in range(1, 5)) == witness]
    assert len(stab) == 1


# ---------------------------------------------------------------------------
# function tables


MAJORITY = "\n".join(
    ["3 2 2"]
    + [
        f"{a} {b} {c} -> {2 if (a, b, c).count(2) >= 2 else 1}"
        for a in (1, 2) for b in (1, 2) for c in (1, 2)
    ]
) + "\n"


def test_table_round_trip(tmp_path):
    table = FunctionTable.from_text(MAJORITY)
    assert table.value((2, 1, 2)) == 2 and table.value((2, 1, 1)) == 1
    assert FunctionTable.from_text(table.to_text()) == table
    path = tmp_path / "maj.tbl"
    table.write(path)
    assert FunctionTable.read(path) == table


def test_table_default_fills_gaps():
    table = FunctionTable.from_text("2 2 3\ndefault 3\n1 1 -> 1\n")
    assert table.value((1, 1)) == 1
    assert table.value((2, 1)) == 3


def test_table_parse_errors_carry_line_numbers():
    cases = [
        ("3 2\n", 1, "header"),
        ("2 2 2\n1 1 => 1\n", 2, "expected"),
        ("2 2 2\n1 1 -> 1\n1 1 -> 2\n", 3, "twice"),
        ("2 2 2\n1 3 -> 1\n", 2, "1..2"),
        ("2 2 2\n1 1 -> 5\n", 2, "1..2"),
        ("2 2 2\n1 1 1 -> 1\n", 2, "expected 2"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as err:
            FunctionTable.from_text(text)
        assert err.value.line == line, text
        assert fragment in str(err.value)


def test_partial_table_without_default_is_rejected():
    with pytest.raises(ParseError) as err:
        FunctionTable.from_text("2 2 2\n1 1 -> 1\n")
    assert "not total" in str(err.value)


def test_invariance_group_of_majority_is_fully_symmetric():
    table = FunctionTable.from_text(MAJORITY)
    assert invariance_group(table) == symmetric_on(range(1, 4), 3)


def test_invariance_group_of_a_projection():
    # value = first coordinate: anything fixing position 1 preserves it
    table = FunctionTable(3, 2, 2, {t: t[0] for t in
                                    [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]})
    assert invariance_group(table) == symmetric_on((2, 3), 3)


def test_orbit_coloring_realizes_the_closure(s4_catalog):
    for cls in s4_catalog.classes[:6]:
        g = cls.representative
        for k in (2, 3):
            table = orbit_coloring(g, k)
            assert invariance_group(table) == galois_closure(g, k)


# ---------------------------------------------------------------------------
# least codomain


def test_klein_four_needs_three_colors():
    rep = min_codomain_report(klein_four(), 2)
    assert rep.result == 3
    assert rep.colorings_tested == {1: 1, 2: 63, 3: 17}
    assert invariance_group(rep.witness) == klein_four()
    d = rep.summary_dict()
    assert d["representable"] is True and d["min_codomain"] == 3


def test_too_many_orbits_is_a_usage_error_naming_max_orbits():
    """``max_orbits`` is no budget, so its refusal names the argument: a
    UsageError, not a BudgetExceeded whose kind the command line lacks."""
    with pytest.raises(UsageError, match=r"7 orbits on 2\^4 pass max_orbits=6"):
        min_codomain_report(klein_four(), 2, max_orbits=6)
    assert min_codomain(klein_four(), 2, max_orbits=7) == 3


def test_too_many_orbits_are_refused_before_k_to_the_n_is_labelled(monkeypatch):
    """The orbits are counted by the cycle index first; only the closure's
    balanced class is labelled before the refusal."""
    _labelling_spy(monkeypatch, refuse=lambda group, space: isinstance(space, TupleSpace))
    clear_partition_cache()
    with pytest.raises(UsageError, match=r"7 orbits on 2\^4 pass max_orbits=6"):
        min_codomain_report(klein_four(), 2, max_orbits=6)
    with pytest.raises(UsageError, match=r"27 orbits on 3\^4 pass max_orbits=16"):
        min_codomain_report(klein_four(), 3)


def test_min_codomain_reports_are_unchanged_and_small():
    """Summaries recorded while every outside permutation kept its own
    index map; ASL(3,2) at k = 2 then peaked at about 85 MB."""
    klein = min_codomain_report(klein_four(), 2).summary_dict()
    assert klein == {
        "degree": 4, "k": 2, "group_order": 4, "colorings_tested": {"1": 1, "2": 63, "3": 17},
        "representable": True, "min_codomain": 3,
    }
    clear_closure_cache()
    clear_partition_cache()
    tracemalloc.start()
    try:
        asl = min_codomain_report(get_group("ASL(3,2)"), 2).summary_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asl == {
        "degree": 8, "k": 2, "group_order": 1344, "colorings_tested": {"1": 1, "2": 16},
        "representable": True, "min_codomain": 2,
    }
    assert peak < 16 * 2**20


def test_nonclosed_groups_are_never_representable():
    out = min_codomain(grp(3, "(1 2 3)"), 2)
    assert isinstance(out, NotRepresentable)
    assert not out
    assert out.closure.order == 6


def test_full_symmetric_needs_one_color():
    assert min_codomain(symmetric_on(range(1, 4), 3), 2) == 1


def test_witnesses_always_verify():
    for g in (grp(4, "(1 2 3 4)", "(1 3)"), symmetric_on((1, 2), 4)):
        rep = min_codomain_report(g, 2)
        assert isinstance(rep.result, int)
        assert invariance_group(rep.witness) == g
        assert set(rep.witness.values_array.tolist()) == set(range(1, rep.result + 1))
