"""Closure algorithms, closure laws, function tables, and representability."""

import math

import pytest

from helpers import cyclic_4, grp, klein_four
from permclosure.budgets import Budgets, resolve
from permclosure.closure import (
    FunctionTable,
    NotRepresentable,
    _product_set,
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
from permclosure.errors import BudgetExceeded, DegreeMismatch, ParseError
from permclosure.perm import (
    PermGroup,
    alternating_on,
    direct_product,
    generate_group,
    parse_perm,
    symmetric_on,
)
from permclosure.tuples import TupleSpace, tuple_stabilizer


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


def _closure_kearnes_literal(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> PermGroup:
    """The same intersection taken over every tuple, no representative
    shortcut.  Test-only cross-check; degree capped at 4."""
    n = group.degree
    if n > 4:
        raise ValueError("literal intersection is for degree at most 4")
    b = resolve(budgets)
    space = TupleSpace(n, k, budgets=b)
    g_eltups = group.element_images()
    running: set[tuple[int, ...]] | None = None
    for t in range(space.size):
        stab = tuple_stabilizer(space.decode(t), degree=n, budgets=b)
        pset = _product_set(g_eltups, stab.elements)
        running = pset if running is None else running & pset
        if len(running) == len(g_eltups):
            break
    assert running is not None
    return PermGroup._build(n, running, None, None)


def test_intersection_shortcut_matches_literal_intersection(s4_catalog):
    """Representative tuples suffice: one product set per coordinate
    pattern gives the same intersection as all tuples."""
    for cls in s4_catalog.classes:
        g = cls.representative
        for k in (2, 3):
            assert closure_kearnes(g, k).closure == _closure_kearnes_literal(g, k)


def test_kearnes_is_capped_at_degree_six():
    with pytest.raises(ValueError):
        closure_kearnes(symmetric_on(range(1, 8), 7), 2)
    with pytest.raises(ValueError):
        _closure_kearnes_literal(grp(5, "(1 2 3 4 5)"), 2)


def test_alphabet_size_one_is_rejected():
    for fn in (closure_naive, closure_pruned, closure_kearnes):
        with pytest.raises(ValueError):
            fn(cyclic_4(), 1)


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
    assert "wall_time" in rep.summary_dict(include_timing=True)


def test_candidate_budget_refuses_up_front():
    with pytest.raises(BudgetExceeded) as err:
        closure_naive(symmetric_on(range(1, 6), 5), 2, budgets=Budgets(candidate_budget=100))
    assert err.value.budget_name == "candidate"


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
