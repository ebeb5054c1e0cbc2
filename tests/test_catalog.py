"""The named-group catalog, parametric families, and survey reports."""

import hashlib
import random

import pytest

from helpers import are_conjugate, relabel
from permclosure import budgets, catalog
from permclosure.budgets import KINDS, default_budgets
from permclosure.catalog import (
    catalog_entries,
    catalog_names,
    get_group,
    primitive_3closed_report,
    primitive_survey_names,
    seress_report,
    survey_candidates,
)
from permclosure.cli import main
from permclosure.data import load_expected_equiv_classes, load_reference_table
from permclosure.errors import CatalogValidationError, UnknownGroupName
from permclosure.perm import (
    Permutation,
    format_perm,
    is_primitive,
    is_transitive,
)


# ---------------------------------------------------------------------------
# the named entries

# sha256 over "name|degree|order|primitive|generators" lines, one per entry in
# order, generators in cycle notation joined by ";"; a builder that drifts
# changes it
CATALOG_DIGEST = "948e5adb60028ad3ca12e9596f4aa548c752fa4b95d65a930caa84de8d20417c"


def test_catalog_entries_match_the_recorded_digest():
    lines = [
        f"{e.name}|{e.degree}|{e.order}|{e.primitive}|"
        + ";".join(format_perm(g) for g in e.generators)
        for e in catalog_entries()
    ]
    assert len(lines) == 20
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CATALOG_DIGEST


def _spec_generators(name):
    return next(spec[5] for spec in catalog._NAMED_SPECS if spec[0] == name)


@pytest.fixture()
def fresh_catalog():
    catalog._catalog.cache_clear()
    yield
    catalog._catalog.cache_clear()


@pytest.mark.parametrize("spec, message", [
    (("AGL(1,5)", 5, 21, True, "", _spec_generators("AGL(1,5)")),
     "AGL(1,5): generators produce order 20, not 21"),
    (("F_21", 7, 21, False, "", _spec_generators("F_21")),
     "F_21: primitivity flag is wrong"),
    (("Two triangles", 6, 9, False, "", ("(1 2 3)", "(4 5 6)")),
     "Two triangles: generators are not transitive"),
])
def test_a_wrong_spec_is_refused(fresh_catalog, monkeypatch, capsys, spec, message):
    monkeypatch.setattr(catalog, "_NAMED_SPECS", (spec,))
    with pytest.raises(CatalogValidationError) as err:
        catalog_entries()
    assert str(err.value) == message
    assert main(["closure", f"catalog:{spec[0]}", "-k", "2"]) == 5
    assert message in capsys.readouterr().err


def test_spec_names_must_normalize_apart(fresh_catalog, monkeypatch):
    spec = ("AGL(1,5)", 5, 20, True, "", _spec_generators("AGL(1,5)"))
    monkeypatch.setattr(catalog, "_NAMED_SPECS", (spec, ("agl(1, 5)",) + spec[1:]))
    with pytest.raises(AssertionError):
        catalog_entries()


def test_the_environment_budget_does_not_reach_the_catalog_build(
    fresh_catalog, monkeypatch, capsys
):
    """A bound of 50 in the environment admits F_21 (order 21) and its
    closure, as the same bound given by flag does, although the catalog
    holds larger groups."""
    monkeypatch.setenv(KINDS["materialization"].env, "50")
    monkeypatch.setattr(budgets, "DEFAULT", default_budgets())
    assert main(["closure", "catalog:F_21", "-k", "3"]) == 0
    assert "closure order: 21" in capsys.readouterr().out


def test_entries_agree_with_sympy():
    """Order and primitivity of every entry, by sympy from its generators."""
    sympy = pytest.importorskip("sympy.combinatorics")
    for entry in catalog_entries():
        group = sympy.PermutationGroup([sympy.Permutation(list(g._img)) for g in entry.generators])
        assert group.order() == entry.order, entry.name
        assert group.is_primitive() == entry.primitive, entry.name


def test_every_entry_resolves_with_matching_order():
    for entry in catalog_entries():
        g = get_group(entry.name)
        assert g.order == entry.order, entry.name
        assert g.degree == entry.degree, entry.name
        assert g.ground_set == tuple(range(1, entry.degree + 1)), entry.name
        assert is_transitive(g), entry.name
        assert is_primitive(g) == entry.primitive, entry.name


def test_catalog_names_are_sorted_and_complete():
    names = catalog_names()
    assert len(names) == len(catalog_entries())
    assert "PGL(2,5)" in names and "R(cube)" in names


# ---------------------------------------------------------------------------
# name resolution


def test_parametric_families():
    assert get_group("S_4").order == 24
    assert get_group("A_6").order == 360
    assert get_group("C_6").order == 6
    assert get_group("D_6").order == 12
    assert get_group("D_5").order == 10
    assert get_group("S_1").order == 1
    assert get_group("A_2").order == 1


def test_aliases_resolve_to_the_same_object():
    assert get_group("AΓL(1,8)") is get_group("agammal(1,8)")
    assert get_group("AGammaL(1,8)") is get_group("A Gamma L(1, 8)")
    assert get_group("S_3≀S_2") is get_group("s3 wr s2")
    assert get_group("(S_3 ≀ S_2) ∩ A_6") is get_group("(s3 wr s2) cap a6")
    assert get_group("d5") is get_group("D_5")
    assert get_group("AGL(1, 9)") is get_group("agl(1,9)")


def test_unknown_names_list_the_catalog():
    for bad in ("M_10", "Q_8", "wat"):
        with pytest.raises(UnknownGroupName) as err:
            get_group(bad)
        assert "known" in str(err.value)
    for out_of_range in ("D_2", "C_0", "S_0", "A_0"):
        with pytest.raises(UnknownGroupName):
            get_group(out_of_range)


def test_catalog_entries_are_relabel_invariant():
    """A conjugated copy stays conjugate; spot check a few entries."""
    rng = random.Random(7)
    for name in ("PGL(2,5)", "F_21", "AGL(1,5)"):
        g = get_group(name)
        images = list(range(1, g.degree + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert are_conjugate(g, relabel(g, sigma))


# ---------------------------------------------------------------------------
# survey pools


def test_survey_candidate_pools():
    for n in range(2, 7):
        pool = survey_candidates(n)
        names = [name for name, _ in pool]
        assert len(names) == len(set(names))
        for name, group in pool:
            assert group.degree == n
            assert group.ground_set == tuple(range(1, n + 1)), name
    with pytest.raises(ValueError):
        survey_candidates(7)


def test_survey_pool_known_orders():
    orders = dict(
        (name, group.order) for name, group in survey_candidates(6)
    )
    assert orders["PGL(2,5)"] == 120
    assert orders["S_3×_sd S_3"] == 18
    assert orders["C_3≀S_2"] == 18
    assert orders["S_3≀S_2"] == 72
    assert orders["(S_3≀S_2)∩A_6"] == 36
    assert orders["R(cube)"] == 24
    assert orders["S(cube)"] == 48


def test_primitive_survey_names():
    assert primitive_survey_names(5) == ("C_5", "D_5", "AGL(1,5)", "A_5", "S_5")
    with pytest.raises(ValueError):
        primitive_survey_names(11)
    with pytest.raises(ValueError):
        primitive_survey_names(2)


# ---------------------------------------------------------------------------
# packaged expectations


def test_reference_table_loads():
    rows = load_reference_table()
    assert len(rows) == 19
    assert rows[0] == (3, 2, "A_3", "S_3")
    assert (6, 2, "R(cube)", "S(cube)") in rows


def test_expected_equivalence_classes_load():
    classes = load_expected_equiv_classes()
    assert set(classes) == set(range(3, 11))
    assert ("A_7", "S_7") in classes[7]
    flattened = [n for cls in classes[9] for n in cls]
    assert len(flattened) == len(set(flattened))


# ---------------------------------------------------------------------------
# reports


def test_pairwise_equivalence_survey_degree_five():
    rep = seress_report(5)
    assert rep.matches
    assert {frozenset(c) for c in rep.classes} == {frozenset(c) for c in rep.expected}
    d = rep.summary_dict()
    assert d["degree"] == 5 and d["matches"] is True


def test_pairwise_equivalence_survey_degree_six():
    assert seress_report(6).matches


def test_primitive_closure_report_small():
    rep = primitive_3closed_report(5)
    assert rep.matches
    by_name = {e[0]: e for e in rep.entries}
    assert by_name["A_5"][1] is False and by_name["A_5"][2] == 120
    assert by_name["S_5"][1] is True
    rep4 = primitive_3closed_report(4)
    assert rep4.matches and rep4.expected_nonclosed == ("A_4",)


def test_trivial_and_small_expected_sets():
    rep = primitive_3closed_report(3)
    assert rep.expected_nonclosed == ()
    assert rep.matches
