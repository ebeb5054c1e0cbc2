"""Subgroup enumeration of small symmetric groups and the closure survey."""

import itertools
import math

import pytest

from permclosure import subgroups
from permclosure.perm import (
    PermGroup,
    Permutation,
    _conjugate_ranks,
    are_conjugate_in_symmetric,
)
from permclosure.subgroups import (
    EXPECTED_CLASS_COUNTS,
    EXPECTED_TOTALS,
    all_subgroups,
    chain_length_census,
    reference_table_rows,
)


# ---------------------------------------------------------------------------
# counting oracles


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_totals_and_class_counts(n):
    catalog = all_subgroups(n)
    assert catalog.total_subgroups == EXPECTED_TOTALS[n]
    assert len(catalog.classes) == EXPECTED_CLASS_COUNTS[n]
    assert sum(c.class_size for c in catalog.classes) == catalog.total_subgroups


def test_orders_satisfy_lagrange(s5_catalog):
    for cls in s5_catalog.classes:
        assert math.factorial(5) % cls.order == 0
        # class size divides the index as the normalizer contains the group
        assert (math.factorial(5) // cls.order) % cls.class_size == 0


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        all_subgroups(7)
    with pytest.raises(ValueError):
        all_subgroups(0)


def test_known_degree_three_classes():
    catalog = all_subgroups(3)
    shapes = sorted((c.order, c.class_size) for c in catalog.classes)
    assert shapes == [(1, 1), (2, 3), (3, 1), (6, 1)]


def test_every_subgroup_of_degree_four_has_two_generators(s4_catalog):
    """Each class representative is generated by some pair of its elements."""
    from permclosure.perm import generate_group

    for cls in s4_catalog.classes:
        rep = cls.representative
        if rep.order == 1:
            continue
        found = any(
            generate_group([x, y], degree=4).order == rep.order
            for x, y in itertools.product(rep.elements, repeat=2)
        )
        assert found, cls.order


# ---------------------------------------------------------------------------
# class structure


def test_members_are_conjugate_and_distinct(s4_catalog):
    for cls in s4_catalog.classes:
        members = cls.member_groups(4)
        assert len(members) == cls.class_size
        assert len({m.element_images() for m in members}) == cls.class_size
        for m in members[:3]:
            assert m.order == cls.order
            assert are_conjugate_in_symmetric(m, cls.representative)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_conjugate_ranks_are_the_class_members(n):
    for cls in all_subgroups(n).classes:
        rows = _conjugate_ranks(cls.representative)
        assert rows.shape == (cls.class_size, cls.order)
        assert tuple(map(tuple, rows.tolist())) == cls._members


def test_class_lookup(s4_catalog):
    from helpers import cyclic_4, klein_four

    cls = s4_catalog.class_of(cyclic_4())
    assert cls.order == 4 and cls.class_size == 3
    assert s4_catalog.class_of(klein_four()).class_size == 1
    with pytest.raises(LookupError):
        s4_catalog.class_of(PermGroup.from_elements([Permutation([1, 2, 3])]))


def test_enumeration_ignores_scan_order():
    """The candidate scan direction must not change the classes found."""
    for n in (3, 4, 5):
        forward = all_subgroups(n)
        backward = all_subgroups(n, _extension_order="reversed")
        key = lambda cat: sorted((c.order, c.class_size, c._members[0]) for c in cat.classes)
        assert key(forward) == key(backward)


# ---------------------------------------------------------------------------
# chain statistics


@pytest.mark.parametrize(
    "n,histogram",
    [(3, {1: 3, 2: 1}), (4, {1: 8, 2: 3}), (5, {1: 11, 2: 8})],
)
def test_chain_census_small_degrees(n, histogram):
    census = chain_length_census(n)
    assert census.histogram == histogram
    assert census.max_distinct == 2
    assert census.class_count == EXPECTED_CLASS_COUNTS[n]
    d = census.summary_dict()
    assert d["degree"] == n and d["max_distinct"] == 2


# ---------------------------------------------------------------------------
# the embedded survey reference


def test_reference_rows_shape():
    rows = reference_table_rows()
    assert len(rows) == 19
    degrees = {r[0] for r in rows}
    assert degrees == {3, 4, 5, 6}
    for degree, largest_k, group_name, closure_name in rows:
        assert 2 <= largest_k < degree
        assert group_name and closure_name
    # rows are unique
    assert len(set(rows)) == 19


def test_survey_refuses_rows_with_the_same_key(monkeypatch):
    monkeypatch.setattr(subgroups, "_match_name", lambda group, pool: "X")
    with pytest.raises(AssertionError, match="share the key"):
        subgroups.table1_report()
