"""Subgroup enumeration of small symmetric groups and the closure survey."""

import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import are_conjugate, conjugate_ranks, relabel
from permclosure import subgroups
from permclosure.perm import (
    PermGroup,
    Permutation,
    _lex_rank,
    _symmetric_rows,
    generate_group,
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
            assert are_conjugate(m, cls.representative)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_conjugate_ranks_are_the_class_members(n):
    for cls in all_subgroups(n).classes:
        rows = conjugate_ranks(cls.representative)
        assert rows.shape == (cls.class_size, cls.order)
        assert tuple(map(tuple, rows.tolist())) == cls._members


def test_class_lookup(s4_catalog):
    from helpers import cyclic_4, klein_four

    cls = s4_catalog.class_of(cyclic_4())
    assert cls.order == 4 and cls.class_size == 3
    assert s4_catalog.class_of(klein_four()).class_size == 1
    with pytest.raises(LookupError):
        s4_catalog.class_of(PermGroup.from_elements([Permutation([1, 2, 3])]))


def test_enumeration_ignores_scan_order(monkeypatch):
    """Spanning each label class from its greatest candidate instead of its
    least spans other groups but must find the same classes."""
    spanned = []
    real = subgroups._span

    def recording(mul, base, gens):
        spanned.append(gens.tolist())
        return real(mul, base, gens)

    subgroups._enumerate.cache_clear()
    monkeypatch.setattr(subgroups, "_span", recording)
    for n in (3, 4, 5):
        forward = all_subgroups(n)
        forward_spans = sorted(spanned)
        spanned.clear()
        backward = subgroups._enumerate(n, "reversed")
        assert sorted(spanned) != forward_spans
        spanned.clear()
        key = lambda cat: sorted((c.order, c.class_size, c._members[0]) for c in cat.classes)
        assert key(forward) == key(backward)


def test_class_of_finds_every_member():
    for n in (1, 2, 3, 4, 5):
        catalog = all_subgroups(n)
        for group in catalog.all_groups():
            assert tuple(group._ranks.tolist()) in catalog.class_of(group)._members


@functools.cache
def _multiplication_table(n):
    """mul[a, b] is the rank of a.b, applying b first, by definition."""
    rows = [tuple(r) for r in _symmetric_rows(range(1, n + 1), n)[0].tolist()]
    return np.array([[_lex_rank(tuple(a[v] for v in b)) for b in rows] for a in rows])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tables_match_the_oracle(n):
    rows = _symmetric_rows(range(1, n + 1), n)[0]
    t = subgroups._tables(rows)
    assert (t.mul == _multiplication_table(n)).all()
    perms = [Permutation._raw(tuple(r)) for r in rows.tolist()]
    assert t.inv.tolist() == [_lex_rank(p.inverse()._img) for p in perms]
    assert t.order.tolist() == [p.order for p in perms]
    power = [Permutation._raw(tuple(range(n)))] * len(perms)
    for j in range(len(t.powers)):
        assert t.powers[j].tolist() == [_lex_rank(q._img) for q in power]
        power = [q * p for q, p in zip(power, perms)]


def test_tables_rank_two_permutations_per_element(monkeypatch):
    """The degree-6 table is walked out from the identity, one row per
    gather: 2 x 720 rows are ranked, not the 518,400 products."""
    ranked = 0
    real = subgroups._lex_ranks

    def counting(rows):
        nonlocal ranked
        ranked += len(rows)
        return real(rows)

    monkeypatch.setattr(subgroups, "_lex_ranks", counting)
    subgroups._tables(_symmetric_rows(range(1, 7), 6)[0])
    assert 0 < ranked <= 2 * 720


@pytest.mark.parametrize("n", [3, 4, 5])
def test_labels_normalizers_and_members_match_brute_force(monkeypatch, n):
    """Against conjugation by all n! elements of the oracle table: the
    candidates of every base are the prime-power y outside it with y^p in
    it, and candidates with one label span groups of one class; every
    normalizer found from generators is N(H), and those generators with H's
    generate it; and each class's members are H's distinct conjugates."""
    labelled, normalized = [], []
    real_labels, real_normalizer = subgroups._extension_labels, subgroups._normalizer

    def recording_labels(t, base, *args):
        out = real_labels(t, base, *args)
        labelled.append((base, *out))
        return out

    def recording_normalizer(t, ranks, gens):
        out = real_normalizer(t, ranks, gens)
        normalized.append((ranks, gens, *out))
        return out

    subgroups._enumerate.cache_clear()
    monkeypatch.setattr(subgroups, "_extension_labels", recording_labels)
    monkeypatch.setattr(subgroups, "_normalizer", recording_normalizer)
    catalog = all_subgroups(n)
    mul = _multiplication_table(n)
    inv = np.argmin(mul, axis=1)
    orders = [Permutation._raw(tuple(r)).order for r in _symmetric_rows(range(1, n + 1), n)[0].tolist()]

    def conjugates(ranks):
        """Row s holds the sorted ranks of s.H.s^-1."""
        return np.sort(mul[mul[:, ranks], inv[:, None]], axis=1)

    def spanned_class(base, y):
        return catalog._index[tuple(subgroups._span(mul, base, np.r_[base, y]).tolist())]

    assert len(labelled) == len(normalized) == len(catalog.classes)
    for base, candidates, labels in labelled:
        expected = []
        for y, order in enumerate(orders):
            primes = [q for q in range(2, order + 1) if order % q == 0 and all(q % r for r in range(2, q))]
            if y not in base and len(primes) == 1:
                power = functools.reduce(lambda a, _: mul[a, y], range(primes[0]), 0)
                if power in base:
                    expected.append(y)
        assert candidates.tolist() == expected
        first = {}
        for y, label in zip(candidates.tolist(), labels.tolist()):
            assert spanned_class(base, y) is first.setdefault(label, spanned_class(base, y))
    for ranks, gens, normalizer, extra in normalized:
        brute = np.flatnonzero((conjugates(ranks) == ranks).all(axis=1))
        assert normalizer.tolist() == brute.tolist()
        assert subgroups._span(mul, ranks, np.array(gens + extra, dtype=np.intp)).tolist() == brute.tolist()
    for cls in catalog.classes:
        assert cls._members == tuple(sorted(set(map(tuple, conjugates(cls._members[0]).tolist()))))


def test_enumeration_at_degree_six_spans_few_groups(monkeypatch):
    """One span per label class keeps the cold degree-6 enumeration at 464
    spans: 385 extensions and 79 normalizer steps (524 extensions under the
    cyclic-extension skip rule, 5,386 when only the left coset x.B was
    skipped)."""
    calls = 0
    real = subgroups._span

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    subgroups._enumerate.cache_clear()
    monkeypatch.setattr(subgroups, "_span", counting)
    assert all_subgroups(6).total_subgroups == EXPECTED_TOTALS[6]
    assert 0 < calls < 500


def test_cold_degree_six_enumeration_stays_small(monkeypatch):
    """No step builds an n! x |H| or n! x |N(H)| array: the cold degree-6
    enumeration peaks near 2.4 MiB under tracemalloc (4.5 MiB when each new
    class was conjugated by all 720 elements), mostly the 1 MiB table."""
    subgroups._enumerate.cache_clear()
    tracemalloc.start()
    try:
        all_subgroups(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# sha256 of each catalog's classes: order, class size, members,
# representative generators and ground set
CATALOG_DIGESTS = {
    1: "d3656551065f968be815bef501588ad368e6d00c7b5775f5d7d8374b95ae3c6d",
    2: "4a6cf4ecefdf1a0c2d76f9c72fddf0c3d48e4d7a41096c88110932c0d0597ed4",
    3: "aca0f8fb85f00fb4e7ed786a04c127ea1066b4f277499af2df4aa00c126c8687",
    4: "223b36ba2cbd47924c0422b80b6e7665aad46135d4a86ab7f17de407eabebe29",
    5: "507c386a98cf798647ac397ba673b376732e642780a690bccce2e3b8ba93d253",
    6: "ad3ff072e4ac4219ef2cf1045f5fbdc1586b8b3f622ae65e85040a56d87fce12",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_whole_catalog_is_pinned(n):
    """The golden CLI digests see only the printed fields; this pins
    every member and every representative's generators too."""
    payload = [
        [c.order, c.class_size, [list(m) for m in c._members],
         [list(g._img) for g in c.representative.generators], list(c.representative.ground_set)]
        for c in all_subgroups(n).classes
    ]
    digest = hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()
    assert digest == CATALOG_DIGESTS[n]


@st.composite
def rank_generators(draw):
    """Zero to three random permutations of a common degree from 1 to 6."""
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.permutations(range(n)), max_size=3))


@given(rank_generators())
def test_span_from_the_identity_is_the_generated_group(case):
    n, images = case
    gens = np.array([_lex_rank(tuple(img)) for img in images], dtype=np.intp)
    span = subgroups._span(_multiplication_table(n), np.zeros(1, dtype=np.intp), gens)
    group = generate_group([Permutation._raw(tuple(img)) for img in images], degree=n)
    assert span.tolist() == group._ranks.tolist()


def test_enumeration_leaves_numpy_ma_unloaded():
    """``np.unique`` without index outputs imports ``numpy.ma`` (numpy 2.4),
    about 15 ms in a fresh interpreter; enumeration does without it."""
    code = (
        "import sys\n"
        "from permclosure.subgroups import all_subgroups\n"
        "all_subgroups(5)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


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


def test_survey_refuses_ambiguous_names(monkeypatch):
    """Two survey candidates in one class leave the class without a name."""
    real = subgroups.survey_candidates

    def with_conjugate_duplicate(n):
        pool = real(n)
        if n == 4:
            c4 = dict(pool)["C_4"]
            pool += (("C_4'", relabel(c4, Permutation([2, 1, 3, 4]))),)
        return pool

    monkeypatch.setattr(subgroups, "survey_candidates", with_conjugate_duplicate)
    with pytest.raises(AssertionError, match="ambiguous naming"):
        subgroups.table1_report()
