"""The verification gate: one test per published acceptance criterion.

Each criterion prints a single ``PASS cNN ...`` or ``FAIL cNN ...`` line;
run with ``pytest tests/test_acceptance.py -s`` to stream them.  The
criteria re-derive every expected value rather than trusting other tests.
"""

import functools
import itertools
import math
import random

from helpers import cyclic_4, grp, klein_four
from permclosure.catalog import primitive_3closed_report, seress_report
from permclosure.classify import (
    FormKind,
    check_wielandt_containment,
    classify_main,
    degree7_panel,
    degree7_panel_expectations,
    verify_main,
    wielandt_closure,
)
from permclosure.closure import (
    closure_chain,
    closure_kearnes,
    closure_naive,
    closure_pruned,
    galois_closure,
    invariance_group,
    is_closed,
    min_codomain_report,
    orbit_coloring,
    orbit_equivalent,
)
from permclosure.perm import (
    alternating_on,
    direct_product,
    shift_group,
    symmetric_on,
    viewed_at_degree,
)
from permclosure.subgroups import all_subgroups, chain_length_census, table1_report

SEED_TRIPLE_AGREEMENT = 20240817
SEED_PRODUCT_PAIRS = 1105


def criterion(cid: str, description: str):
    """Emit the one-line verdict for a criterion around its test body."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {cid} {description}")
                raise
            print(f"PASS {cid} {description}")

        return wrapper

    return deco


def _alternating_class_key(n: int) -> tuple[int, int]:
    # order and ground size identify the full alternating class at n <= 6
    return (math.factorial(n) // 2, n)


@criterion("c01", "degree<=6 survey reproduces all 19 reference rows exactly "
                  "(plus the 2 separately reported extra classes)")
def test_c01_reference_survey():
    report = table1_report()
    assert report.matches_reference
    assert len(report.reference_rows) == 19
    assert report.missing_reference == ()
    extras = {
        (r.degree, r.largest_k, r.group_name, r.closure_name)
        for r in report.extra_rows
    }
    assert extras == {
        (6, 2, "A_3×A_3", "S_3×S_3"),
        (6, 2, "C_3≀S_2", "S_3≀S_2"),
    }
    assert report.wall_time <= 600


@criterion("c02", "every subgroup class at degree<=6 has at most 2 distinct "
                  "groups in its closure chain")
def test_c02_chain_lengths():
    for n in range(1, 7):
        census = chain_length_census(n)
        assert census.max_distinct <= 2, n
        assert set(census.histogram) <= {1, 2}, n


@criterion("c03", "degree<=5: every subgroup is closed once the alphabet reaches "
                  "the degree; below it the alternating group closes to the full "
                  "symmetric group")
def test_c03_closed_at_large_alphabets():
    for n in range(2, 6):
        for g in all_subgroups(n).all_groups():
            assert is_closed(g, n), (n, g.order)
            assert is_closed(g, n + 1), (n, g.order)
    for n in range(3, 6):
        an = alternating_on(range(1, n + 1), n)
        sn = symmetric_on(range(1, n + 1), n)
        for k in range(2, n):
            assert galois_closure(an, k) == sn, (n, k)


@criterion("c04", "degree<=6 at alphabet degree-1: the only non-closed class is "
                  "the alternating group")
def test_c04_codegree_one():
    for n in range(3, 7):
        nonclosed = [
            (cls.order, len(cls.representative.ground_set))
            for cls in all_subgroups(n).classes
            if not is_closed(cls.representative, n - 1)
        ]
        assert nonclosed == [_alternating_class_key(n)], n


@criterion("c05", "degree<=6 at alphabet degree-2: non-closed classes are exactly "
                  "the two alternating shapes plus the 4-cycle; the degree-7 panel "
                  "at 5 letters agrees with the shape classifier")
def test_c05_codegree_two_and_panel():
    expected = {
        4: {_alternating_class_key(4), _alternating_class_key(3), (4, 4, "cyclic")},
        5: {_alternating_class_key(5), _alternating_class_key(4)},
        6: {_alternating_class_key(6), _alternating_class_key(5)},
    }
    for n in (4, 5, 6):
        found = set()
        for cls in all_subgroups(n).classes:
            rep = cls.representative
            if is_closed(rep, n - 2):
                continue
            key = (cls.order, len(rep.ground_set))
            if n == 4 and cls.order == 4:
                kind = "cyclic" if any(p.order == 4 for p in rep.elements) else "klein"
                key = (4, 4, kind)
            found.add(key)
        assert found == expected[n], n

    expectations = degree7_panel_expectations()
    names = [name for name, _ in degree7_panel()]
    assert len(names) == 10
    for name, group in degree7_panel():
        form = classify_main(group, 7, 5)
        assert form.kind is expectations[name], name
        report = verify_main(group, 7, 5)
        assert report.applicable and report.agree, name


@criterion("c06", "the three closure algorithms agree element-for-element on all "
                  "degree-4 classes and 50 random degree-5 subgroups")
def test_c06_triple_agreement():
    for cls in all_subgroups(4).classes:
        g = cls.representative
        for k in (2, 3, 4):
            a = closure_naive(g, k).closure.element_images()
            b = closure_pruned(g, k).closure.element_images()
            c = closure_kearnes(g, k).closure.element_images()
            assert a == b == c, (cls.order, k)
    rng = random.Random(SEED_TRIPLE_AGREEMENT)
    sample = rng.sample(list(all_subgroups(5).all_groups()), 50)
    for g in sample:
        for k in (2, 3, 4, 5):
            a = closure_naive(g, k).closure.element_images()
            b = closure_pruned(g, k).closure.element_images()
            c = closure_kearnes(g, k).closure.element_images()
            assert a == b == c, (g.order, k)


@criterion("c07", "closure laws hold: extensive, idempotent, shrinking in the "
                  "alphabet, multiplicative over disjoint products, stable under "
                  "embedding, and realized by the orbit coloring")
def test_c07_closure_laws():
    # extensivity, idempotence, monotonicity
    samples = [cls.representative for cls in all_subgroups(4).classes]
    samples += [cls.representative for cls in all_subgroups(5).classes]
    for g in samples:
        previous = None
        for k in (2, 3, 4):
            clo = galois_closure(g, k)
            assert g <= clo
            assert galois_closure(clo, k) == clo
            if previous is not None:
                assert clo <= previous
            previous = clo

    # product law on 25 seeded random disjoint pairs
    rng = random.Random(SEED_PRODUCT_PAIRS)
    pools = {m: list(all_subgroups(m).all_groups()) for m in (2, 3, 4)}
    pairs = 0
    while pairs < 25:
        m1 = rng.choice((2, 3, 4))
        m2 = rng.choice((2, 3))
        n = m1 + m2
        left = shift_group(rng.choice(pools[m1]), 0, n)
        right = shift_group(rng.choice(pools[m2]), m1, n)
        assert not set(left.ground_set) & set(right.ground_set)
        product = direct_product(left, right)
        for k in (2, 3):
            lhs = galois_closure(product, k)
            rhs = direct_product(galois_closure(left, k), galois_closure(right, k))
            assert lhs == rhs, (m1, m2, k)
        pairs += 1

    # embedding law: fixed points do not disturb the closure
    for g in (grp(3, "(1 2 3)"), cyclic_4(), alternating_on(range(1, 5), 4)):
        for k in (2, 3):
            native = galois_closure(g, k)
            assert galois_closure(viewed_at_degree(g, 6), k) == viewed_at_degree(native, 6)
            assert galois_closure(shift_group(g, 2, 7), k) == shift_group(native, 2, 7)

    # orbit equivalence is exactly closure equality at degree <= 4
    for n in (2, 3, 4):
        groups = all_subgroups(n).all_groups()
        for g, h in itertools.combinations(groups, 2):
            same_closure = galois_closure(g, 2) == galois_closure(h, 2)
            assert orbit_equivalent(g, h, 2) == same_closure, (n, g.order, h.order)

    # the orbit coloring's invariance group is the closure
    for cls in all_subgroups(4).classes:
        g = cls.representative
        for k in (2, 3):
            assert invariance_group(orbit_coloring(g, k)) == galois_closure(g, k)


@criterion("c08", "the Klein four-group needs exactly 3 colors over 2 letters, "
                  "with the 2-color search provably exhaustive over its 7 orbits")
def test_c08_klein_four_codomain():
    v = klein_four()
    report = min_codomain_report(v, 2)
    assert report.result == 3
    # 63 = the number of ways to split 7 orbit classes into 2 nonempty blocks
    assert report.colorings_tested[1] == 1
    assert report.colorings_tested[2] == 63
    assert 2 ** 7 // 2 - 1 == 63
    assert invariance_group(report.witness) == v

    # independent exhaustive check, bypassing the library's search entirely:
    # every one of the 2^7 assignments of orbit classes to 2 colors admits
    # an invariance permutation outside the group
    v_imgs = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    tuples = list(itertools.product((1, 2), repeat=4))

    def act(a, img):
        return tuple(a[img[i] - 1] for i in range(4))

    orbit_of = {}
    orbit_count = 0
    for a in tuples:
        if a in orbit_of:
            continue
        for b in {act(a, img) for img in v_imgs}:
            orbit_of[b] = orbit_count
        orbit_count += 1
    assert orbit_count == 7

    all_imgs = [tuple(p) for p in itertools.permutations((1, 2, 3, 4))]
    for colors in itertools.product((1, 2), repeat=7):
        table = {a: colors[orbit_of[a]] for a in tuples}
        inv = {img for img in all_imgs
               if all(table[act(a, img)] == table[a] for a in tuples)}
        assert inv != set(v_imgs), colors


@criterion("c09", "pairwise orbit-equivalence classes of the primitive catalog "
                  "match expectations at degrees 5, 6, 8, 9 and 10")
def test_c09_equivalence_classes():
    for n in (5, 6):
        report = seress_report(n)
        assert report.matches, n
        assert report.wall_time < 60, n
    for n in (8, 9, 10):
        report = seress_report(n)
        assert report.matches, n
        assert report.wall_time < 1800, n


@criterion("c10", "every primitive catalog group of degree 4..10 is closed over "
                  "3 letters except the alternating group")
def test_c10_primitive_closure_over_three():
    total = 0.0
    for n in range(4, 11):
        report = primitive_3closed_report(n)
        assert report.matches, n
        assert report.expected_nonclosed == (f"A_{n}",), n
        total += report.wall_time
    assert total < 1800


@criterion("c11", "the coordinate closure at k+1 letters sits inside the "
                  "point-tuple closure at k for every subgroup of degrees 4 and 5")
def test_c11_wielandt_containment():
    for n in (4, 5):
        for g in all_subgroups(n).all_groups():
            for k in (1, 2, 3):
                assert check_wielandt_containment(g, k), (n, g.order, k)
    assert wielandt_closure(cyclic_4(), 2) == cyclic_4()
    assert galois_closure(cyclic_4(), 3) == cyclic_4()


@criterion("c12", "the closure chain of the even product on 3+4 points descends "
                  "through the two predicted products before stabilizing")
def test_c12_chain_example():
    group = direct_product(
        alternating_on((1, 2, 3), 7), alternating_on((4, 5, 6, 7), 7)
    )
    chain = closure_chain(group)
    by_k = {e.k: e.closure for e in chain.entries}
    assert by_k[2] == direct_product(
        symmetric_on((1, 2, 3), 7), symmetric_on((4, 5, 6, 7), 7)
    )
    assert by_k[3] == direct_product(
        alternating_on((1, 2, 3), 7), symmetric_on((4, 5, 6, 7), 7)
    )
    for k in range(4, 8):
        assert by_k[k] == group
    assert chain.largest_nonclosed_k == 3
    assert chain.distinct_count == 3
