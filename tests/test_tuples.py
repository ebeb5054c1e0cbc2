"""Tuple spaces, index maps, and orbit partitions."""

import collections
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    act_tuple,
    cyclic_4,
    grp,
    klein_four,
    point_tuple_partition,
    value_index_map,
)
from permclosure.budgets import Budgets
from permclosure.catalog import catalog_names, get_group
from permclosure.errors import BudgetExceeded, DegreeMismatch, UsageError
from permclosure.perm import (
    Permutation,
    _min_labels,
    extend_degree,
    generate_group,
    identity,
    parse_perm,
    symmetric_on,
)
from permclosure import tuples as tuples_module
from permclosure.tuples import (
    ContentClass,
    TupleSpace,
    _burnside_count,
    _class_tables,
    _cycle_census,
    _orbit_ranks,
    balanced_sizes,
    cached_orbit_partition,
    clear_partition_cache,
    orbit_count,
    orbit_partition,
)


def perms_of(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


def tuples_over(n, k):
    return st.tuples(*([st.integers(1, k)] * n))


# ---------------------------------------------------------------------------
# actions on tuples


@given(tuples_over(5, 3), perms_of(5))
def test_coordinate_action_selects_entries(a, sigma):
    moved = act_tuple(a, sigma)
    for i in range(1, 6):
        assert moved[i - 1] == a[sigma(i) - 1]


@given(tuples_over(5, 3), perms_of(5), perms_of(5))
def test_coordinate_action_is_a_right_action(a, p, q):
    assert act_tuple(a, p * q) == act_tuple(act_tuple(a, p), q)


# ---------------------------------------------------------------------------
# the indexed space


@given(st.integers(1, 5), st.integers(2, 4), st.data())
def test_encode_decode_round_trip(n, k, data):
    space = TupleSpace(n, k)
    idx = data.draw(st.integers(0, space.size - 1))
    assert space.encode(space.decode(idx)) == idx


def test_indexing_is_lexicographic():
    space = TupleSpace(3, 2)
    listed = [space.decode(i) for i in range(space.size)]
    assert listed == sorted(itertools.product((1, 2), repeat=3))


def test_encode_rejects_bad_tuples():
    space = TupleSpace(3, 2)
    with pytest.raises(ValueError):
        space.encode((1, 2))
    with pytest.raises(ValueError):
        space.encode((1, 2, 3))
    with pytest.raises(ValueError):
        space.decode(space.size)


@given(perms_of(4), st.data())
def test_coordinate_index_map_matches_literal_action(sigma, data):
    space = TupleSpace(4, 3)
    imap = space.coordinate_index_map(sigma)
    idx = data.draw(st.integers(0, space.size - 1))
    assert space.decode(int(imap[idx])) == act_tuple(space.decode(idx), sigma)


@given(perms_of(3), st.data())
def test_value_index_map_matches_literal_action(sigma, data):
    """The value action of the point-tuple oracle maps each entry through sigma."""
    space = TupleSpace(4, 3)
    imap = value_index_map(sigma, 4)
    idx = data.draw(st.integers(0, space.size - 1))
    assert space.decode(int(imap[idx])) == tuple(sigma(v) for v in space.decode(idx))


def test_tuple_space_budget():
    with pytest.raises(BudgetExceeded):
        TupleSpace(10, 4, budgets=Budgets(tuple_budget=1000))
    with pytest.raises(ValueError):
        TupleSpace(3, 1)
    with pytest.raises(ValueError):
        TupleSpace(0, 2)


def test_weights_and_index_maps_are_intp():
    space = TupleSpace(4, 3)
    assert space.weights.dtype == np.intp and space.weights.tolist() == [27, 9, 3, 1]
    sigma = Permutation([2, 3, 4, 1])
    assert space.coordinate_index_map(sigma).dtype == np.intp


# The digit matrix and index maps as they were once built, by divmod and by
# products with (permuted) weight vectors: oracles for the cube constructions.


def divmod_digits(space):
    idx = np.arange(space.size, dtype=np.int64)
    d = np.empty((space.size, space.arity), dtype=np.int32)
    for j in range(space.arity - 1, -1, -1):
        d[:, j] = idx % space.alphabet
        idx //= space.alphabet
    return d


def permuted_weights(space, sigma):
    inv = sigma.inverse()._img
    w = space.weights
    return np.array([w[inv[j]] for j in range(space.arity)], dtype=w.dtype)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coordinate_index_map_matches_weight_product(k):
    for m in range(1, 5):
        for sigma in all_perms(m):
            # a permutation of degree m acts on every arity n >= m, as in orbit_partition
            for n in range(m, 5):
                space = TupleSpace(n, k)
                wide = extend_degree(sigma, n)
                want = (divmod_digits(space) @ permuted_weights(space, wide)).astype(np.intp)
                got = space.coordinate_index_map(wide)
                assert got.dtype == np.intp and np.array_equal(got, want)
                if m < n and not sigma.is_identity:
                    labels = orbit_partition(generate_group([sigma]), space).labels
                    assert np.array_equal(labels, _min_labels(space.size, [want]))


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_value_index_map_matches_weight_product(arity):
    for n in range(2, 5):
        space = TupleSpace(arity, n)
        for sigma in all_perms(n):
            vimg = np.array(sigma._img, dtype=space.weights.dtype)
            want = vimg[divmod_digits(space)] @ space.weights
            got = value_index_map(sigma, arity)
            assert got.dtype == np.intp and np.array_equal(got, want)


def test_index_maps_check_degrees():
    space = TupleSpace(4, 3)
    with pytest.raises(DegreeMismatch):
        space.coordinate_index_map(Permutation([2, 3, 1]))


# ---------------------------------------------------------------------------
# orbit partitions


def brute_orbits(group, n, k):
    """Orbit label of each tuple by direct expansion, no index maps.  A group
    of degree below n fixes the extra coordinates."""
    space = TupleSpace(n, k)
    elements = [extend_degree(p, n) for p in group.elements]
    labels = {}
    for idx in range(space.size):
        a = space.decode(idx)
        if a in labels:
            continue
        orbit = {act_tuple(a, p) for p in elements}
        least = min(space.encode(b) for b in orbit)
        for b in orbit:
            labels[b] = least
    return [labels[space.decode(i)] for i in range(space.size)]


@pytest.mark.parametrize("k", [2, 3])
def test_partition_matches_brute_force(k):
    for group in (cyclic_4(), klein_four(), grp(4, "(1 2 3)"), symmetric_on(range(1, 5), 4)):
        part = orbit_partition(group, TupleSpace(4, k))
        assert part.labels.tolist() == brute_orbits(group, 4, k)
    # a group of smaller degree leaves the extra coordinates untouched
    wide = orbit_partition(cyclic_4(), TupleSpace(6, k))
    assert wide.labels.tolist() == brute_orbits(cyclic_4(), 6, k)


@st.composite
def generator_lists(draw):
    """One to three random permutations of a common degree from 1 to 6,
    sometimes followed by a repeat of the first and by the identity."""
    n = draw(st.integers(1, 6))
    images = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))
    gens = [Permutation(img) for img in images]
    if draw(st.booleans()):
        gens.append(gens[0])
    if draw(st.booleans()):
        gens.append(identity(n))
    return gens


def brute_kpow_orbits(group, k):
    """Orbit label of each k-tuple of points by expansion under the value action."""
    space = TupleSpace(k, group.degree)
    labels = {}
    for idx in range(space.size):
        r = space.decode(idx)
        if r not in labels:
            orbit = {tuple(p(v) for v in r) for p in group.elements}
            least = min(space.encode(b) for b in orbit)
            labels.update((b, least) for b in orbit)
    return [labels[space.decode(i)] for i in range(space.size)]


@settings(max_examples=60)
@given(gens=generator_lists(), k=st.sampled_from([2, 3]), extra=st.integers(0, 2))
def test_partition_matches_brute_force_on_random_generators(gens, k, extra):
    group = generate_group(gens)
    n = group.degree + extra
    if k**n > 3**6:
        n = group.degree
    part = orbit_partition(group, TupleSpace(n, k))
    assert part.labels.tolist() == brute_orbits(group, n, k)
    if group.degree >= 2:
        kpow = point_tuple_partition(group, k)
        assert kpow.labels.tolist() == brute_kpow_orbits(group, k)


@settings(max_examples=60)
@given(gens=generator_lists(), k=st.sampled_from([2, 3]), value_action=st.booleans())
def test_orbit_statistics_match_unique_counts(gens, k, value_action):
    """Statistics read off the least labels equal those of a hash pass."""
    group = generate_group(gens)
    if value_action:
        if group.degree < 2:
            return
        part = point_tuple_partition(group, k)
    else:
        part = orbit_partition(group, TupleSpace(group.degree, k))
    labels, idx = part.labels, np.arange(part.space.size)
    assert np.array_equal(labels[labels], labels) and np.all(labels <= idx)
    reps = np.unique(labels)
    assert part.orbit_count == reps.size
    assert np.array_equal(part.representatives, reps)
    assert np.array_equal(_orbit_ranks(labels), np.searchsorted(reps, labels))


def test_known_orbit_counts():
    assert orbit_partition(cyclic_4(), TupleSpace(4, 2)).orbit_count == 6
    assert orbit_partition(klein_four(), TupleSpace(4, 2)).orbit_count == 7
    assert orbit_partition(symmetric_on(range(1, 5), 4), TupleSpace(4, 2)).orbit_count == 5


def test_partition_of_subgroup_refines_supergroup():
    space = TupleSpace(4, 2)
    fine = orbit_partition(cyclic_4(), space)
    coarse = orbit_partition(symmetric_on(range(1, 5), 4), space)
    # each orbit of the subgroup lies in one orbit of S_4, not conversely
    assert np.array_equal(coarse.labels[fine.labels], coarse.labels)
    assert not np.array_equal(fine.labels[coarse.labels], fine.labels)
    # the 4-cycle and the full dihedral group have the same two-letter orbits
    dihedral = orbit_partition(grp(4, "(1 2 3 4)", "(1 3)"), space)
    assert fine.equals(dihedral)


def test_partition_queries():
    space = TupleSpace(4, 2)
    part = orbit_partition(cyclic_4(), space)
    label = lambda a: int(part.labels[space.encode(a)])
    assert label((1, 1, 2, 2)) == label((2, 2, 1, 1))
    assert label((1, 1, 2, 2)) != label((1, 2, 1, 2))
    assert space.decode(label((2, 2, 1, 1))) == (1, 1, 2, 2)
    assert part.orbit_count == 6 and part.representatives[0] == 0


def test_value_action_partition():
    """Orbits of ordered point pairs under the 4-cycle: 4 diagonal + 3 off."""
    part = point_tuple_partition(cyclic_4(), 2)
    assert part.orbit_count == 4
    brute = set()
    for r in itertools.product(range(1, 5), repeat=2):
        orbit = frozenset(tuple(p(v) for v in r) for p in cyclic_4().elements)
        brute.add(orbit)
    assert len(brute) == 4


def test_cached_partition_reuses_objects():
    clear_partition_cache()
    a = cached_orbit_partition(cyclic_4(), 2)
    b = cached_orbit_partition(cyclic_4(), 2)
    assert a is b
    c = cached_orbit_partition(cyclic_4(), 2, content=[2, 2])
    assert c is not a and cached_orbit_partition(cyclic_4(), 2, content=(2, 2)) is c
    clear_partition_cache()
    assert cached_orbit_partition(cyclic_4(), 2) is not a


def test_twelve_contents_asked_twice_build_twelve_class_tables():
    """The closures of a batch of groups of degree 6 to 12 read about a
    dozen contents in turn; each one's tables are built once."""
    contents = [((6, 6), 2), ((4, 4, 4), 3), ((3, 3, 3, 3), 4), ((4, 4, 3), 3),
                ((6, 5), 2), ((3, 3, 3, 2), 4), ((5, 5), 2), ((4, 3, 3), 3),
                ((3, 3, 2, 2), 4), ((5, 4), 2), ((3, 3, 3), 3), ((4, 4), 2)]
    assert len(set(contents)) == 12
    tuples_module._class_tables.cache_clear()
    for _ in range(2):
        for content, k in contents:
            ContentClass(sum(content), k, content)
    assert tuples_module._class_tables.cache_info().misses == 12


def test_a_cache_hit_checks_the_budget_and_builds_nothing(monkeypatch):
    clear_partition_cache()
    group = grp(5, "(1 2 3 4 5)")
    part = cached_orbit_partition(group, 3, content=(2, 2, 1))

    def fail(*args, **kwargs):
        raise AssertionError("space built on a cache hit")

    monkeypatch.setattr(tuples_module, "_class_tables", fail)
    monkeypatch.setattr(tuples_module, "TupleSpace", fail)
    assert cached_orbit_partition(group, 3, content=(2, 2, 1)) is part
    with pytest.raises(BudgetExceeded) as err:
        cached_orbit_partition(group, 3, Budgets(tuple_budget=29), content=(2, 2, 1))
    assert (err.value.budget_name, err.value.needed) == ("tuple-space", 30)
    with pytest.raises(BudgetExceeded):
        cached_orbit_partition(group, 3, Budgets(tuple_budget=242))
    clear_partition_cache()


def test_class_labels_and_full_partitions_never_answer_for_each_other():
    """C_5 over 3 letters: all 243 tuples, the 30 of the balanced content
    (2, 2, 1) and the 20 of the hook content (3, 1, 1), cached in every
    order.  Each call gets its own set back, and no two compare."""
    group = grp(5, "(1 2 3 4 5)")
    sizes = {None: 243, (2, 2, 1): 30, (3, 1, 1): 20}
    for order in itertools.permutations(sizes):
        clear_partition_cache()
        parts = {c: cached_orbit_partition(group, 3, content=c) for c in order}
        for content, part in parts.items():
            assert (part.space.content, part.space.size) == (content, sizes[content])
            assert cached_orbit_partition(group, 3, content=content) is part
        for one, two in itertools.permutations(parts.values(), 2):
            with pytest.raises(DegreeMismatch):
                one.equals(two)
    clear_partition_cache()
    for content, part in parts.items():
        assert cached_orbit_partition(group, 3, content=content) is not part


# ---------------------------------------------------------------------------
# content classes


def _hook(n, k):
    """The content of the injective (k-1)-tuples of points, with the
    repeated letter last."""
    j = min(k - 1, n - 1)
    return (1,) * j + (n - j,)


def test_balanced_class_lists_its_content_in_lex_order():
    """The balanced and the hook class of every small (n, k)."""
    for n in range(1, 7):
        for k in range(2, 8):
            for content in (balanced_sizes(n, k), _hook(n, k)):
                want = [
                    t for t in itertools.product(range(k), repeat=n)
                    if tuple(t.count(v) for v in range(len(content))) == content
                    and max(t) < len(content)
                ]
                cls = ContentClass(n, k, content)
                assert cls.size == len(want) == math.factorial(n) // math.prod(
                    math.factorial(m) for m in content
                )
                assert cls.digits.dtype == np.uint8
                assert cls.digits.tolist() == [list(t) for t in want]
                space = TupleSpace(n, k)
                # a member's key is its index in k^n
                assert cls.weights.tolist() == space.weights.tolist()
                keys = cls.digits @ cls.weights
                assert keys.tolist() == [space.encode(np.add(t, 1)) for t in want]
                assert not cls.digits.flags.writeable and not cls.weights.flags.writeable
                assert np.array_equal(cls.rows(1, 3), cls.digits[1:3])
                assert np.array_equal(cls.positions(keys), np.arange(cls.size))
    # 3^4 = 81 <= 16 * 30 tuples: a dense inverse over the first four
    # digits; 9^3 = 729 > 16 * 24: a binary search
    for cls, member, outside in (
        (ContentClass(5, 3, (2, 2, 1)), (2, 1, 3, 1, 2),
         [(1, 1, 1, 2, 3), (1, 1, 2, 2, 2), (3, 3, 3, 3, 3)]),
        (ContentClass(4, 9, (1, 1, 1, 1)), (4, 1, 3, 2), [(1, 1, 2, 3), (9, 9, 9, 9)]),
    ):
        assert (cls._where is None) == (cls.arity == 4)
        assert cls.decode(cls.encode(member)) == member
        for t in outside:  # another content, its first digits a member's or none's
            with pytest.raises(ValueError):
                cls.encode(t)


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(6, 13) for k in (2, 3, 4)] + [(7, 5)]
)
def test_the_labelled_balanced_classes_find_members_by_one_gather(n, k):
    """Closures and orbit-equivalence verdicts of degree 6 to 12 at k <= 4
    label these classes, and ``verify --theorem main`` the one of degree 7
    at k = 5.  Each fills at least 1/16 of k^(n-1), so its members are
    found by a gather, not a binary search."""
    cls = ContentClass(n, k, balanced_sizes(n, k))
    assert cls._where is not None and len(cls._where) == k ** (n - 1)
    assert np.array_equal(cls.positions(cls.digits @ cls.weights), np.arange(cls.size))


def _keys_by_columns(digits, weights):
    """A key per digit row, summed a column at a time."""
    keys = np.zeros(len(digits), dtype=np.intp)
    for column, w in zip(digits.T, weights):
        keys += column.astype(np.intp) * w
    return keys


@pytest.mark.parametrize("cells", [1, 7, 1 << 16])
def test_blocked_keys_match_the_column_sums_on_random_classes(monkeypatch, cells):
    """A class's keys and its coordinate maps, whose weights are scattered
    at sigma's images, against the column sums with the weights gathered
    at sigma^-1, on seeded random contents; blocks of 1 and 7 cells split
    every class into many products."""
    monkeypatch.setattr(tuples_module, "_KEY_CELLS", cells)
    rng = np.random.default_rng(cells)
    for _ in range(12):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(2, 6))
        parts = int(rng.integers(1, min(k, n) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
        content = tuple(np.diff([0, *cuts.tolist(), n]).tolist())
        _class_tables.cache_clear()
        cls = ContentClass(n, k, content)
        assert np.array_equal(cls._keys, _keys_by_columns(cls.digits, cls.weights))
        for _ in range(3):
            sigma = Permutation((rng.permutation(n) + 1).tolist())
            moved = cls.weights[list(sigma.inverse()._img)]
            want = cls.positions(_keys_by_columns(cls.digits, moved))
            assert np.array_equal(cls.coordinate_index_map(sigma), want), (content, sigma)
    _class_tables.cache_clear()


def test_a_cold_partition_of_a_907200_tuple_class_keeps_its_key_blocks_small():
    """A_10's generators on its k=8 balanced class, content (2, 2, 1^6):
    the class tables, the two coordinate maps and their labels, cold.  One
    key product for the whole class would cast its 9 MB of digits to a
    72 MB intp copy (a 99 MiB peak); in blocks the labels set the peak,
    about 57 MiB."""
    gens = [parse_perm("(1 2 3)", 10), parse_perm("(2 3 4 5 6 7 8 9 10)", 10)]
    _class_tables.cache_clear()
    tracemalloc.start()
    try:
        cls = ContentClass(10, 8, balanced_sizes(10, 8))
        labels = _min_labels(cls.size, [cls.coordinate_index_map(g) for g in gens])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _class_tables.cache_clear()
    assert cls.size == 907_200 and not labels.any()  # A_10 is transitive there
    assert peak < 64 * 2**20, peak


def test_a_class_of_arity_40_over_two_letters_stays_exact():
    """2^40 fits in 64 bits, so the 40 tuples of one 1 and 39 2s, the
    hook class of the points of degree 40, are keyed by their indices."""
    cls = ContentClass(40, 2, _hook(40, 2))
    assert cls.size == 40
    assert cls.weights[0] == 2**39
    assert np.array_equal(cls.positions(cls.digits @ cls.weights), np.arange(cls.size))
    rng = np.random.default_rng(40)
    for p in rng.integers(cls.size, size=20).tolist():
        assert cls.encode(cls.decode(p)) == p
    with pytest.raises(ValueError):
        cls.encode((2,) * 40)
    sigma = Permutation((rng.permutation(40) + 1).tolist())
    imap = cls.coordinate_index_map(sigma)
    for p in rng.integers(cls.size, size=50).tolist():
        a = cls.decode(p)
        assert cls.decode(int(imap[p])) == act_tuple(a, sigma)


@pytest.mark.parametrize("k", [3, 4])
def test_a_class_past_64_bit_keys_is_refused_before_it_is_built(monkeypatch, k):
    """3^40 and 4^40 pass 2^63, so the injective point pairs and triples
    of degree 40 have no 64-bit keys: a UsageError naming the alphabet and
    the arity, after the tuple budget and before any row."""
    def fail(*args):
        raise AssertionError("class built before the key check")

    monkeypatch.setattr(tuples_module, "_class_tables", fail)
    with pytest.raises(BudgetExceeded):
        ContentClass(40, k, _hook(40, k), budgets=Budgets(tuple_budget=math.perm(40, k - 1) - 1))
    with pytest.raises(UsageError, match=f"arity 40 over {k} letters"):
        ContentClass(40, k, _hook(40, k))
    # the keys of 2^63 tuples end at 2^63 - 1, the largest 64-bit key
    monkeypatch.undo()
    assert ContentClass(63, 2, (1, 62)).size == 63
    with pytest.raises(UsageError):
        ContentClass(64, 2, (1, 63))


def test_content_class_refuses_a_content_that_does_not_fit():
    for content in ((2, 2), (2, 1, 1, 1), (3, 0, 2), (6, -1)):
        with pytest.raises(ValueError):
            ContentClass(5, 3, content)


def test_content_class_refuses_a_position_or_a_degree_it_does_not_have():
    cls = ContentClass(5, 3, (2, 2, 1))
    with pytest.raises(ValueError, match=re.escape("position 30 outside 0..29")):
        cls.decode(30)
    with pytest.raises(DegreeMismatch, match="degree 4 vs arity 5"):
        cls.coordinate_index_map(identity(4))


def test_balanced_class_budget_counts_the_class_before_building_it(monkeypatch):
    def fail(*args):
        raise AssertionError("class built before the budget check")

    monkeypatch.setattr(tuples_module, "_class_tables", fail)
    with pytest.raises(BudgetExceeded) as err:
        ContentClass(10, 4, balanced_sizes(10, 4), budgets=Budgets(tuple_budget=25199))
    assert (err.value.budget_name, err.value.needed) == ("tuple-space", 25200)
    monkeypatch.undo()
    # 4^10 tuples pass no budget of 25,200, the class of 10!/(3!3!2!2!) does
    cls = ContentClass(10, 4, balanced_sizes(10, 4), budgets=Budgets(tuple_budget=25200))
    assert cls.size == 25200


@pytest.mark.parametrize("k", [2, 3, 4, 9])
def test_class_labels_are_the_full_labels_restricted_to_the_class(k):
    """At k <= 4 every class finds its members by a gather, at k = 9 by a
    binary search."""
    groups = [cyclic_4(), klein_four(), grp(4, "(1 2)"), symmetric_on(range(1, 5), 4),
              grp(5, "(1 2 3 4 5)", "(2 5)(3 4)"), grp(6, "(1 2)(3 4 5 6)")]
    for group in groups:
        full = orbit_partition(group, TupleSpace(group.degree, k))
        for content in (balanced_sizes(group.degree, k), _hook(group.degree, k)):
            cls = cached_orbit_partition(group, k, content=content)
            assert (cls.space._where is None) == (k == 9)
            members = cls.space.digits @ full.space.weights
            # a class is a union of orbits, so its least members are least overall
            assert np.array_equal(full.labels[members], members[cls.labels])


def test_partition_rejects_oversized_group_degree():
    with pytest.raises(DegreeMismatch):
        orbit_partition(symmetric_on(range(1, 6), 5), TupleSpace(4, 2))


def test_partition_on_wider_space_leaves_extra_coordinates():
    """A degree-2 swap inside arity 3: the third coordinate rides along."""
    space = TupleSpace(3, 2)
    part = orbit_partition(grp(2, "(1 2)"), space)
    label = lambda a: part.labels[space.encode(a)]
    assert label((1, 2, 1)) == label((2, 1, 1))
    assert label((1, 2, 1)) != label((1, 2, 2))
    assert part.orbit_count == 6


def test_label_arrays_use_least_indices():
    part = orbit_partition(cyclic_4(), TupleSpace(4, 2))
    reps = part.representatives
    assert np.array_equal(np.sort(reps), reps)
    assert part.labels.min() == 0
    for r in reps.tolist():
        assert part.labels[r] == r


# ---------------------------------------------------------------------------
# orbit counts from the cycle index


@pytest.mark.parametrize("name", [*catalog_names(), "C_9", "D_10", "A_7", "S_6"])
def test_the_cycle_index_counts_what_labelling_counts(name):
    """On every named catalog group, and a few of the families, the census
    is the cycle types read one element at a time; at k <= 4, on all of
    k^n and on the balanced class, the Burnside count equals the labelled
    partition's, and so does ``orbit_count``, whichever of the two it
    picks."""
    group = get_group(name)
    assert dict(_cycle_census(group)) == collections.Counter(p.cycle_type() for p in group)
    for k in (2, 3, 4):
        for content in (None, balanced_sizes(group.degree, k)):
            labelled = cached_orbit_partition(group, k, content=content).orbit_count
            assert _burnside_count(group, k, content) == labelled, (k, content)
            assert orbit_count(group, k, content) == labelled, (k, content)


def test_the_census_of_many_blocks_adds_up(monkeypatch):
    """Elements are traced a block at a time; blocks of 99 points, 11
    elements of degree 9, split PGammaL(2,8) into 138, the last of 5."""
    group = get_group("PGammaL(2,8)")
    whole = _cycle_census(group)
    clear_partition_cache()
    monkeypatch.setattr(tuples_module, "_CENSUS_CELLS", 99)
    assert dict(_cycle_census(group)) == dict(whole)
    assert sum(count for _, count in whole) == group.order == 1512


def test_the_cycle_index_counts_necklaces_of_forty_beads():
    """C_40 has phi(d) elements of d-cycles for each divisor d of 40; its
    census rows hold 40 cycle counts each, past any base-41 key in 64
    bits.  Its orbits are necklaces: the mean of phi(d) 2^(40/d) on 2^40,
    and of phi(d) C(40/d, 20/d) over d | 20 on the balanced class."""
    c40 = grp(40, "(" + " ".join(map(str, range(1, 41))) + ")")
    divisors = [d for d in range(1, 41) if 40 % d == 0]
    phi = {d: sum(math.gcd(d, i) == 1 for i in range(1, d + 1)) for d in divisors}
    assert dict(_cycle_census(c40)) == {(d,) * (40 // d): phi[d] for d in divisors}
    big = Budgets(tuple_budget=2**40)
    assert orbit_count(c40, 2, budgets=big) == sum(phi[d] * 2 ** (40 // d) for d in divisors) // 40
    balanced = sum(phi[d] * math.comb(40 // d, 20 // d) for d in divisors if 20 % d == 0) // 40
    assert orbit_count(c40, 2, balanced_sizes(40, 2), budgets=big) == balanced


def test_orbit_count_charges_the_set_size_on_every_call():
    """Warm or cold, on k^n or a class, the size is charged before any
    work, as ``cached_orbit_partition`` charges it."""
    v4, small = klein_four(), Budgets(tuple_budget=5)
    clear_partition_cache()
    for _ in range(2):
        assert orbit_count(v4, 2) == 7 and orbit_count(v4, 2, (2, 2)) == 3
        for content, size in ((None, 16), ((2, 2), 6)):
            with pytest.raises(BudgetExceeded) as err:
                orbit_count(v4, 2, content, budgets=small)
            assert (err.value.budget_name, err.value.needed) == ("tuple-space", size)
    with pytest.raises(ValueError, match="content"):
        orbit_count(v4, 2, (3, 2))
    with pytest.raises(UsageError):
        orbit_count(v4, 1)


def test_a_burnside_sum_off_the_group_order_is_an_assertion(monkeypatch):
    """A census of three identities for a group of order 4 sums 3 * 3^4."""
    monkeypatch.setattr(tuples_module, "_cycle_census", lambda group: (((1, 1, 1, 1), 3),))
    with pytest.raises(AssertionError, match="243 is not a multiple"):
        orbit_count(klein_four(), 3)
