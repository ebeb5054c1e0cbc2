"""Tiny builders and independent oracles shared across test modules.

The oracles are small and unbudgeted: the coordinate action on one tuple,
a group relabelled generator by generator, the conjugates of a group over
all of S_n, the value action on k-tuples of points, the closure at k = 2
and at any k by sympy's subgroup search, Burnside's orbit count on k^n
and thickness, one element at a time, and the main theorem's shape test
by building each shape and comparing it with the group.
"""

import itertools
import math

import numpy as np

from permclosure.catalog import catalog_entries, get_group
from permclosure.classify import FormKind, NonClosedForm, wielandt_closure
from permclosure.closure import galois_closure
from permclosure.perm import (
    PermGroup,
    Permutation,
    _lex_ranks,
    _min_labels,
    alternating_on,
    conjugate,
    direct_product,
    full_orbits,
    generate_group,
    index2_subdirect,
    parse_perm,
    symmetric_on,
    viewed_at_degree,
)
from permclosure.subgroups import all_subgroups
from permclosure.tuples import OrbitPartition, TupleSpace


def grp(degree: int, *cycles: str) -> PermGroup:
    """Group generated by cycle strings at the given degree."""
    return generate_group([parse_perm(c, degree) for c in cycles], degree=degree)


def named_panel(max_catalog_degree: int) -> list[tuple[str, PermGroup]]:
    """Every subgroup class representative of degree 2 to 6, named
    "degree.class index", then every named catalog group up to the given
    degree, by name."""
    panel = [
        (f"{n}.{idx}", cls.representative)
        for n in range(2, 7)
        for idx, cls in enumerate(all_subgroups(n).classes)
    ]
    panel += [(e.name, get_group(e.name))
              for e in catalog_entries() if e.degree <= max_catalog_degree]
    return panel


def klein_four() -> PermGroup:
    return grp(4, "(1 2)(3 4)", "(1 3)(2 4)")


def cyclic_4() -> PermGroup:
    return grp(4, "(1 2 3 4)")


def act_tuple(a: tuple[int, ...], sigma: Permutation) -> tuple[int, ...]:
    """Coordinate action: entry i of the result is ``a[sigma(i)]``."""
    return tuple(a[sigma(i) - 1] for i in range(1, len(a) + 1))


def relabel(group: PermGroup, s: Permutation) -> PermGroup:
    """s * G * s^-1, generated by the conjugates of G's generators in
    order, on the image of G's ground set."""
    gens = [conjugate(g, s) for g in group.generators]
    ground = [s(p) for p in group.ground_set]
    return generate_group(gens, ground_set=ground, degree=group.degree)


def conjugate_ranks(group: PermGroup) -> np.ndarray:
    """The distinct conjugates s * G * s^-1 over all of S_n, one row of
    sorted lex ranks each, rows in lexicographic order."""
    n = group.degree
    s = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    s_inv = np.argsort(s, axis=1)
    # s.h.s^-1 maps s(i) to s(h(i))
    out = np.stack(
        [_lex_ranks(np.take_along_axis(s, h[s_inv], axis=1)) for h in group._rows], axis=1
    )
    out.sort(axis=1)
    return np.unique(out, axis=0)


def are_conjugate(g: PermGroup, h: PermGroup) -> bool:
    """Conjugacy in S_n: h's ranks are a row of ``conjugate_ranks(g)``."""
    if g == h:
        return True
    return g.order == h.order and bool((conjugate_ranks(g) == h._ranks).all(axis=1).any())


def value_index_map(sigma: Permutation, k: int) -> np.ndarray:
    """Index map of the value action of sigma on the k-tuples of points,
    indexed as by ``TupleSpace(k, degree)``: an outer sum over positions."""
    vimg = np.array(sigma.images, dtype=np.intp) - 1
    imap = np.zeros((), dtype=np.intp)
    for _ in range(k):
        imap = np.add.outer(imap * sigma.degree, vimg)
    return imap.ravel()


def point_tuple_partition(group: PermGroup, k: int) -> OrbitPartition:
    """Orbits of the value action of the group on its k-tuples of points."""
    space = TupleSpace(k, group.degree)
    maps = [value_index_map(g, k) for g in group.generators]
    return OrbitPartition(space, _min_labels(space.size, maps))


def burnside_count(group: PermGroup, k: int) -> int:
    """Orbits on k^n by Burnside's lemma: the mean over the elements of
    k^(cycles), each element's cycles read by ``Permutation.cycle_type``."""
    total = sum(k ** len(p.cycle_type()) for p in group)
    assert total % group.order == 0
    return total // group.order


def sympy_closure_k2(group: PermGroup):
    """The closure at k = 2 computed by ``sympy.combinatorics`` alone, as a
    sympy ``PermutationGroup``: the permutations of S_n that keep every
    subset of the points inside its orbit under G.  A word over two letters
    is the subset of the positions holding the second letter.

    Every subset is checked, not one per orbit: a property true of one
    subset per orbit need not define a group."""
    from sympy.combinatorics import Permutation as SympyPerm, PermutationGroup
    from sympy.combinatorics.named_groups import SymmetricGroup

    n = group.degree
    g = PermutationGroup([SympyPerm([v - 1 for v in p.images]) for p in group.generators]
                         or [SympyPerm(n - 1)])
    orbit_of = {frozenset(): {frozenset()}, frozenset(range(n)): {frozenset(range(n))}}
    for p in range(n):
        orbit_of[frozenset([p])] = {frozenset([q]) for q in g.orbit(p)}
    for m in range(2, n):
        for subset in map(frozenset, itertools.combinations(range(n), m)):
            if subset not in orbit_of:
                orbit = {frozenset(s) for s in g.orbit(tuple(subset), action="sets")}
                orbit_of.update(dict.fromkeys(orbit, orbit))

    def prop(sigma) -> bool:
        img = sigma.array_form
        return all(frozenset(img[i] for i in a) in orbit for a, orbit in orbit_of.items())

    return SymmetricGroup(n).subgroup_search(prop)


def thickness_by_elements(group: PermGroup, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """``is_k_thick`` one element at a time: each nonidentity element marks
    the tuples over {1..k} on the sorted ground set that it fixes, those
    constant on each of its cycles, and the first unmarked tuple, in lex
    order, is the witness."""
    omega = group.ground_set
    m = len(omega)
    weight = {p: k ** (m - 1 - i) for i, p in enumerate(omega)}
    covered = np.zeros(k**m, dtype=bool)
    for p in group.elements:
        if p.is_identity:
            continue
        fixed, seen = np.zeros(1, dtype=np.intp), set()
        for q in omega:
            cycle_weight = 0
            while q not in seen:
                seen.add(q)
                cycle_weight += weight[q]
                q = p(q)
            if cycle_weight:
                fixed = np.add.outer(fixed, np.arange(k) * cycle_weight).ravel()
        covered[fixed] = True
    free = np.flatnonzero(~covered)
    if not free.size:
        return True, None
    return False, tuple(int(free[0]) // k ** (m - 1 - i) % k + 1 for i in range(m))


def sympy_closure_k(group: PermGroup, k: int):
    """The closure at alphabet size k computed by ``sympy.combinatorics``
    alone, as a sympy ``PermutationGroup``: the permutations of S_n that map
    every word of k^n into its orbit under the elements ``generate()``
    yields.  Every word is checked, as in ``sympy_closure_k2``."""
    from sympy.combinatorics import Permutation as SympyPerm, PermutationGroup
    from sympy.combinatorics.named_groups import SymmetricGroup

    n = group.degree
    g = PermutationGroup([SympyPerm([v - 1 for v in p.images]) for p in group.generators]
                         or [SympyPerm(n - 1)])
    elements = [h.array_form for h in g.generate()]
    orbit_of: dict[tuple[int, ...], frozenset] = {}
    for word in itertools.product(range(k), repeat=n):
        if word not in orbit_of:
            orbit = frozenset(tuple(word[i] for i in h) for h in elements)
            orbit_of.update(dict.fromkeys(orbit, orbit))

    def prop(sigma) -> bool:
        img = sigma.array_form
        return all(tuple(w[i] for i in img) in orbit for w, orbit in orbit_of.items())

    return SymmetricGroup(n).subgroup_search(prop)


def containment_by_closures(group: PermGroup, k: int) -> bool:
    """The containment of the closure over k+1 letters in the orbit closure
    on k-tuples of points, by building both closures."""
    return galois_closure(group, k + 1).is_subgroup_of(wielandt_closure(group, k))


def _restricted_rows(group: PermGroup, points: tuple[int, ...]) -> np.ndarray:
    """Image rows of the action on an invariant point set, identity elsewhere."""
    idx = np.array(points, dtype=np.intp) - 1
    rows = np.tile(np.arange(group.degree, dtype=group._rows.dtype), (group.order, 1))
    rows[:, idx] = group._rows[:, idx]
    return rows


def classify_by_rebuilding(group: PermGroup, n: int, k: int, force: bool = False) -> NonClosedForm:
    """``classify_main`` by building each shape and comparing it with the
    group: Alt(B) x L, and the gluing of Sym(B) with L over the action on
    the complement of the elements even on the block.  The projections
    are every element's restriction, with generators derived; Sym(B) is
    built whatever the shape."""
    g = viewed_at_degree(group, n)
    d = n - k
    if d < 1:
        return NonClosedForm(
            FormKind.PREDICTED_CLOSED, n, k, d, 0,
            note="alphabet at least the degree; every group is closed there",
        )
    threshold = max(2**d, d * d + d)
    if n <= threshold and not force:
        return NonClosedForm(
            FormKind.OUT_OF_THEOREM_RANGE, n, k, d, threshold,
            note=f"degree {n} is not above the threshold {threshold}",
        )
    candidates = [o for o in full_orbits(g, n) if n - len(o) < d]
    if not candidates:
        return NonClosedForm(
            FormKind.PREDICTED_CLOSED, n, k, d, threshold,
            note="no orbit has complement smaller than the codegree",
        )
    block = max(candidates, key=len)
    note = f"{len(candidates)} candidate blocks; largest chosen" if len(candidates) > 1 else ""
    complement = tuple(p for p in range(1, n + 1) if p not in set(block))

    def projection(points):
        return PermGroup._build(n, _restricted_rows(g, points), None, points or None)

    on_block, on_complement = projection(block), projection(complement)
    bfact = math.factorial(len(block))
    sym_block = symmetric_on(block, n)
    if (
        on_block.order * 2 == bfact
        and all(p.sign == 1 for p in on_block.generators)
        and g.order == on_block.order * on_complement.order
        and direct_product(alternating_on(block, n), on_complement) == g
    ):
        return NonClosedForm(
            FormKind.ALTERNATING_TIMES_L, n, k, d, threshold,
            block=block, complement=complement, complement_factor=on_complement,
            predicted_closure=direct_product(sym_block, on_complement),
            note=note or "alternating on the block times the complement action",
        )
    if (
        on_block.order == bfact
        and g.order * 2 == bfact * on_complement.order
        and on_complement.order % 2 == 0
    ):
        even = np.isin(_lex_ranks(_restricted_rows(g, block)), alternating_on(block, n)._ranks)
        half = PermGroup._build(n, _restricted_rows(g, complement)[even], None, complement or None)
        try:
            rebuilt = index2_subdirect(sym_block, on_complement, half)
        except ValueError:  # the half is not of index 2
            rebuilt = None
        if rebuilt == g:
            return NonClosedForm(
                FormKind.PROPER_SUBDIRECT, n, k, d, threshold,
                block=block, complement=complement, complement_factor=on_complement,
                complement_half=half, predicted_closure=direct_product(sym_block, on_complement),
                note=note or "index-2 gluing of the symmetric block with the complement action",
            )
    return NonClosedForm(
        FormKind.PREDICTED_CLOSED, n, k, d, threshold, block=block, complement=complement,
        note=note or "block action matches neither shape",
    )
