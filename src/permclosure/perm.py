"""Permutations on {1..n}, group materialization, and product constructions.

Points are 1-indexed in every public interface.  Internally a permutation is
an immutable tuple of 0-based images, and a group is the sorted tuple of its
elements' image tuples; equality, hashing and membership all work on that
canonical form.  Groups are materialized element by element with Dimino's
algorithm, which adds a generator by adding whole cosets of the group
generated so far, and are capped by a materialization budget, so everything
here is meant for small degrees, not for stabilizer-chain scale.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .budgets import Budgets, resolve
from .errors import BudgetExceeded, DegreeMismatch, ParseError

__all__ = [
    "Permutation",
    "PermGroup",
    "parse_perm",
    "format_perm",
    "identity",
    "compose",
    "inverse",
    "conjugate",
    "sign",
    "extend_degree",
    "shift_perm",
    "restrict_to",
    "generate_group",
    "viewed_at_degree",
    "direct_product",
    "index2_subdirect",
    "orbits_on_points",
    "full_orbits",
    "is_transitive",
    "is_primitive",
    "symmetric_on",
    "alternating_on",
    "conjugate_group",
    "are_conjugate_in_symmetric",
    "parse_group_text",
    "read_group_file",
]


# ---------------------------------------------------------------------------
# single permutations


class Permutation:
    """A bijection of {1..n}, stored as the tuple of 0-based images."""

    __slots__ = ("_img",)

    def __init__(self, images: Sequence[int]):
        """Build from 1-based images: ``images[i-1]`` is where point i goes."""
        img = tuple(v - 1 for v in images)
        n = len(img)
        seen = [False] * n
        for v in img:
            if not 0 <= v < n:
                raise ValueError(f"image {v + 1} outside 1..{n}")
            if seen[v]:
                raise ValueError(f"image {v + 1} repeated; not a bijection")
            seen[v] = True
        self._img = img

    @classmethod
    def _raw(cls, img: tuple[int, ...]) -> "Permutation":
        # trusted 0-based image tuple, no validation
        p = object.__new__(cls)
        p._img = img
        return p

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image tuple."""
        return tuple(v + 1 for v in self._img)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self._img):
            raise ValueError(f"point {point} outside 1..{len(self._img)}")
        return self._img[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        img = self._img
        inv = [0] * len(img)
        for i, v in enumerate(img):
            inv[v] = i
        return Permutation._raw(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self._img))

    def moved_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self._img) if v != i)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point,
        sorted by least point."""
        img = self._img
        seen = [False] * len(img)
        out = []
        for start in range(len(img)):
            if seen[start] or img[start] == start:
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p + 1)
                p = img[p]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    @property
    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    @property
    def sign(self) -> int:
        # parity is (-1)^(moved - cycles) over the nontrivial cycles
        cycs = self.cycles()
        transpositions = sum(len(c) - 1 for c in cycs)
        return -1 if transpositions % 2 else 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __lt__(self, other: "Permutation") -> bool:
        return (len(self._img), self._img) < (len(other._img), other._img)

    def __repr__(self) -> str:
        return f"Permutation({format_perm(self)!r}, degree={self.degree})"


def identity(degree: int) -> Permutation:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return Permutation._raw(tuple(range(degree)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p*q)(i) = p(q(i)); q is applied first."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    pi = p._img
    return Permutation._raw(tuple(pi[j] for j in q._img))


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def conjugate(p: Permutation, s: Permutation) -> Permutation:
    """s * p * s^-1: the relabeling of p along s."""
    if p.degree != s.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {s.degree}")
    si, pi = s._img, p._img
    out = [0] * len(pi)
    for i in range(len(pi)):
        out[si[i]] = si[pi[i]]
    return Permutation._raw(tuple(out))


def sign(p: Permutation) -> int:
    return p.sign


def extend_degree(p: Permutation, degree: int) -> Permutation:
    """Same permutation viewed at a larger degree; new points are fixed."""
    if degree < p.degree:
        raise ValueError(f"cannot shrink degree {p.degree} to {degree}")
    return Permutation._raw(p._img + tuple(range(p.degree, degree)))


def shift_perm(p: Permutation, offset: int, degree: int) -> Permutation:
    """Relabel point i to i+offset, viewed at the given degree."""
    if offset < 0 or p.degree + offset > degree:
        raise ValueError("shifted permutation does not fit inside the degree")
    img = list(range(degree))
    for i, v in enumerate(p._img):
        img[i + offset] = v + offset
    return Permutation._raw(tuple(img))


def viewed_at_degree(group: "PermGroup", degree: int) -> "PermGroup":
    """The same group acting at a larger degree; new points are fixed."""
    if degree == group.degree:
        return group
    if degree < group.degree:
        raise ValueError(f"cannot shrink degree {group.degree} to {degree}")
    pad = tuple(range(group.degree, degree))
    elems = (t + pad for t in group.element_images())
    gens = tuple(t + pad for t in (g._img for g in group.generators))
    return PermGroup._build(degree, elems, gens, group.ground_set or None)


def shift_group(group: "PermGroup", offset: int, degree: int) -> "PermGroup":
    """The group relabeled so point i acts as point i+offset, inside the
    given degree; all other points are fixed."""
    if offset < 0 or group.degree + offset > degree:
        raise ValueError("shifted group does not fit inside the degree")
    head = tuple(range(offset))
    tail = tuple(range(offset + group.degree, degree))
    elems = (head + tuple(v + offset for v in t) + tail for t in group.element_images())
    gens = tuple(
        head + tuple(v + offset for v in g._img) + tail for g in group.generators
    )
    ground = tuple(p + offset for p in group.ground_set)
    return PermGroup._build(degree, elems, gens, ground or None)


def restrict_to(p: Permutation, points: Iterable[int]) -> Permutation:
    """The action of p on a p-invariant point set, as identity elsewhere."""
    pts = set(points)
    img = list(range(p.degree))
    for q in pts:
        v = p._img[q - 1] + 1
        if v not in pts:
            raise ValueError(f"point set not invariant: {q} maps to {v}")
        img[q - 1] = v - 1
    return Permutation._raw(tuple(img))


# ---------------------------------------------------------------------------
# cycle notation


def format_perm(p: Permutation) -> str:
    """Cycle notation, fixed points omitted; the identity prints as 'id'."""
    cycs = p.cycles()
    if not cycs:
        return "id"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


def parse_perm(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1 2 3)(4 5)`` at the given degree.

    Commas and spaces both separate points.  ``id`` and ``()`` denote the
    identity.  Errors report the character position of the offending token.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    s = text.strip()
    if s in ("id", "()", ""):
        return identity(degree)
    img = list(range(degree))
    used = [False] * degree
    i = 0
    while i < len(s):
        c = s[i]
        if c.isspace():
            i += 1
            continue
        if c != "(":
            raise ParseError(f"expected '(' but found {c!r}", position=i)
        j = i + 1
        cycle: list[int] = []
        num_start = None
        while j <= len(s):
            if j == len(s):
                raise ParseError("unclosed cycle", position=i)
            c = s[j]
            if c.isdigit():
                if num_start is None:
                    num_start = j
                j += 1
                continue
            if num_start is not None:
                point = int(s[num_start:j])
                if not 1 <= point <= degree:
                    raise ParseError(
                        f"point {point} outside 1..{degree}", position=num_start
                    )
                if used[point - 1]:
                    raise ParseError(f"point {point} appears twice", position=num_start)
                used[point - 1] = True
                cycle.append(point)
                num_start = None
            if c == ")":
                break
            if c.isspace() or c == ",":
                j += 1
                continue
            raise ParseError(f"unexpected character {c!r}", position=j)
        if len(cycle) == 1:
            raise ParseError("cycle of length 1", position=i)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            img[a - 1] = b - 1
        i = j + 1
    return Permutation._raw(tuple(img))


# ---------------------------------------------------------------------------
# groups


def _dimino_extend(
    elems: set[tuple[int, ...]],
    gens: Sequence[tuple[int, ...]],
    g: tuple[int, ...],
    bound: int,
) -> None:
    """Dimino's step: grow ``elems``, the element set of H = <gens>, in place
    to the element set of <gens, g>.

    The new group is a union of right cosets H.r.  Whenever a product r.s of
    a coset representative and a generator is not yet known, the whole coset
    H.(r.s) is added at once.  Raises BudgetExceeded once the element count
    would pass ``bound``.
    """
    if g in elems:
        return
    ident = tuple(range(len(g)))
    coset_tail = [h for h in elems if h != ident]
    getters = [itemgetter(*s) for s in (*gens, g)]
    reps: list[tuple[int, ...]] = []

    def add_coset(r: tuple[int, ...]) -> None:
        size = len(elems) + len(coset_tail) + 1
        if size > bound:
            raise BudgetExceeded("materialization", size, bound)
        elems.add(r)
        elems.update(map(itemgetter(*r), coset_tail))  # h.r, applying r first
        reps.append(r)

    add_coset(g)
    for r in reps:  # grows while it is scanned
        for s in getters:
            x = s(r)  # r.s, applying s first
            if x not in elems:
                add_coset(x)


def _greedy_span(
    candidates: Iterable[tuple[int, ...]],
    degree: int,
    bound: int,
    target: int | None = None,
) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """Scan candidates in order, keeping each one outside the group generated
    so far; stop once that group has ``target`` elements.

    Returns the kept generators and the element set they generate.  Which
    candidates are kept depends only on the groups, not on how they are
    computed.
    """
    elems = {tuple(range(degree))}
    gens: list[tuple[int, ...]] = []
    for c in candidates:
        if c in elems:
            continue
        _dimino_extend(elems, gens, c, bound)
        gens.append(c)
        if len(elems) == target:
            break
    return gens, elems


class PermGroup:
    """A fully materialized permutation group on a ground set inside {1..n}.

    The ground set defaults to the moved points; pass one explicitly to
    view a group as acting on chosen points (a trivial group on {1,2}, say).
    """

    __slots__ = ("_degree", "_ground", "_gens", "_eltups", "_elemset", "_hash", "_perms")

    def __init__(
        self,
        degree: int,
        eltups: tuple[tuple[int, ...], ...],
        elemset: frozenset[tuple[int, ...]],
        gens: tuple[Permutation, ...],
        ground: tuple[int, ...],
    ):
        # internal constructor: use generate_group / from_elements instead
        self._degree = degree
        self._eltups = eltups
        self._elemset = elemset
        self._gens = gens
        self._ground = ground
        self._hash = None
        self._perms = None

    @classmethod
    def _build(
        cls,
        degree: int,
        elems: Iterable[tuple[int, ...]],
        gen_tuples: Sequence[tuple[int, ...]] | None,
        ground: Iterable[int] | None,
    ) -> "PermGroup":
        elem_set = frozenset(elems)
        eltups = tuple(sorted(elem_set))
        if not eltups:
            raise ValueError("a group needs at least the identity element")
        moved = set()
        for t in eltups:
            for i, v in enumerate(t):
                if v != i:
                    moved.add(i + 1)
        if ground is None:
            ground_t = tuple(sorted(moved))
        else:
            ground_t = tuple(sorted(set(ground)))
            if not moved <= set(ground_t):
                missing = sorted(moved - set(ground_t))
                raise ValueError(f"ground set omits moved points {missing}")
            if ground_t and not (1 <= ground_t[0] and ground_t[-1] <= degree):
                raise ValueError(f"ground set outside 1..{degree}")
        if gen_tuples is None:
            # a span that outgrows or leaves the set shows it is not a group
            try:
                gen_tuples, span = _greedy_span(eltups, degree, len(eltups), len(eltups))
            except BudgetExceeded:
                span = None
            if span != elem_set:
                raise ValueError("element set is not closed under composition")
        gens = tuple(Permutation._raw(t) for t in gen_tuples)
        return cls(degree, eltups, elem_set, gens, ground_t)

    @classmethod
    def from_elements(
        cls,
        elements: Iterable[Permutation],
        ground_set: Iterable[int] | None = None,
        generators: Sequence[Permutation] | None = None,
    ) -> "PermGroup":
        """Group from a full element list; validates closure under products.

        Derives a short generating list unless one is supplied, bounding
        that work by the element count.
        """
        elems = [p for p in elements]
        if not elems:
            raise ValueError("element list is empty")
        degree = elems[0].degree
        for p in elems:
            if p.degree != degree:
                raise DegreeMismatch("elements have mixed degrees")
        gen_tuples = None
        if generators is not None:
            gen_tuples = tuple(g._img for g in generators)
            pool = {p._img for p in elems}
            for g in gen_tuples:
                if g not in pool:
                    raise ValueError("a supplied generator is not among the elements")
        return cls._build(degree, (p._img for p in elems), gen_tuples, ground_set)

    # -- basic views

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def ground_set(self) -> tuple[int, ...]:
        return self._ground

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._gens

    @property
    def order(self) -> int:
        return len(self._eltups)

    @property
    def is_trivial(self) -> bool:
        return len(self._eltups) == 1

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple; built lazily and cached."""
        if self._perms is None:
            self._perms = tuple(Permutation._raw(t) for t in self._eltups)
        return self._perms

    def element_images(self) -> tuple[tuple[int, ...], ...]:
        """Sorted 0-based image tuples; the canonical form of the group."""
        return self._eltups

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p._img in self._elemset

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self._eltups)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self._degree == other._degree
            and self._eltups == other._eltups
        )

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if not isinstance(other, PermGroup) or self._degree != other._degree:
            raise DegreeMismatch("subgroup test requires equal degrees")
        return self._elemset <= other._elemset

    def __le__(self, other: "PermGroup") -> bool:
        return self.is_subgroup_of(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._degree, self._eltups))
        return self._hash

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, order={self.order})"


def generate_group(
    generators: Sequence[Permutation],
    ground_set: Iterable[int] | None = None,
    degree: int | None = None,
    budgets: Budgets | None = None,
) -> PermGroup:
    """Materialize the group the generators produce with Dimino's algorithm,
    extending by one generator at a time.

    Raises BudgetExceeded once the element count would pass the
    materialization bound.  With no generators a degree is required.
    """
    b = resolve(budgets)
    gens = list(generators)
    if gens:
        deg = gens[0].degree
        for g in gens:
            if g.degree != deg:
                raise DegreeMismatch("generators have mixed degrees")
        if degree is not None and degree != deg:
            raise DegreeMismatch(f"generators have degree {deg}, not {degree}")
    else:
        if degree is None:
            if ground_set is None:
                raise ValueError("no generators: pass a degree or ground set")
            deg = max(ground_set, default=0)
        else:
            deg = degree
    gen_tuples = tuple(g._img for g in gens)
    _, elems = _greedy_span(gen_tuples, deg, b.materialization_bound)
    return PermGroup._build(deg, elems, gen_tuples, ground_set)


def symmetric_on(points: Iterable[int], degree: int, budgets: Budgets | None = None) -> PermGroup:
    """The full symmetric group on the given points, inside degree n."""
    pts = sorted(set(points))
    b = resolve(budgets)
    if math.factorial(len(pts)) > b.materialization_bound:
        raise BudgetExceeded(
            "materialization", math.factorial(len(pts)), b.materialization_bound
        )
    elems = []
    for images in itertools.permutations(pts):
        img = list(range(degree))
        for p, v in zip(pts, images):
            img[p - 1] = v - 1
        elems.append(tuple(img))
    gen_tuples = []
    if len(pts) >= 2:
        img = list(range(degree))
        img[pts[0] - 1], img[pts[1] - 1] = pts[1] - 1, pts[0] - 1
        gen_tuples.append(tuple(img))
    if len(pts) >= 3:
        img = list(range(degree))
        for a, bpt in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = bpt - 1
        gen_tuples.append(tuple(img))
    return PermGroup._build(degree, elems, tuple(gen_tuples), pts or None)


def alternating_on(points: Iterable[int], degree: int, budgets: Budgets | None = None) -> PermGroup:
    """The alternating group on the given points, inside degree n."""
    pts = sorted(set(points))
    b = resolve(budgets)
    order = math.factorial(len(pts)) // 2
    if order > b.materialization_bound:
        raise BudgetExceeded("materialization", order, b.materialization_bound)
    gen_tuples: list[tuple[int, ...]] = []
    if len(pts) >= 3:
        img = list(range(degree))
        img[pts[0] - 1], img[pts[1] - 1], img[pts[2] - 1] = (
            pts[1] - 1,
            pts[2] - 1,
            pts[0] - 1,
        )
        gen_tuples.append(tuple(img))
    if len(pts) >= 4:
        img = list(range(degree))
        cyc = pts if len(pts) % 2 else pts[1:]
        for a, bpt in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = bpt - 1
        gen_tuples.append(tuple(img))
    gens = [Permutation._raw(t) for t in gen_tuples]
    return generate_group(gens, ground_set=pts or None, degree=degree, budgets=b)


# ---------------------------------------------------------------------------
# products


def direct_product(g: PermGroup, h: PermGroup, budgets: Budgets | None = None) -> PermGroup:
    """Internal direct product of two groups with disjoint ground sets."""
    if g.degree != h.degree:
        raise DegreeMismatch(
            "direct product needs a common degree; extend or shift one factor first"
        )
    overlap = set(g.ground_set) & set(h.ground_set)
    if overlap:
        raise ValueError(f"ground sets overlap on {sorted(overlap)}")
    b = resolve(budgets)
    total = g.order * h.order
    if total > b.materialization_bound:
        raise BudgetExceeded("materialization", total, b.materialization_bound)
    elems = []
    for gt in g.element_images():
        for ht in h.element_images():
            elems.append(tuple(gt[j] for j in ht))
    ground = tuple(sorted(set(g.ground_set) | set(h.ground_set)))
    gen_tuples = tuple(p._img for p in g.generators + h.generators)
    out = PermGroup._build(g.degree, elems, gen_tuples, ground)
    if out.order != total:
        raise ValueError("factors do not commute elementwise; product is not direct")
    return out


def index2_subdirect(
    b_group: PermGroup, l_group: PermGroup, l0_group: PermGroup
) -> PermGroup:
    """The index-2 gluing: even part of ``b_group`` paired with ``l0_group``,
    odd part paired with its complement in ``l_group``.

    ``b_group`` must be the full symmetric group on its ground set, and
    ``l0_group`` must sit at index exactly 2 in ``l_group``.
    """
    if b_group.degree != l_group.degree or l_group.degree != l0_group.degree:
        raise DegreeMismatch("all three groups must share a degree")
    if set(b_group.ground_set) & set(l_group.ground_set):
        raise ValueError("ground sets overlap")
    bsize = len(b_group.ground_set)
    if bsize < 2 or b_group.order != math.factorial(bsize):
        raise ValueError("first factor must be the full symmetric group on its ground set")
    if not set(l0_group.element_images()) < set(l_group.element_images()):
        raise ValueError("index-2 part is not a proper subgroup of the second factor")
    if l0_group.order * 2 != l_group.order:
        raise ValueError(
            f"index of the distinguished subgroup is "
            f"{l_group.order / l0_group.order:g}, not 2"
        )
    if not set(l0_group.ground_set) <= set(l_group.ground_set):
        raise ValueError("index-2 part moves points outside the second factor")
    l0 = set(l0_group.element_images())
    l_minus = [t for t in l_group.element_images() if t not in l0]
    elems = []
    for bt in b_group.element_images():
        side = l0_group.element_images() if Permutation._raw(bt).sign == 1 else l_minus
        for ht in side:
            elems.append(tuple(bt[j] for j in ht))
    expected = b_group.order * l_group.order // 2
    ground = tuple(sorted(set(b_group.ground_set) | set(l_group.ground_set)))
    out = PermGroup._build(b_group.degree, elems, None, ground)
    if out.order != expected:
        raise ValueError("gluing produced an unexpected order")
    return out


# ---------------------------------------------------------------------------
# orbits, transitivity, primitivity


def orbits_on_points(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the ground set, each sorted, ordered by least point."""
    parent = {p: p for p in group.ground_set}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in group.generators:
        for p in group.ground_set:
            a, b = find(p), find(g(p))
            if a != b:
                parent[max(a, b)] = min(a, b)
    buckets: dict[int, list[int]] = {}
    for p in group.ground_set:
        buckets.setdefault(find(p), []).append(p)
    return tuple(tuple(sorted(v)) for _, v in sorted(buckets.items()))


def full_orbits(group: PermGroup, degree: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbits on all of {1..degree}: ground-set orbits plus fixed singletons."""
    n = group.degree if degree is None else degree
    if n < group.degree:
        raise ValueError("degree smaller than the group's")
    orbs = list(orbits_on_points(group))
    covered = {p for o in orbs for p in o}
    orbs.extend((p,) for p in range(1, n + 1) if p not in covered)
    return tuple(sorted(orbs, key=lambda o: o[0]))


def is_transitive(group: PermGroup) -> bool:
    """Transitive on its ground set (which must be nonempty)."""
    if not group.ground_set:
        raise ValueError("transitivity on an empty ground set is undefined")
    return len(orbits_on_points(group)) == 1


def is_primitive(group: PermGroup) -> bool:
    """No nontrivial block system on the ground set; requires transitivity."""
    if not is_transitive(group):
        raise ValueError("primitivity is defined for transitive groups only")
    omega = group.ground_set
    if len(omega) <= 2:
        return True
    alpha = omega[0]
    gens = group.generators
    for beta in omega[1:]:
        # minimal block containing {alpha, beta} via pairwise merging
        parent = {p: p for p in omega}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parent[find(beta)] = find(alpha)
        queue = [(alpha, beta)]
        while queue:
            x, y = queue.pop()
            for g in gens:
                gx, gy = g(x), g(y)
                rx, ry = find(gx), find(gy)
                if rx != ry:
                    parent[ry] = rx
                    queue.append((gx, gy))
        size = sum(1 for p in omega if find(p) == find(alpha))
        if 1 < size < len(omega):
            return False
    return True


# ---------------------------------------------------------------------------
# conjugacy


def conjugate_group(group: PermGroup, s: Permutation) -> PermGroup:
    """The relabeled group s * G * s^-1."""
    if s.degree != group.degree:
        raise DegreeMismatch("conjugating element has the wrong degree")
    elems = (conjugate(Permutation._raw(t), s)._img for t in group.element_images())
    gen_tuples = tuple(conjugate(g, s)._img for g in group.generators)
    ground = tuple(sorted(s(p) for p in group.ground_set))
    return PermGroup._build(group.degree, elems, gen_tuples, ground)


def _group_fingerprint(group: PermGroup) -> tuple:
    types: dict[tuple[int, ...], int] = {}
    for p in group.elements:
        ct = p.cycle_type()
        types[ct] = types.get(ct, 0) + 1
    return (group.order, tuple(sorted(types.items())))


def are_conjugate_in_symmetric(g: PermGroup, h: PermGroup) -> bool:
    """Conjugacy inside the symmetric group of their common degree.

    Cheap fingerprints first, then a brute scan over relabelings; meant for
    degree at most 6 or so.
    """
    if g.degree != h.degree:
        raise DegreeMismatch("conjugacy test requires equal degrees")
    if g == h:
        return True
    if _group_fingerprint(g) != _group_fingerprint(h):
        return False
    target = set(h.element_images())
    for simg in itertools.permutations(range(g.degree)):
        s = Permutation._raw(simg)
        if all(conjugate(p, s)._img in target for p in g.generators):
            if {conjugate(p, s)._img for p in g.elements} == target:
                return True
    return False


# ---------------------------------------------------------------------------
# group files


def parse_group_text(text: str, budgets: Budgets | None = None) -> PermGroup:
    """Parse the plain group format:

        # optional comments
        degree: 5
        (1 2 3 4 5)
        (2 3 5 4)

    One generator per line after the degree header.
    """
    degree = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            if not line.startswith("degree:"):
                raise ParseError("first entry must be 'degree: n'", line=lineno)
            try:
                degree = int(line[len("degree:"):].strip())
            except ValueError:
                raise ParseError("degree is not an integer", line=lineno) from None
            if degree < 1:
                raise ParseError("degree must be at least 1", line=lineno)
            continue
        try:
            gens.append(parse_perm(line, degree))
        except ParseError as exc:
            raise ParseError(f"bad generator: {exc}", line=lineno) from None
    if degree is None:
        raise ParseError("missing 'degree: n' header", line=1)
    return generate_group(gens, degree=degree, budgets=budgets)


def read_group_file(path, budgets: Budgets | None = None) -> PermGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), budgets=budgets)
