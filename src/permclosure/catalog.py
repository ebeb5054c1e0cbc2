"""Named permutation groups, the primitive-group survey, and its checks.

Two kinds of names are resolvable through :func:`get_group`:

* parametric families ``C_n``, ``D_n``, ``A_n``, ``S_n`` of any degree
  whose order the materialization bound and whose 2^n words the tuple
  budget admit, built on demand
  (dihedral groups are named by degree, so ``D_5`` acts on 5 points and
  has 10 elements);
* the named groups of ``_NAMED_SPECS``, one row each of name, degree,
  order, primitivity, description and generators given as data, validated
  on first access against the expected order, transitivity, and
  primitivity.

The six imprimitive entries of degree 6 give their generators in cycle
notation, the others as maps of one of two actions of GF(q), whose tables
``_field`` builds for prime q, for GF(8) modulo x^3 = x + 1 and for GF(9)
modulo x^2 = -1, the element sum c_j x^j numbered sum c_j p^j:

* ``_affine``: x -> A x^phi + b on GF(q)^d, phi a power of the Frobenius
  map x -> x^p, with the vector (x_1..x_d) at point sum x_j q^(d-j) + 1,
  so that on GF(q) itself point i is the field element numbered i - 1;
* ``_projective``: x -> (a x^phi + b) / (c x^phi + d) on the projective
  line, the field elements at points 1..q as above and infinity at point
  q + 1.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from functools import lru_cache

from .budgets import Budgets, resolve
from .closure import galois_closure, orbit_equivalent
from .data import load_expected_equiv_classes
from .errors import CatalogValidationError, UnknownGroupName, UsageError
from .perm import (
    PermGroup,
    Permutation,
    alternating_on,
    direct_product,
    generate_group,
    index2_subdirect,
    is_primitive,
    is_transitive,
    parse_perm,
    symmetric_on,
)

__all__ = [
    "CatalogEntry",
    "get_group",
    "catalog_entries",
    "catalog_names",
    "survey_candidates",
    "primitive_survey_names",
    "SeressReport",
    "seress_report",
    "PrimitiveClosureReport",
    "primitive_3closed_report",
]

# ---------------------------------------------------------------------------
# finite fields and their two actions

# q -> (p, r): x^e = sum r_j x^j in GF(q) = GF(p)[x], e = len(r); a prime
# q is GF(q) itself, where no product reaches x^1
_MODULI = {8: (2, (1, 1, 0)), 9: (3, (2, 0))}


@lru_cache(maxsize=None)
def _field(q: int) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Addition and multiplication tables of GF(q), and its Frobenius map
    x -> x^p, on the elements numbered sum c_j p^j for sum c_j x^j."""
    p, low = _MODULI.get(q, (q, (0,)))
    e = len(low)
    powers = [p**j for j in range(e)]
    digits = [[v // w % p for w in powers] for v in range(q)]

    def number(c):
        return sum(cj % p * w for cj, w in zip(c, powers))

    def times(u, v):
        c = [0] * (2 * e - 1)
        for i, ui in enumerate(digits[u]):
            for j, vj in enumerate(digits[v]):
                c[i + j] += ui * vj
        for top in range(2 * e - 2, e - 1, -1):  # x^top = x^(top-e) * sum r_j x^j
            for j, r in enumerate(low):
                c[top - e + j] += c[top] * r
        return number(c)

    add = [[number(map(sum, zip(digits[u], digits[v]))) for v in range(q)] for u in range(q)]
    mul = [[times(u, v) for v in range(q)] for u in range(q)]
    frobenius = list(range(q))
    for _ in range(p - 1):
        frobenius = [mul[f][v] for v, f in enumerate(frobenius)]
    return add, mul, frobenius


def _affine(q: int, matrix, shift, power) -> Permutation:
    """x -> A x^(p^power) + b on GF(q)^d, d = len(b), the matrix A given
    row by row; the vector (x_1..x_d) sits at point sum x_j q^(d-j) + 1."""
    add, mul, frobenius = _field(q)
    d = len(shift)

    def image(v):
        x = [v // q ** (d - 1 - j) % q for j in range(d)]
        for _ in range(power):
            x = [frobenius[xj] for xj in x]
        out = 0
        for i, acc in enumerate(shift):
            for a, xj in zip(matrix[i * d:(i + 1) * d], x):
                acc = add[acc][mul[a][xj]]
            out = out * q + acc
        return out + 1

    return Permutation([image(v) for v in range(q**d)])


def _projective(q: int, matrix, power) -> Permutation:
    """x -> (a x^(p^power) + b) / (c x^(p^power) + d) on the projective line
    over GF(q), (a, b, c, d) = matrix: element v at point v + 1 and
    infinity at point q + 1."""
    a, b, c, d = matrix
    add, mul, frobenius = _field(q)

    def over(num, den):
        return q if den == 0 else mul[num][mul[den].index(1)]

    def image(v):
        if v == q:
            return over(a, c)
        for _ in range(power):
            v = frobenius[v]
        return over(add[mul[a][v]][b], add[mul[c][v]][d])

    return Permutation([image(v) + 1 for v in range(q + 1)])


@dataclass(frozen=True)
class CatalogEntry:
    """One named group of the catalog."""

    name: str
    degree: int
    order: int
    primitive: bool
    description: str
    generators: tuple[Permutation, ...]


# name, degree, order, primitive, description, generators: cycle strings,
# or (action, q, maps) with one argument tuple per map after q, field
# elements by their numbers (in GF(8) 2 is x, in GF(9) 4 is 1 + i)
_NAMED_SPECS = (
    (
        "AGL(1,5)", 5, 20, True,
        "maps x -> ax + b on the 5-element field; point i is field value i - 1",
        (_affine, 5, (((1,), (1,), 0), ((2,), (0,), 0))),
    ),
    (
        "PGL(2,5)", 6, 120, True,
        "fractional linear maps on the projective line over the 5-element "
        "field; points 1..5 are field values 0..4 and point 6 is infinity",
        (_projective, 5, (((1, 1, 0, 1), 0), ((2, 0, 0, 1), 0), ((0, 1, 1, 0), 0))),
    ),
    (
        "C_3 wr S_2", 6, 18, False,
        "independent 3-cycles inside the blocks {1,2,3} and {4,5,6}, plus "
        "the swap of the two blocks",
        ("(1 2 3)", "(1 4)(2 5)(3 6)"),
    ),
    (
        "S_3 wr S_2", 6, 72, False,
        "independent permutations inside the blocks {1,2,3} and {4,5,6}, "
        "plus the swap of the two blocks",
        ("(1 2 3)", "(1 2)", "(1 4)(2 5)(3 6)"),
    ),
    (
        "S_3 wr_sd S_2", 6, 36, False,
        "index-2 subgroup of S_3 wr S_2 keeping the block swap: the two "
        "in-block permutations must have equal parity",
        ("(1 2 3)", "(1 2)(4 5)", "(1 4)(2 5)(3 6)"),
    ),
    (
        "(S_3 wr S_2) cap A_6", 6, 36, False,
        "even elements of S_3 wr S_2",
        ("(4 5 6)", "(2 3)(5 6)", "(1 2)(5 6)", "(1 4)(2 5 3 6)"),
    ),
    (
        "R(cube)", 6, 24, False,
        "rotations of the cube acting on its faces, numbered 1 up, 2 front, "
        "3 right, 4 back, 5 left, 6 down",
        ("(2 3 4 5)", "(1 2 6 4)"),
    ),
    (
        "S(cube)", 6, 48, False,
        "all isometries of the cube on its faces: rotations together with "
        "the central inversion",
        ("(2 3 4 5)", "(1 2 6 4)", "(1 6)(2 4)(3 5)"),
    ),
    (
        "F_21", 7, 21, True,
        "maps x -> ax + b on the 7-element field with a a nonzero cube",
        (_affine, 7, (((1,), (1,), 0), ((2,), (0,), 0))),
    ),
    (
        "AGL(1,8)", 8, 56, True,
        "maps x -> ax + b on the 8-element field; point i is the field "
        "element with bit value i - 1",
        (_affine, 8, (((1,), (1,), 0), ((2,), (0,), 0))),
    ),
    (
        "AGammaL(1,8)", 8, 168, True,
        "AGL(1,8) extended by the squaring field automorphism",
        (_affine, 8, (((1,), (1,), 0), ((2,), (0,), 0), ((1,), (0,), 1))),
    ),
    (
        "ASL(3,2)", 8, 1344, True,
        "invertible linear maps of the 2-element-field cube followed by "
        "translations; point i is the vector with bit value i - 1",
        (_affine, 2, (((1, 0, 0, 0, 1, 0, 0, 0, 1), (0, 0, 1), 0),
                      ((0, 1, 0, 0, 0, 1, 1, 0, 0), (0, 0, 0), 0),
                      ((1, 1, 0, 0, 1, 0, 0, 0, 1), (0, 0, 0), 0))),
    ),
    (
        "AGL(1,9)", 9, 72, True,
        "maps x -> ax + b on the 9-element field; the element a*i + b "
        "(i squaring to -1) sits at point 3a + b + 1",
        (_affine, 9, (((1,), (1,), 0), ((4,), (0,), 0))),
    ),
    (
        "AGammaL(1,9)", 9, 144, True,
        "AGL(1,9) extended by the cubing field automorphism",
        (_affine, 9, (((1,), (1,), 0), ((4,), (0,), 0), ((1,), (0,), 1))),
    ),
    (
        "ASL(2,3)", 9, 216, True,
        "determinant-1 linear maps of the 3-element-field plane followed by "
        "translations; the vector (x, y) sits at point 3x + y + 1",
        (_affine, 3, (((1, 0, 0, 1), (0, 1), 0), ((1, 1, 0, 1), (0, 0), 0),
                      ((1, 0, 1, 1), (0, 0), 0))),
    ),
    (
        "AGL(2,3)", 9, 432, True,
        "all invertible affine maps of the 3-element-field plane",
        (_affine, 3, (((1, 0, 0, 1), (0, 1), 0), ((1, 1, 0, 1), (0, 0), 0),
                      ((1, 0, 1, 1), (0, 0), 0), ((2, 0, 0, 1), (0, 0), 0))),
    ),
    (
        "PSL(2,8)", 9, 504, True,
        "fractional linear maps on the projective line over the 8-element "
        "field; points 1..8 are field values and point 9 is infinity",
        (_projective, 8, (((1, 1, 0, 1), 0), ((2, 0, 0, 1), 0), ((0, 1, 1, 0), 0))),
    ),
    (
        "PGammaL(2,8)", 9, 1512, True,
        "PSL(2,8) extended by the squaring field automorphism",
        (_projective, 8, (((1, 1, 0, 1), 0), ((2, 0, 0, 1), 0), ((0, 1, 1, 0), 0),
                          ((1, 0, 0, 1), 1))),
    ),
    (
        "PGL(2,9)", 10, 720, True,
        "fractional linear maps on the projective line over the 9-element "
        "field; points 1..9 are field values and point 10 is infinity",
        (_projective, 9, (((1, 1, 0, 1), 0), ((4, 0, 0, 1), 0), ((0, 1, 1, 0), 0))),
    ),
    (
        "PGammaL(2,9)", 10, 1440, True,
        "PGL(2,9) extended by the cubing field automorphism",
        (_projective, 9, (((1, 1, 0, 1), 0), ((4, 0, 0, 1), 0), ((0, 1, 1, 0), 0),
                          ((1, 0, 0, 1), 1))),
    ),
)


def _normalize_name(name: str) -> str:
    s = name.strip().lower()
    for src, dst in (
        ("≀", "wr"), ("γ", "gamma"), ("×", "x"), ("∩", "cap"), ("·", "x"),
    ):
        s = s.replace(src, dst)
    for junk in (" ", "\t", "_", "-"):
        s = s.replace(junk, "")
    return s


@lru_cache(maxsize=1)
def _catalog() -> dict[str, tuple[CatalogEntry, PermGroup]]:
    """Build every named group from its generators and validate it.

    The build reads no budgets, which would be the environment's and not
    the caller's: the package defaults hold every entry, and ``get_group``
    checks each order against the caller's bound."""
    out: dict[str, tuple[CatalogEntry, PermGroup]] = {}
    for name, degree, order, primitive, desc, data in _NAMED_SPECS:
        key = _normalize_name(name)
        assert key not in out, f"two catalog names normalize to {key!r}"
        if isinstance(data[0], str):
            gens = tuple(parse_perm(text, degree) for text in data)
        else:
            action, q, maps = data
            gens = tuple(action(q, *args) for args in maps)
        group = generate_group(gens, ground_set=range(1, degree + 1), budgets=Budgets())
        if group.order != order:
            raise CatalogValidationError(
                f"{name}: generators produce order {group.order}, not {order}"
            )
        if not is_transitive(group):
            raise CatalogValidationError(f"{name}: generators are not transitive")
        if is_primitive(group) != primitive:
            raise CatalogValidationError(f"{name}: primitivity flag is wrong")
        out[key] = (CatalogEntry(name, degree, order, primitive, desc, gens), group)
    return out


def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All named entries, validated, in definition order."""
    return tuple(entry for entry, _group in _catalog().values())


def catalog_names() -> tuple[str, ...]:
    """Canonical names of the named entries, in definition order."""
    return tuple(entry.name for entry in catalog_entries())


_PARAM_RE = re.compile(r"([acds])(\d+)")

# each parametric family's name, least degree, and the factors of its order
_FAMILIES = {
    "c": ("cyclic", 1, lambda n: (n,)),
    "d": ("dihedral", 3, lambda n: (2, n)),
    "a": ("alternating", 1, lambda n: range(3, n + 1)),
    "s": ("symmetric", 1, lambda n: range(2, n + 1)),
}


@lru_cache(maxsize=None)
def _parametric_group(kind: str, n: int) -> PermGroup:
    # get_group has checked the degree, and this order against the caller's budgets
    order = math.prod(_FAMILIES[kind][2](n))
    b = Budgets(materialization_bound=order)
    points = range(1, n + 1)
    if kind == "s":
        return symmetric_on(points, n, b)
    if kind == "a":
        return alternating_on(points, n, b)
    gens = [Permutation([v % n + 1 for v in points])] if n > 1 else []  # the n-cycle
    if kind == "d":
        gens.append(Permutation([1] + [n + 2 - v for v in range(2, n + 1)]))
    group = generate_group(gens, ground_set=points, degree=n, budgets=b)
    assert group.order == order
    return group


def get_group(name: str, budgets: Budgets | None = None) -> PermGroup:
    """Resolve a group name: ``C_n``/``D_n``/``A_n``/``S_n`` or a catalog entry.

    Name matching ignores case, spacing, and underscores, and accepts the
    unicode wreath, intersection, and Gamma spellings.  Raises
    UnknownGroupName for anything else.  Before a group is built or
    returned, its order is checked against the materialization bound (a
    family's order factor by factor, so a huge degree is refused at once),
    and a family's 2^n words, the table of the least alphabet at degree
    n, against the tuple budget.
    """
    norm = _normalize_name(name)
    m = _PARAM_RE.fullmatch(norm)
    if m:
        kind, n = m.group(1), int(m.group(2))
        family, least, factors = _FAMILIES[kind]
        if n < least:
            raise UnknownGroupName(f"{family} groups need degree at least {least}")
        b, order = resolve(budgets), 1
        for f in factors(n):  # refused once the partial product passes
            order *= f
            b.check("materialization", order)
        b.check("tuple-space", 2**n)
        return _parametric_group(kind, n)
    cat = _catalog()
    if norm in cat:
        entry, group = cat[norm]
        resolve(budgets).check("materialization", entry.order)
        return group
    raise UnknownGroupName(
        f"unknown group {name!r}; known: C_n, D_n, A_n, S_n and {', '.join(catalog_names())}"
    )


# ---------------------------------------------------------------------------
# the naming pool for the degree-at-most-6 closure survey


@lru_cache(maxsize=None)
def survey_candidates(n: int) -> tuple[tuple[str, PermGroup], ...]:
    """Named comparison groups used to label survey rows at one degree.

    Every group acts on all n points (no fixed points), and the pool is
    rich enough to name each non-closed class of the survey and its
    closure.  Unicode display names match the reference table.  The pool
    is built under the package defaults, ``Budgets()``, as the catalog is,
    and cached: it reads no bound from the environment, which would not be
    the caller's."""
    if n < 2 or n > 6:
        raise ValueError("the survey naming pool covers degrees 2..6")
    b = Budgets()

    def named(*names: str) -> tuple[tuple[str, PermGroup], ...]:
        return tuple((nm, get_group(nm, b)) for nm in names)

    def sym(points: tuple[int, ...]) -> PermGroup:
        return symmetric_on(points, n, b)

    def alt(points: tuple[int, ...]) -> PermGroup:
        return alternating_on(points, n, b)

    def gen(*texts: str) -> PermGroup:
        return generate_group([parse_perm(t, n) for t in texts], budgets=b)

    def trivial(points: tuple[int, ...]) -> PermGroup:
        return generate_group([], ground_set=points, degree=n, budgets=b)

    if n == 2:
        return named("S_2")
    if n == 3:
        return named("A_3", "S_3")
    if n == 4:
        return named("C_4", "D_4", "A_4", "S_4")
    if n == 5:
        s2 = sym((4, 5))
        return named("C_5", "D_5", "AGL(1,5)", "A_5", "S_5") + (
            ("S_3×_sd S_2", index2_subdirect(sym((1, 2, 3)), s2, trivial((4, 5)))),
            ("A_3×S_2", direct_product(alt((1, 2, 3)), s2, b)),
            ("S_3×S_2", direct_product(sym((1, 2, 3)), s2, b)),
        )
    s2 = sym((5, 6))
    s3_right = sym((4, 5, 6))
    d4 = gen("(1 2 3 4)", "(2 4)")
    c4 = gen("(1 2 3 4)")
    # D_4 on {1..4} glued to S_2 on {5,6} along D_4 / C_4
    d4_glued = gen("(1 2 3 4)", "(2 4)(5 6)")
    return named("PGL(2,5)", "A_6", "S_6") + (
        ("S_4×_sd S_2", index2_subdirect(sym((1, 2, 3, 4)), s2, trivial((5, 6)))),
        ("A_4×S_2", direct_product(alt((1, 2, 3, 4)), s2, b)),
        ("S_4×S_2", direct_product(sym((1, 2, 3, 4)), s2, b)),
        ("S_3×_sd S_3", index2_subdirect(sym((1, 2, 3)), s3_right, alt((4, 5, 6)))),
        ("A_3×S_3", direct_product(alt((1, 2, 3)), s3_right, b)),
        ("A_3×A_3", direct_product(alt((1, 2, 3)), alt((4, 5, 6)), b)),
        ("S_3×S_3", direct_product(sym((1, 2, 3)), s3_right, b)),
        ("D_4×_sd S_2", d4_glued),
        ("C_4×S_2", direct_product(c4, s2, b)),
        ("D_4×S_2", direct_product(d4, s2, b)),
        ("C_3≀S_2", get_group("C_3 wr S_2", b)),
        ("S_3≀_sd S_2", get_group("S_3 wr_sd S_2", b)),
        ("(S_3≀S_2)∩A_6", get_group("(S_3 wr S_2) cap A_6", b)),
        ("S_3≀S_2", get_group("S_3 wr S_2", b)),
        ("R(cube)", get_group("R(cube)", b)),
        ("S(cube)", get_group("S(cube)", b)),
    )


# ---------------------------------------------------------------------------
# the primitive survey: orbit-equivalence classes and closure over 3

_PRIMITIVE_SURVEY = {
    3: ("A_3", "S_3"),
    4: ("A_4", "S_4"),
    5: ("C_5", "D_5", "AGL(1,5)", "A_5", "S_5"),
    6: ("PGL(2,5)", "A_6", "S_6"),
    7: ("C_7", "D_7", "F_21", "A_7", "S_7"),
    8: ("AGL(1,8)", "AΓL(1,8)", "ASL(3,2)", "A_8", "S_8"),
    9: (
        "AGL(1,9)", "AΓL(1,9)", "ASL(2,3)", "AGL(2,3)",
        "PSL(2,8)", "PΓL(2,8)", "A_9", "S_9",
    ),
    10: ("PGL(2,9)", "PΓL(2,9)", "A_10", "S_10"),
}


def primitive_survey_names(n: int) -> tuple[str, ...]:
    """The cataloged primitive groups of one degree, smallest first."""
    try:
        return _PRIMITIVE_SURVEY[n]
    except KeyError:
        raise UsageError("the primitive survey covers degrees 3..10") from None


@dataclass(frozen=True)
class SeressReport:
    """Orbit-equivalence classes over a 2-letter alphabet at one degree."""

    degree: int
    names: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]
    expected: tuple[tuple[str, ...], ...]
    matches: bool
    wall_time: float

    def summary_dict(self) -> dict:
        return {
            "degree": self.degree,
            "classes": [list(c) for c in self.classes],
            "expected": [list(c) for c in self.expected],
            "matches": self.matches,
        }


def seress_report(n: int, budgets: Budgets | None = None) -> SeressReport:
    """Group the cataloged primitive groups of degree n into
    orbit-equivalence classes over a 2-letter alphabet and compare with
    the expected classes."""
    t0 = time.perf_counter()
    b = resolve(budgets)
    names = primitive_survey_names(n)
    groups = [get_group(nm, b) for nm in names]
    leaders: list[int] = []
    assignment = [-1] * len(names)
    for i, g in enumerate(groups):
        for leader in leaders:
            if orbit_equivalent(groups[leader], g, 2, budgets=b):
                assignment[i] = leader
                break
        else:
            leaders.append(i)
            assignment[i] = i
    classes = tuple(
        tuple(names[i] for i in range(len(names)) if assignment[i] == leader)
        for leader in leaders
    )
    expected = load_expected_equiv_classes().get(n, ())
    matches = {frozenset(c) for c in classes} == {frozenset(c) for c in expected}
    return SeressReport(
        n, names, classes, expected, matches, time.perf_counter() - t0
    )


@dataclass(frozen=True)
class PrimitiveClosureReport:
    """Closure status over a 3-letter alphabet for one degree's primitives."""

    degree: int
    alphabet: int
    entries: tuple[tuple[str, bool, int], ...]  # name, closed, closure order
    expected_nonclosed: tuple[str, ...]
    matches: bool
    wall_time: float

    def summary_dict(self) -> dict:
        return {
            "degree": self.degree,
            "alphabet": self.alphabet,
            "entries": [
                {"name": nm, "closed": closed, "closure_order": ordr}
                for nm, closed, ordr in self.entries
            ],
            "expected_nonclosed": list(self.expected_nonclosed),
            "matches": self.matches,
        }


def primitive_3closed_report(
    n: int, budgets: Budgets | None = None
) -> PrimitiveClosureReport:
    """Check which cataloged primitive groups of degree n are closed over
    a 3-letter alphabet.  Expected: all of them except the alternating
    group once the degree is at least 4."""
    t0 = time.perf_counter()
    b = resolve(budgets)
    names = primitive_survey_names(n)
    entries = []
    for nm in names:
        g = get_group(nm, b)
        closure = galois_closure(g, 3, budgets=b)
        entries.append((nm, closure.order == g.order, closure.order))
    expected = (f"A_{n}",) if n >= 4 else ()
    computed_nonclosed = tuple(nm for nm, closed, _ in entries if not closed)
    matches = set(computed_nonclosed) == set(expected)
    return PrimitiveClosureReport(
        n, 3, tuple(entries), expected, matches, time.perf_counter() - t0
    )
