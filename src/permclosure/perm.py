"""Permutations on {1..n}, group materialization, and product constructions.

Points are 1-indexed in every public interface.  Internally a permutation is
an immutable tuple of 0-based images.  A group keeps its elements as one
small-int array of image rows in lexicographic order, beside their int64
lexicographic ranks among all permutations of the degree; equality, hashing,
membership and subgroup tests work on the ranks, and image tuples and
Permutation objects are built only when a caller asks for them.  Every
listing of a symmetric group's elements comes from one numpy generator of
lex-ordered rows and their parities, ``_lex_permutations``.  Other groups
are materialized with Dimino's algorithm, which adds a generator by adding
whole cosets of the group generated so far (``_Span``): blocks of image
rows, with a set of the rows' bytes for membership.
Everything is capped by a materialization budget, so it is meant for small
degrees, not for stabilizer-chain scale.
"""

from __future__ import annotations

import functools
import math
import zlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from .budgets import Budgets, resolve
from .errors import BudgetExceeded, DegreeMismatch, ParseError, UsageError

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
        return math.lcm(*map(len, self.cycles()))

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
    return shift_group(group, 0, degree)


def shift_group(group: "PermGroup", offset: int, degree: int) -> "PermGroup":
    """The group relabeled so point i acts as point i+offset, inside the
    given degree; all other points are fixed."""
    if offset < 0 or group.degree + offset > degree:
        raise ValueError("shifted group does not fit inside the degree")
    rows = np.tile(np.arange(degree, dtype=_point_dtype(degree)), (group.order, 1))
    rows[:, offset:offset + group.degree] = group._rows
    rows[:, offset:offset + group.degree] += offset
    gens = tuple(shift_perm(g, offset, degree)._img for g in group.generators)
    ground = tuple(p + offset for p in group.ground_set)
    return PermGroup._build(degree, rows, gens, ground or None)


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


# The most cells (waiting representatives times generators times |H|
# times the degree) for which a Dimino step forms cosets in Python, one
# bytes.translate per element; a longer queue is one pass of numpy
# gathers.  Timed on every subgroup of S_6 and on the orbit_equiv, A_8,
# A_9 and S_9 generators: from 2^13 to 2^15 cells the times were flat, and
# they were up to a fifth slower at 2^10 and at 2^16 or more (with nothing
# gathered S_9 took 199 ms against 157 ms).  Below about 2^8 cells the
# dozen numpy calls of a gathered pass cost more than its work: all of
# S_6's subgroups took 2.8 times as long with every pass gathered.
_PASS_CELLS = 1 << 14
# The most cells of one gather: a larger pass gathers its cosets in chunks,
# so a refused step holds at most one chunk past the bound.  A_9, S_9 and
# S_8 x S_2 took the same time from 2^16 to 2^22 cells.
_GATHER_CELLS = 1 << 16


@functools.cache
def _row_format(degree: int) -> tuple[np.dtype, bytes, bytes | None]:
    """How a ``_Span`` stores the image rows of the degree: their dtype,
    the bytes of the identity row, and, where every point fits in a byte,
    the tail that makes a row a bytes.translate table, mapping the bytes
    past its points to themselves."""
    dtype = _point_dtype(degree)
    pad = bytes(range(degree, 256)) if degree <= 256 else None
    return dtype, np.arange(degree, dtype=dtype).tobytes(), pad


@functools.cache
def _row_dtype(width: int) -> np.dtype:
    return np.dtype((np.void, width))


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each image row: the keys of a ``_Span``."""
    if not rows.shape[1]:
        return [b""] * len(rows)
    rows = np.ascontiguousarray(rows)
    return rows.view(_row_dtype(rows.shape[1] * rows.itemsize)).ravel().tolist()


class _Span:
    """A group under construction by Dimino's algorithm: contiguous blocks
    of image rows, the set of the rows' bytes for membership, and the keys
    of its generators.  It starts as the group of ``rows`` (the identity by
    default), which the image tuples ``gens`` must generate."""

    __slots__ = ("degree", "budgets", "dtype", "identity", "pad", "blocks", "added", "keys", "gens")

    def __init__(
        self,
        degree: int,
        budgets: Budgets,
        rows: np.ndarray | None = None,
        gens: Iterable[Sequence[int]] = (),
    ):
        self.degree = degree
        self.budgets = budgets
        self.dtype, self.identity, self.pad = _row_format(degree)
        # the rows are the blocks and the keys added since the last block
        if rows is None:
            self.blocks, self.added = [], [self.identity]
            self.keys = {self.identity}
        else:
            self.blocks, self.added = [rows], []
            self.keys = set(_row_keys(rows))
        self.gens = [self.key(g) for g in gens] if gens else []

    def key(self, img: Sequence[int]) -> bytes:
        """The bytes of an image tuple's row."""
        if self.pad is None:
            return np.array(img, dtype=self.dtype).tobytes()
        return bytes(img)

    def image(self, key: bytes) -> tuple[int, ...]:
        """The image tuple of a row's bytes."""
        if self.pad is None:
            return tuple(np.frombuffer(key, self.dtype).tolist())
        return tuple(key)

    def __len__(self) -> int:
        return len(self.keys)

    def _block(self, keys: list[bytes]) -> np.ndarray:
        """The rows whose bytes are the keys."""
        return np.frombuffer(b"".join(keys), dtype=self.dtype).reshape(len(keys), self.degree)

    def rows(self) -> np.ndarray:
        """The rows of the group so far, in no particular order."""
        return np.concatenate([*self.blocks, self._block(self.added)])

    def extend(self, g: bytes) -> None:
        """Dimino's step: grow the group H so far, which must not hold g,
        to <H, g>.

        The new group is a union of right cosets H.r.  The representatives
        r are walked in the order they are found, H's own, the identity,
        first, and a product r.s with a generator, taken in order, that
        lies outside the group so far represents a new coset.  While the
        waiting representatives hold at most ``_PASS_CELLS`` cells, they
        are walked one at a time and their cosets formed in Python, one
        bytes.translate per element; a longer queue is walked in one pass
        whose products and cosets are numpy gathers.  Both find the same
        representatives in the same order, and charge each coset as the
        elements so far plus |H|, as adding one coset at a time does.
        """
        n, h = self.degree, len(self.keys)
        self.gens.append(g)
        keys, gens, added, pad = self.keys, self.gens, self.added, self.pad
        check = self.budgets.check
        h_keys = list(keys)
        # a pass of q representatives forms at most q * cells cells
        cells = len(gens) * h * n
        # bytes.translate needs points that fit in a byte
        most = _PASS_CELLS // cells if pad is not None else 0
        tables = h_rows = gen_rows = None  # built once a pass needs them
        reps, done = [self.identity], 0
        while done < len(reps):
            if len(reps) - done <= most:
                if tables is None:
                    tables = [k + pad for k in h_keys]
                # one representative at a time while the queue stays small
                while done < len(reps) and len(reps) - done <= most:
                    table = reps[done] + pad
                    done += 1
                    for s in gens:
                        # byte j of s translated by r's table is r[s[j]],
                        # so this is r.s; H.x is x by every table of H
                        x = s.translate(table)
                        if x not in keys:
                            check("materialization", len(keys) + h)
                            coset = list(map(x.translate, tables))
                            keys.update(coset)
                            added += coset
                            reps.append(x)
            else:
                if h_rows is None:
                    h_rows, gen_rows = self._block(h_keys), self._block(gens)
                batch = reps[done:]
                done = len(reps)
                # row (a, b) is r_a[s_b], that is r_a.s_b
                products = _row_keys(self._block(batch)[:, gen_rows].reshape(-1, n))
                fresh = list(dict.fromkeys(x for x in products if x not in keys))
                reps += self._add_gathered(fresh, h_rows)

    def _add_gathered(self, fresh: list[bytes], h_rows: np.ndarray) -> list[bytes]:
        """Add the cosets of the candidates by one gather of H's rows per
        chunk: row i of block a of ``h_rows[:, xs]`` is h_i[x_a], h_i.x_a."""
        h, n = h_rows.shape
        new = []
        step = max(1, _GATHER_CELLS // (h * n))
        for start in range(0, len(fresh), step):
            chunk = fresh[start:start + step]
            cosets = h_rows[:, self._block(chunk)]
            keys = _row_keys(cosets.reshape(-1, n))
            kept = []
            for a, x in enumerate(chunk):
                if x in self.keys:
                    continue
                self.budgets.check("materialization", len(self.keys) + h)
                self.keys.update(keys[a::len(chunk)])
                kept.append(a)
            if len(kept) < len(chunk):
                cosets = cosets[:, kept]
            self.blocks.append(cosets.reshape(-1, n))
            new += [chunk[a] for a in kept]
        return new


def _greedy_span(
    candidates: np.ndarray | Iterable[Sequence[int]],
    degree: int,
    budgets: Budgets,
    target: int | None = None,
) -> tuple[list[tuple[int, ...]], _Span]:
    """Scan candidates, image rows or tuples, in order, keeping each one
    outside the group generated so far; stop once that group has ``target``
    elements.

    Returns the kept generators as image tuples and the ``_Span`` they
    generate.  Which candidates are kept depends only on the groups, not on
    how they are computed.
    """
    span = _Span(degree, budgets)
    if isinstance(candidates, np.ndarray):
        keys = _row_keys(candidates)
    else:
        keys = map(span.key, candidates)
    for key in keys:
        if key in span.keys:
            continue
        span.extend(key)
        if len(span) == target:
            break
    gens = list(map(span.image, span.gens))
    return gens, span


# ---------------------------------------------------------------------------
# element arrays


@functools.cache
def _point_dtype(degree: int) -> np.dtype:
    """The smallest unsigned dtype holding the 0-based points of the degree."""
    return np.min_scalar_type(max(degree - 1, 0))


# Rows ranked per block by _lex_ranks: 2^12 to 2^15 ranked S_9 in 11-14
# ms, all at once in 19 ms and 56 MiB.
_RANK_ROWS = 1 << 13


@functools.cache
def _lex_weights(n: int) -> np.ndarray:
    """(n-1-i)! for each place i, read-only: what each later entry below
    row[i] adds to a rank."""
    weights = np.array([math.factorial(n - 1 - i) for i in range(n)], dtype=np.int64)
    weights.flags.writeable = False
    return weights


def _lex_ranks(rows: np.ndarray) -> np.ndarray:
    """Rank of each row among all permutations of its length in
    lexicographic order, read off its Lehmer code: entry i counts the later
    entries below row[i].  The ranks are int64 up to degree 20 and Python
    ints beyond, where n! outgrows int64."""
    n = rows.shape[1]
    if n > 20:
        ranks = np.zeros(rows.shape[0], dtype=object)
        for i in range(n - 1):
            smaller_later = (rows[:, i + 1:] < rows[:, i:i + 1]).sum(axis=1)
            ranks += smaller_later.astype(object) * math.factorial(n - 1 - i)
        return ranks
    # bit p of a column stands for point p; the later entries below row[i]
    # are the points below it missing from row[0..i], bit counts of one
    # mask per column, on columns made contiguous.  Blocks of rows keep the
    # temporaries, a few times the rows, small.
    ranks = np.empty(len(rows), dtype=np.int64)
    for start in range(0, len(rows), _RANK_ROWS):
        block = rows[start:start + _RANK_ROWS]
        bits = np.left_shift(1, block.T, dtype=np.int32, order="C", casting="unsafe")
        used = bits.copy()
        for i in range(1, n):
            np.bitwise_or(used[i - 1], used[i], out=used[i])
        np.invert(used, out=used)
        bits -= 1
        bits &= used
        ranks[start:start + len(block)] = _lex_weights(n) @ np.bitwise_count(bits)
    return ranks


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Which entries of a sorted array start a run of equal ones."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


def _distinct_ranks(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ranks ascending, and where one row of each sits.  Equal
    ranks are equal rows, so any of them will do, and numpy's default sort
    is used: ``np.unique(..., return_index=True)`` sorts stably, and
    ``_build`` of 10! shuffled rows took 1.5 s with it, 1.1 s without."""
    order = np.argsort(ranks)
    first = _run_starts(ranks[order])
    return ranks[order[first]], order[first]


def _moved_points(images: Iterable[tuple[int, ...]]) -> set[int]:
    """The 1-based points that some of the 0-based image tuples move: for
    a group's generators, the points the group moves."""
    return {i + 1 for img in images for i, v in enumerate(img) if v != i}


def _lex_rank(img: tuple[int, ...]) -> int:
    """``_lex_ranks`` of one image tuple, without numpy's per-call cost."""
    n = len(img)
    rank = used = 0
    for i, v in enumerate(img):
        # the later entries below v are those of 0..v-1 not used earlier
        rank = rank * (n - i) + v - (used & ((1 << v) - 1)).bit_count()
        used |= 1 << v
    return rank


@functools.cache
def _lex_permutations(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of 0..m-1 as read-only uint8 image rows in
    lexicographic order, so row r has lex rank r, and which rows are odd.

    Lex order is the recursion P_m = [i || P_(m-1) + (P_(m-1) >= i)] over
    i = 0..m-1 (Knuth, TAOCP 4A, 7.2.1.2).  Putting i in front adds i
    inversions, so the parity comes with the rows.  Memoized per m: the
    small ones are asked for thousands of times.
    """
    if m == 0:
        rows, odd = np.zeros((1, 0), dtype=np.uint8), np.zeros(1, dtype=bool)
    else:
        sub, sub_odd = _lex_permutations(m - 1)
        rows = np.empty((m * len(sub), m), dtype=np.uint8)
        odd = np.empty(len(rows), dtype=bool)
        for i in range(m):
            block = slice(i * len(sub), (i + 1) * len(sub))
            rows[block, 0] = i
            np.add(sub, sub >= i, out=rows[block, 1:])
            odd[block] = sub_odd ^ bool(i % 2)
    rows.flags.writeable = odd.flags.writeable = False
    return rows, odd


@functools.cache
def _all_ranks(m: int) -> np.ndarray:
    """The lex ranks 0..m!-1 of ``_lex_permutations(m)``'s rows, read-only:
    every group of all permutations of its degree shares them."""
    ranks = np.arange(math.factorial(m), dtype=np.int64)
    ranks.flags.writeable = False
    return ranks


def _symmetric_rows(points: Sequence[int], degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of the sorted 1-based points, fixing the rest, as
    image rows in lexicographic order, and their lex ranks."""
    local, _ = _lex_permutations(len(points))
    if len(points) == degree:
        return local, _all_ranks(degree)
    idx = np.array([p - 1 for p in points], dtype=_point_dtype(degree))
    # the moved columns run in lex order and every other column is constant
    rows = np.tile(np.arange(degree, dtype=idx.dtype), (len(local), 1))
    rows[:, idx] = idx[local]
    return rows, _lex_ranks(rows)


class PermGroup:
    """A fully materialized permutation group on a ground set inside {1..n}.

    The elements are one small-int array of 0-based image rows in
    lexicographic order, beside the rows' lexicographic ranks among all
    permutations of the degree.  Membership is a binary search on the
    ranks; tuples and Permutation objects are built only when asked for.

    The ground set defaults to the moved points; pass one explicitly to
    view a group as acting on chosen points (a trivial group on {1,2}, say).
    Equality and hashing see the degree and the elements, not the ground
    set: the same permutations form the same group however it is viewed.
    Whatever depends on the ground set keys on it explicitly, as the
    closure cache keys on (group, ground set, k, budgets).
    """

    __slots__ = (
        "_degree", "_ground", "_gens", "_rows", "_ranks", "_eltups", "_hash", "_perms", "_greedy",
    )

    def __init__(
        self,
        degree: int,
        rows: np.ndarray,
        ranks: np.ndarray,
        gens: tuple[Permutation, ...],
        ground: tuple[int, ...],
    ):
        # internal constructor: use generate_group / from_elements instead
        self._degree = degree
        # C order, so the hash reads the rows' buffer in place
        self._rows = np.ascontiguousarray(rows, dtype=_point_dtype(degree))
        self._ranks = ranks
        self._rows.flags.writeable = False
        self._ranks.flags.writeable = False
        self._gens = gens
        self._ground = ground
        self._eltups = None
        self._hash = None
        self._perms = None
        self._greedy = None  # closure._greedy_extension's generators of the group

    @classmethod
    def _build(
        cls,
        degree: int,
        rows: np.ndarray,
        gen_tuples: Sequence[tuple[int, ...]] | None,
        ground: Iterable[int] | None,
        ranks: np.ndarray | None = None,
    ) -> "PermGroup":
        """The group of the image rows.  Without ``ranks`` the rows are
        sorted and deduplicated here; with them they must be sorted and
        distinct already.  ``gen_tuples`` must generate the rows; without
        them generators are derived.  The moved points are the generators'."""
        if ranks is None:
            ranks, first = _distinct_ranks(_lex_ranks(rows))
            rows = rows[first]
        if not len(ranks):
            raise ValueError("a group needs at least the identity element")
        group = cls(degree, rows, ranks, (), ())
        if gen_tuples is None:
            # the span holds every row it scans, so it outgrows the rows
            # exactly when they are not closed under composition
            bound = Budgets(materialization_bound=len(rows))
            try:
                gen_tuples, _ = _greedy_span(rows, degree, bound)
            except BudgetExceeded:
                raise ValueError("element set is not closed under composition") from None
        moved = _moved_points(gen_tuples)
        ground_t = tuple(sorted(moved if ground is None else set(ground)))
        if not moved <= set(ground_t):
            raise ValueError(f"ground set omits moved points {sorted(moved - set(ground_t))}")
        if ground_t and not (1 <= ground_t[0] and ground_t[-1] <= degree):
            raise ValueError(f"ground set outside 1..{degree}")
        group._ground = ground_t
        group._gens = tuple(Permutation._raw(t) for t in gen_tuples)
        return group

    @classmethod
    def from_elements(
        cls, elements: Iterable[Permutation], ground_set: Iterable[int] | None = None
    ) -> "PermGroup":
        """Group from a full element list; validates closure under products.

        Derives a short generating list, bounding that work by the element
        count.
        """
        elems = [p for p in elements]
        if not elems:
            raise ValueError("element list is empty")
        degree = elems[0].degree
        for p in elems:
            if p.degree != degree:
                raise DegreeMismatch("elements have mixed degrees")
        rows = np.array([p._img for p in elems], dtype=_point_dtype(degree))
        return cls._build(degree, rows, None, ground_set)

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
        return len(self._ranks)

    @property
    def is_trivial(self) -> bool:
        return len(self._ranks) == 1

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple; built lazily and cached."""
        if self._perms is None:
            self._perms = tuple(map(Permutation._raw, self.element_images()))
        return self._perms

    def element_images(self) -> tuple[tuple[int, ...], ...]:
        """Sorted 0-based image tuples; built lazily and cached."""
        if self._eltups is None:
            self._eltups = tuple(map(tuple, self._rows.tolist()))
        return self._eltups

    def __contains__(self, p: Permutation) -> bool:
        if not isinstance(p, Permutation) or p.degree != self._degree:
            return False
        rank = _lex_rank(p._img)
        i = int(np.searchsorted(self._ranks, rank))
        return i < len(self._ranks) and self._ranks[i] == rank

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self._ranks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self._degree == other._degree
            and np.array_equal(self._ranks, other._ranks)
        )

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        """Every generator of this group lies in the other: one rank
        lookup each."""
        if not isinstance(other, PermGroup) or self._degree != other._degree:
            raise DegreeMismatch("subgroup test requires equal degrees")
        return all(g in other for g in self._gens)

    def __le__(self, other: "PermGroup") -> bool:
        return self.is_subgroup_of(other)

    def __hash__(self) -> int:
        # the rows determine the ranks and have one dtype per degree; a
        # checksum over their buffer makes no copy of them
        if self._hash is None:
            self._hash = hash((self._degree, zlib.crc32(self._rows)))
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
    _, span = _greedy_span(gen_tuples, deg, resolve(budgets))
    return PermGroup._build(deg, span.rows(), gen_tuples, ground_set)


def _cycle(points: Sequence[int], degree: int) -> tuple[int, ...]:
    """The cycle through the 1-based points in order, as 0-based images."""
    img = list(range(degree))
    for a, b in zip(points, [*points[1:], points[0]]):
        img[a - 1] = b - 1
    return tuple(img)


def symmetric_on(points: Iterable[int], degree: int, budgets: Budgets | None = None) -> PermGroup:
    """The full symmetric group on the given points, inside degree n."""
    pts = sorted(set(points))
    resolve(budgets).check("materialization", math.factorial(len(pts)))
    gen_tuples = [_cycle(pts[:2], degree)] if len(pts) >= 2 else []
    if len(pts) >= 3:
        gen_tuples.append(_cycle(pts, degree))
    rows, ranks = _symmetric_rows(pts, degree)
    return PermGroup._build(degree, rows, tuple(gen_tuples), pts or None, ranks)


def alternating_on(points: Iterable[int], degree: int, budgets: Budgets | None = None) -> PermGroup:
    """The alternating group on the given points, inside degree n: the
    even part of the symmetric group, selected by inversion parity."""
    pts = sorted(set(points))
    resolve(budgets).check("materialization", math.factorial(len(pts)) // 2)
    gen_tuples = [_cycle(pts[:3], degree)] if len(pts) >= 3 else []
    if len(pts) >= 4:
        # a cycle of odd length is even
        gen_tuples.append(_cycle(pts if len(pts) % 2 else pts[1:], degree))
    even = (~_lex_permutations(len(pts))[1]).nonzero()[0]
    rows, ranks = (a.take(even, axis=0) for a in _symmetric_rows(pts, degree))
    return PermGroup._build(degree, rows, tuple(gen_tuples), pts or None, ranks)


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
    total = g.order * h.order
    resolve(budgets).check("materialization", total)
    # row (a, b) is g_a . h_b, h_b applied first
    rows = g._rows[:, h._rows].reshape(total, g.degree)
    ground = tuple(sorted(set(g.ground_set) | set(h.ground_set)))
    gen_tuples = tuple(p._img for p in g.generators + h.generators)
    out = PermGroup._build(g.degree, rows, gen_tuples, ground)
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
    if l0_group.order >= l_group.order or not l0_group.is_subgroup_of(l_group):
        raise ValueError("index-2 part is not a proper subgroup of the second factor")
    if l0_group.order * 2 != l_group.order:
        raise ValueError(
            f"index of the distinguished subgroup is "
            f"{l_group.order / l0_group.order:g}, not 2"
        )
    if not set(l0_group.ground_set) <= set(l_group.ground_set):
        raise ValueError("index-2 part moves points outside the second factor")
    n = b_group.degree
    l_minus = l_group._rows[~np.isin(l_group._ranks, l0_group._ranks)]
    # b_group's rows are its ground set's permutations in lex order
    odd = _lex_permutations(bsize)[1]
    rows = np.concatenate([
        b_group._rows[~odd][:, l0_group._rows].reshape(-1, n),
        b_group._rows[odd][:, l_minus].reshape(-1, n),
    ])
    expected = b_group.order * l_group.order // 2
    ground = tuple(sorted(set(b_group.ground_set) | set(l_group.ground_set)))
    out = PermGroup._build(n, rows, None, ground)
    if out.order != expected:
        raise ValueError("gluing produced an unexpected order")
    return out


# ---------------------------------------------------------------------------
# orbits, transitivity, primitivity


def _min_labels(size: int, index_maps: list[np.ndarray]) -> np.ndarray:
    """Orbit labels of 0..size-1 under the maps: min-label propagation with
    pointer jumping (Shiloach & Vishkin, 1982).

    ``labels[t]`` always lies in the orbit of t and never grows, so once a
    round changes nothing every label is its orbit's least index.
    """
    labels = np.arange(size, dtype=np.int64)
    while True:
        before = labels
        for imap in index_maps:
            labels = np.minimum(labels, labels[imap])
            labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


def orbits_on_points(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the ground set, each sorted, ordered by least point."""
    labels = _min_labels(group.degree, [np.array(g._img) for g in group.generators])
    buckets: dict[int, list[int]] = {}
    for p in group.ground_set:
        buckets.setdefault(int(labels[p - 1]), []).append(p)
    return tuple(tuple(v) for _, v in sorted(buckets.items()))


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
        raise UsageError("transitivity on an empty ground set is undefined")
    return len(orbits_on_points(group)) == 1


def is_primitive(group: PermGroup) -> bool:
    """No nontrivial block system on the ground set; requires transitivity.

    Higman's criterion (Dixon & Mortimer, Permutation Groups, 1996):
    a transitive group is primitive exactly when each of its orbital
    graphs other than the diagonal is connected.  The orbitals, the
    orbits on ordered pairs, are one orbit labelling of the n^2 pairs,
    generator g mapping pair i*n+j to g(i)*n+g(j).  Every orbital holds
    a pair (a, b) with a the first point of the ground set, and its graph
    is vertex-transitive, so it is connected when a reaches the whole
    ground set along its edges and their reverses."""
    if not is_transitive(group):
        raise ValueError("primitivity is defined for transitive groups only")
    omega, n = np.array(group.ground_set) - 1, group.degree
    gens = np.array([p._img for p in group.generators], dtype=np.intp).reshape(-1, n)
    pairs = (gens[:, :, None] * n + gens[:, None, :]).reshape(len(gens), n * n)
    orbital = _min_labels(n * n, list(pairs)).reshape(n, n)
    a = omega[0]
    through_a = np.array(sorted(set(orbital[a, omega[1:]].tolist())))
    # edges[o, i, j]: (i, j) or (j, i) lies in orbital o
    edges = orbital == through_a[:, None, None]
    edges = edges | edges.transpose(0, 2, 1)
    reached = np.zeros((len(through_a), n), dtype=bool)
    reached[:, a] = True
    while True:
        grown = reached | (reached[:, :, None] & edges).any(axis=1)
        if np.array_equal(grown, reached):
            return bool(reached[:, omega].all())
        reached = grown


# ---------------------------------------------------------------------------
# group files


def parse_group_text(text: str, budgets: Budgets | None = None) -> PermGroup:
    """Parse the plain group format:

        # optional comments
        degree: 5
        (1 2 3 4 5)
        (2 3 5 4)

    One generator per line after the degree header.  A degree whose 2^n
    words pass the tuple budget raises BudgetExceeded before any generator
    is read.
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
            # 2^degree words, as for catalog families, before a generator
            # allocates its images.  The exponent is capped where the power
            # both passes the bound and is too long to print, so a huge
            # degree is not raised to it.
            b = resolve(budgets)
            b.check("tuple-space", 2 ** min(degree, max(b.tuple_budget.bit_length(), 14_000)))
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
