"""Tuple spaces and orbit partitions.

A TupleSpace indexes all length-``arity`` tuples over {1..alphabet} in mixed
radix: coordinate 1 is the most significant digit and digit values are
``value - 1``, so lexicographic order of tuples coincides with numeric order
of indices.  Two group actions matter here:

* the coordinate action on alphabet^degree, where sigma sends a to the tuple
  with entries ``a[sigma(i)]`` (so the composite ``p*q`` acts as p then q
  on the right: ``a^(p*q) = (a^p)^q``);
* the value action on degree^arity, where sigma maps each entry through
  ``sigma`` itself.

Index maps come straight from the tuple cube ``arange(size)`` reshaped to
``(alphabet,) * arity``: an axis transpose for the coordinate action, an
outer sum over the weights for the value action.  Min-label propagation over
them gives the orbit partition as a label array: ``labels[t]`` is the least
index, hence the lexicographically least member, of the orbit of t.

A BalancedClass holds only the tuples whose content is the most balanced
one, the S_n-orbit of the pattern a* (``balanced_sizes``): its members as
``uint8`` digit rows in lex order, written directly as permutations of a
multiset (Knuth, TAOCP 4A, 7.2.1.2), and their k^n indices, which lex order
makes ascending.  A coordinate map sends each member to another member,
whose position is found from its index by ``np.searchsorted``, or by a
dense inverse where the class fills at least 1/16 of k^n; its labels are
least positions.  Those labels decide every closure and orbit-equivalence
question (see ``closure``), so ``cached_orbit_partition(..., balanced=True)``
labels n!/prod(m_v!) tuples instead of k^n.

Both sets answer ``rows(lo, hi)``, the digit rows of members lo..hi-1, and
``positions(indices)``, where the candidate test in ``closure`` looks up
the labels of image tuples: all of k^n computes its digits from the index
range as ``t // weights % alphabet``, and a class slices its stored rows.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from typing import Iterable

import numpy as np

from .budgets import Budgets, resolve
from .errors import DegreeMismatch, UsageError
from .perm import PermGroup, Permutation, _cycle, _min_labels, _symmetric_product, extend_degree

__all__ = [
    "TupleSpace",
    "BalancedClass",
    "OrbitPartition",
    "act_tuple",
    "act_points",
    "orbit_partition",
    "kpow_orbit_partition",
    "tuple_stabilizer",
    "cached_orbit_partition",
]


def act_tuple(a: tuple[int, ...], sigma: Permutation) -> tuple[int, ...]:
    """Coordinate action: entry i of the result is ``a[sigma(i)]``."""
    if len(a) != sigma.degree:
        raise DegreeMismatch(f"tuple length {len(a)} vs degree {sigma.degree}")
    img = sigma._img
    return tuple(a[img[i]] for i in range(len(a)))


def act_points(r: tuple[int, ...], sigma: Permutation) -> tuple[int, ...]:
    """Value action: each entry of r (a point) is mapped through sigma."""
    img = sigma._img
    for v in r:
        if not 1 <= v <= sigma.degree:
            raise ValueError(f"entry {v} outside 1..{sigma.degree}")
    return tuple(img[v - 1] + 1 for v in r)


class TupleSpace:
    """All tuples of a fixed arity over {1..alphabet}, mixed-radix indexed."""

    __slots__ = ("arity", "alphabet", "size")

    def __init__(self, arity: int, alphabet: int, budgets: Budgets | None = None):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if alphabet < 2:
            raise UsageError("alphabet must be at least 2")
        size = alphabet**arity
        resolve(budgets).check("tuple-space", size)
        self.arity = arity
        self.alphabet = alphabet
        self.size = size

    @property
    def weights(self) -> np.ndarray:
        """Mixed-radix weights, most significant first, as ``intp``: digit
        j of index t is ``t // weights[j] % alphabet``."""
        return _weights(self.arity, self.alphabet)

    def encode(self, a: Iterable[int]) -> int:
        return _encode(a, self.arity, self.alphabet)

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside 0..{self.size - 1}")
        out = []
        for _ in range(self.arity):
            out.append(index % self.alphabet + 1)
            index //= self.alphabet
        return tuple(reversed(out))

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Digit rows of the tuples of index lo..hi-1."""
        return np.arange(lo, hi)[:, None] // self.weights % self.alphabet

    def positions(self, indices: np.ndarray) -> np.ndarray:
        """Where the tuples of the given indices sit: at their indices."""
        return indices

    def coordinate_index_map(self, sigma: Permutation) -> np.ndarray:
        """Index array I with I[t] = index of the coordinate action of sigma.

        Entry i of the image of a is ``a[sigma(i)]``, so I is the tuple cube
        with its axes permuted by sigma^-1: one strided copy.  It is
        ``intp``, since numpy converts any other index dtype on every gather.
        """
        if sigma.degree != self.arity:
            raise DegreeMismatch(f"degree {sigma.degree} vs arity {self.arity}")
        cube = np.arange(self.size, dtype=np.intp).reshape((self.alphabet,) * self.arity)
        return cube.transpose(sigma.inverse()._img).ravel()

    def value_index_map(self, sigma: Permutation) -> np.ndarray:
        """Index array for the value action of sigma on alphabet points:
        the outer sum over positions j of ``sigma(a_j) * weights[j]``."""
        if sigma.degree != self.alphabet:
            raise DegreeMismatch(f"degree {sigma.degree} vs alphabet {self.alphabet}")
        vimg = np.array(sigma._img, dtype=np.intp)
        imap = np.zeros((), dtype=np.intp)
        for w in self.weights:
            imap = np.add.outer(imap, vimg * w)
        return imap.ravel()

    def __repr__(self) -> str:
        return f"TupleSpace(arity={self.arity}, alphabet={self.alphabet}, size={self.size})"


def _weights(arity: int, alphabet: int) -> np.ndarray:
    return np.array([alphabet**j for j in range(arity - 1, -1, -1)], dtype=np.intp)


def _encode(a: Iterable[int], arity: int, alphabet: int) -> int:
    t = tuple(a)
    if len(t) != arity:
        raise ValueError(f"tuple length {len(t)}, expected {arity}")
    idx = 0
    for v in t:
        if not 1 <= v <= alphabet:
            raise ValueError(f"entry {v} outside 1..{alphabet}")
        idx = idx * alphabet + (v - 1)
    return idx


def balanced_sizes(n: int, k: int) -> list[int]:
    """Class sizes of the most balanced value pattern: n positions split
    into min(k, n) consecutive blocks with sizes as equal as possible,
    larger blocks first."""
    kk = min(k, n)
    q, r = divmod(n, kk)
    return [q + 1 if j < r else q for j in range(kk)]


def _multiset_rows(counts: tuple[int, ...], alphabet: int) -> tuple[np.ndarray, np.ndarray]:
    """Every arrangement of counts[v] copies of each digit v, as read-only
    uint8 rows in lex order, and their indices in alphabet^len(rows),
    ascending.

    The rows of a multiset c are, for v ascending, v put in front of the
    rows of c less one v.  They are built a length at a time over the
    sub-multisets of c, so each is built once and only two lengths are
    held at a time."""
    level = {(0,) * len(counts): (np.zeros((1, 0), dtype=np.uint8), np.zeros(1, dtype=np.intp))}
    for length in range(1, sum(counts) + 1):
        grown = {c[:v] + (c[v] + 1,) + c[v + 1:]
                 for c in level for v in range(len(counts)) if c[v] < counts[v]}
        head = alphabet ** (length - 1)
        nxt = {}
        for c in grown:
            parts = [(v, *level[c[:v] + (m - 1,) + c[v + 1:]]) for v, m in enumerate(c) if m]
            rows = np.empty((sum(len(sub) for _, sub, _ in parts), length), dtype=np.uint8)
            idx = np.empty(len(rows), dtype=np.intp)
            at = 0
            for v, sub, sub_idx in parts:
                rows[at:at + len(sub), 0] = v
                rows[at:at + len(sub), 1:] = sub
                idx[at:at + len(sub)] = sub_idx + v * head
                at += len(sub)
            nxt[c] = rows, idx
        level = nxt
    rows, idx = level[counts]
    rows.flags.writeable = idx.flags.writeable = False
    return rows, idx


# Most words per member that a dense inverse of a class's indices may take.
_DENSE_WORDS = 16


@functools.lru_cache(maxsize=8)
def _class_tables(
    counts: tuple[int, ...], alphabet: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A class's digit rows and indices (``_multiset_rows``), and where its
    indices fill at least 1/_DENSE_WORDS of alphabet^len, their dense
    inverse: a gather there costs a fraction of a binary search.  Cached,
    since closures and orbit equivalence at one degree and alphabet size
    all scan the same class."""
    rows, idx = _multiset_rows(counts, alphabet)
    space = alphabet ** sum(counts)
    if space > _DENSE_WORDS * len(idx):
        return rows, idx, None
    where = np.zeros(space, dtype=np.intp)
    where[idx] = np.arange(len(idx))
    where.flags.writeable = False
    return rows, idx, where


class BalancedClass:
    """The tuples of alphabet^arity whose content is the balanced one: value
    v occurs ``balanced_sizes(arity, alphabet)[v - 1]`` times.  This is the
    orbit of a* under all coordinate permutations, so every coordinate
    action maps it onto itself.

    ``digits`` holds the members as read-only uint8 digit rows (value - 1)
    in lex order, ``indices`` their ascending indices in alphabet^arity.
    Positions 0..size-1 name the members.  The tuple budget is charged the
    class size, before any row is built."""

    __slots__ = ("arity", "alphabet", "size", "digits", "indices", "_where")

    def __init__(self, arity: int, alphabet: int, budgets: Budgets | None = None):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if alphabet < 2:
            raise UsageError("alphabet must be at least 2")
        sizes = balanced_sizes(arity, alphabet)
        size = math.factorial(arity) // math.prod(math.factorial(m) for m in sizes)
        resolve(budgets).check("tuple-space", size)
        self.arity = arity
        self.alphabet = alphabet
        self.size = size
        self.digits, self.indices, self._where = _class_tables(tuple(sizes), alphabet)

    @property
    def weights(self) -> np.ndarray:
        return _weights(self.arity, self.alphabet)

    def encode(self, a: Iterable[int]) -> int:
        """The position of a member tuple."""
        t = tuple(a)
        pos = int(self.positions(_encode(t, self.arity, self.alphabet)))
        if pos == self.size or not np.array_equal(self.digits[pos] + 1, t):
            raise ValueError(f"tuple {t} does not have the balanced content")
        return pos

    def decode(self, position: int) -> tuple[int, ...]:
        if not 0 <= position < self.size:
            raise ValueError(f"position {position} outside 0..{self.size - 1}")
        return tuple((self.digits[position] + 1).tolist())

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Digit rows of the members at positions lo..hi-1."""
        return self.digits[lo:hi]

    def positions(self, indices: np.ndarray) -> np.ndarray:
        """Positions of members given by their indices in alphabet^arity."""
        if self._where is not None:
            return self._where[indices]
        return np.searchsorted(self.indices, indices)

    def coordinate_position_map(self, sigma: Permutation) -> np.ndarray:
        """Position array P with P[p] = position of the coordinate action
        of sigma on member p.  Entry i of the image of a is ``a[sigma(i)]``,
        so its index weights digit j by ``weights[sigma^-1(j)]``."""
        if sigma.degree != self.arity:
            raise DegreeMismatch(f"degree {sigma.degree} vs arity {self.arity}")
        moved = self.weights[list(sigma.inverse()._img)]
        image = np.zeros(self.size, dtype=np.intp)
        for column, w in zip(self.digits.T, moved):  # no (size, arity) intp copy
            image += column * w
        return self.positions(image)

    def __repr__(self) -> str:
        return f"BalancedClass(arity={self.arity}, alphabet={self.alphabet}, size={self.size})"


class OrbitPartition:
    """Orbits of a tuple space, or of a BalancedClass, under a group action.

    ``labels[t]`` is the least index (in a class, the least position) in
    the orbit of t, as built by ``_min_labels``; orbits compare equal
    exactly when their label arrays do.
    Every statistic here rests on that invariant: the orbits' least members
    are the fixed points of ``labels``, and an orbit's size is its label's count.
    """

    __slots__ = ("space", "labels", "orbit_count", "representatives")

    def __init__(self, space: TupleSpace, labels: np.ndarray):
        self.space = space
        self.labels = labels
        self.representatives = np.flatnonzero(labels == np.arange(space.size))
        self.orbit_count = int(self.representatives.size)

    # -- queries

    def canonical_tuple(self, a: Iterable[int]) -> tuple[int, ...]:
        return self.space.decode(int(self.labels[self.space.encode(a)]))

    def same_orbit(self, a: Iterable[int], b: Iterable[int]) -> bool:
        return bool(
            self.labels[self.space.encode(a)] == self.labels[self.space.encode(b)]
        )

    @property
    def orbit_sizes(self) -> np.ndarray:
        """Orbit sizes, in the order of ``representatives``."""
        return np.bincount(self.labels, minlength=self.space.size)[self.representatives]

    def equals(self, other: "OrbitPartition") -> bool:
        if (type(self.space), self.space.arity, self.space.alphabet) != (
            type(other.space), other.space.arity, other.space.alphabet
        ):
            raise DegreeMismatch("partitions live on different tuple spaces")
        return bool(np.array_equal(self.labels, other.labels))

    def refines(self, other: "OrbitPartition") -> bool:
        """Every orbit here is contained in an orbit of the other partition."""
        if self.space.size != other.space.size:
            raise DegreeMismatch("partitions live on different tuple spaces")
        return bool(np.all(other.labels[self.labels] == other.labels))

    def census(self, max_listed: int = 64) -> dict:
        """A deterministic summary used by reports and the CLI."""
        reps = self.representatives
        sizes = self.orbit_sizes
        hist: dict[int, int] = {}
        for s in sizes.tolist():
            hist[s] = hist.get(s, 0) + 1
        listed = [self.space.decode(int(r)) for r in reps[:max_listed]]
        return {
            "orbit_count": self.orbit_count,
            "size_histogram": {str(k): v for k, v in sorted(hist.items())},
            "representatives": [list(t) for t in listed],
            "representatives_truncated": bool(reps.size > max_listed),
        }

    def __repr__(self) -> str:
        return (
            f"OrbitPartition(space={self.space!r}, orbit_count={self.orbit_count})"
        )


# ---------------------------------------------------------------------------
# building partitions


def _orbit_ranks(labels: np.ndarray) -> np.ndarray:
    """Rank of each index's orbit, in the order of least members."""
    return (np.cumsum(labels == np.arange(labels.size)) - 1)[labels]


def _partition_from_index_maps(space: TupleSpace, index_maps: list[np.ndarray]) -> OrbitPartition:
    return OrbitPartition(space, _min_labels(space.size, index_maps))


def orbit_partition(group: PermGroup, space: TupleSpace) -> OrbitPartition:
    """Orbits of the coordinate action of the group on the space.

    The group's degree must equal the space's arity, or be smaller, in which
    case the extra coordinates are left untouched.
    """
    if group.degree > space.arity:
        raise DegreeMismatch(
            f"group degree {group.degree} exceeds space arity {space.arity}"
        )
    maps = []
    for g in group.generators:
        if g.is_identity:
            continue
        ge = extend_degree(g, space.arity) if g.degree < space.arity else g
        maps.append(space.coordinate_index_map(ge))
    return _partition_from_index_maps(space, maps)


def kpow_orbit_partition(
    group: PermGroup, k: int, budgets: Budgets | None = None
) -> OrbitPartition:
    """Orbits of the value action on (degree)^k: k-tuples of points."""
    if k < 1:
        raise ValueError("k must be at least 1")
    space = TupleSpace(k, group.degree, budgets=budgets)
    maps = [space.value_index_map(g) for g in group.generators if not g.is_identity]
    return _partition_from_index_maps(space, maps)


def tuple_stabilizer(
    a: tuple[int, ...], degree: int | None = None, budgets: Budgets | None = None
) -> PermGroup:
    """The full stabilizer of a tuple under the coordinate action: all
    permutations of positions that hold equal values.

    Generated by adjacent transpositions inside each value class; elements
    are written directly as products of the classes' symmetric groups.
    """
    n = len(a) if degree is None else degree
    if degree is not None and len(a) != degree:
        raise ValueError(f"tuple length {len(a)} does not match degree {degree}")
    classes: dict[int, list[int]] = {}
    for pos, v in enumerate(a):
        classes.setdefault(v, []).append(pos)
    total = math.prod(math.factorial(len(ps)) for ps in classes.values())
    resolve(budgets).check("materialization", total)

    rows = _symmetric_product([[p + 1 for p in ps] for ps in classes.values()], n)
    gen_tuples = tuple(
        _cycle([x + 1, y + 1], n)
        for _, ps in sorted(classes.items()) for x, y in zip(ps, ps[1:])
    )
    return PermGroup._build(n, rows, gen_tuples, None)


# ---------------------------------------------------------------------------
# a small partition cache; closures of the same group at several k reuse it

_CACHE: OrderedDict[tuple, OrbitPartition] = OrderedDict()
_CACHE_MAX = 24


def cached_orbit_partition(
    group: PermGroup,
    k: int,
    budgets: Budgets | None = None,
    value_action: bool = False,
    balanced: bool = False,
) -> OrbitPartition:
    """LRU-cached orbit partition of the group.

    Coordinate action on k^degree by default; with ``value_action`` the
    partition of degree^k under the value action instead; with
    ``balanced`` the coordinate action on the BalancedClass of k^degree
    only.  The three are cached under distinct keys, so none ever answers
    for another.
    """
    if value_action and balanced:
        raise ValueError("the balanced class is a set of coordinate-action tuples")
    key = ("value" if value_action else "balanced" if balanced else "coordinate", group, k)
    hit = _CACHE.get(key)
    if hit is not None:
        _CACHE.move_to_end(key)
        return hit
    if value_action:
        part = kpow_orbit_partition(group, k, budgets=budgets)
    elif balanced:
        space = BalancedClass(group.degree, k, budgets=budgets)
        maps = [space.coordinate_position_map(g) for g in group.generators if not g.is_identity]
        part = OrbitPartition(space, _min_labels(space.size, maps))
    else:
        space = TupleSpace(group.degree, k, budgets=budgets)
        part = orbit_partition(group, space)
    _CACHE[key] = part
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)
    return part


def clear_partition_cache() -> None:
    _CACHE.clear()
