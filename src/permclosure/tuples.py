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
The candidate test in ``closure`` takes the digits of each chunk of
indices t it scans as ``t // weights % alphabet``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable

import numpy as np

from .budgets import Budgets, resolve
from .errors import DegreeMismatch, UsageError
from .perm import PermGroup, Permutation, _cycle, _min_labels, _symmetric_product, extend_degree

__all__ = [
    "TupleSpace",
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
        return np.array([self.alphabet**j for j in range(self.arity - 1, -1, -1)], dtype=np.intp)

    def encode(self, a: Iterable[int]) -> int:
        t = tuple(a)
        if len(t) != self.arity:
            raise ValueError(f"tuple length {len(t)}, expected {self.arity}")
        idx = 0
        for v in t:
            if not 1 <= v <= self.alphabet:
                raise ValueError(f"entry {v} outside 1..{self.alphabet}")
            idx = idx * self.alphabet + (v - 1)
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside 0..{self.size - 1}")
        out = []
        for _ in range(self.arity):
            out.append(index % self.alphabet + 1)
            index //= self.alphabet
        return tuple(reversed(out))

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


class OrbitPartition:
    """Orbits of a tuple space under a group action.

    ``labels[t]`` is the least tuple index in the orbit of t, as built by
    ``_min_labels``; orbits compare equal exactly when their label arrays do.
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
        if self.space.arity != other.space.arity or self.space.alphabet != other.space.alphabet:
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
    group: PermGroup, k: int, budgets: Budgets | None = None, value_action: bool = False
) -> OrbitPartition:
    """LRU-cached orbit partition of the group.

    Coordinate action on k^degree by default; with ``value_action`` the
    partition of degree^k under the value action instead.
    """
    key = (group, k, value_action)
    hit = _CACHE.get(key)
    if hit is not None:
        _CACHE.move_to_end(key)
        return hit
    if value_action:
        part = kpow_orbit_partition(group, k, budgets=budgets)
    else:
        space = TupleSpace(group.degree, k, budgets=budgets)
        part = orbit_partition(group, space)
    _CACHE[key] = part
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)
    return part


def clear_partition_cache() -> None:
    _CACHE.clear()
