"""Tuple spaces and orbit partitions.

A TupleSpace indexes all length-``arity`` tuples over {1..alphabet} in mixed
radix: coordinate 1 is the most significant digit and digit values are
``value - 1``, so lexicographic order of tuples coincides with numeric order
of indices.  The one group action is the coordinate action on
alphabet^degree, where sigma sends a to the tuple with entries ``a[sigma(i)]``
(so the composite ``p*q`` acts as p then q on the right:
``a^(p*q) = (a^p)^q``).

Its index maps come straight from the tuple cube ``arange(size)`` reshaped
to ``(alphabet,) * arity``, by an axis transpose.  Min-label propagation over
them gives the orbit partition as a label array: ``labels[t]`` is the least
index, hence the lexicographically least member, of the orbit of t.

A ContentClass holds only the tuples of one content, value v occurring
``content[v - 1]`` times: one S_n-orbit, so every coordinate action maps it
onto itself.  It keeps its members as ``uint8`` digit rows in lex order,
written directly as permutations of a multiset (Knuth, TAOCP 4A, 7.2.1.2),
and their keys, their indices in k^n as one intp each, which lex order makes
ascending (``_class_tables``); a class whose k^n passes 2^63 is refused.
Its coordinate map sends each member to another member, whose position is
found from its key by ``np.searchsorted``, or by one gather where the class
fills at least 1/16 of k^(n-1): the content fixes a member's last digit, so
a dense inverse indexed by the first n-1 digits, ``key // k``, tells the
members apart.  Its labels are least positions.  The balanced content
(``balanced_sizes``) decides every closure and orbit-equivalence question
(see ``closure``), and the hook content (1^k, n-k) over k+1 letters, the
injective k-tuples of points, decides the Wielandt closure (see
``classify``).
``cached_orbit_partition(..., content=c)`` labels n!/prod(c_v!) tuples
instead of k^n.

``orbit_count`` counts the orbits on either set without labelling a
tuple, for a group no larger than the set.  By Burnside's lemma the
count is the mean over the group of the tuples each element fixes, which
depends only on the element's cycle type (Pólya's cycle index): k^c on
k^n for an element of c cycles, and on a class the ways to give each
cycle one letter so that the letters' counts are the content.  The cycle
types come from the group's rows by pointer doubling (``_cycle_census``).

Both sets answer ``coordinate_index_map(sigma)``, so one ``orbit_partition``
labels either, and ``rows(lo, hi)``, the digit rows of members lo..hi-1, and
``positions(keys)`` for keys made with ``weights``, where the candidate
test in ``closure`` looks up the labels of image tuples: all of k^n, whose
keys are its positions, computes its digits from the index range as
``t // weights % alphabet``, and a class slices its stored rows.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .budgets import Budgets, resolve
from .errors import DegreeMismatch, UsageError
from .perm import PermGroup, Permutation, _min_labels, extend_degree

__all__ = [
    "TupleSpace",
    "ContentClass",
    "OrbitPartition",
    "orbit_partition",
    "cached_orbit_partition",
    "orbit_count",
]


class TupleSpace:
    """All tuples of a fixed arity over {1..alphabet}, mixed-radix indexed."""

    __slots__ = ("arity", "alphabet", "size")
    content = None  # all of alphabet^arity, so never the set of a ContentClass

    def __init__(self, arity: int, alphabet: int, budgets: Budgets | None = None):
        size = _set_size(arity, alphabet, None)
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

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Where the tuples of the given keys sit: at the keys, their
        indices."""
        return keys

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


def _set_size(arity: int, alphabet: int, content: tuple[int, ...] | None) -> int:
    """The number of tuples of alphabet^arity, or with ``content`` of that
    content class, once the content is checked to split the arity into at
    most ``alphabet`` positive parts."""
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if alphabet < 2:
        raise UsageError("alphabet must be at least 2")
    if content is None:
        return alphabet**arity
    if sum(content) != arity or len(content) > alphabet or min(content) < 1:
        raise ValueError(
            f"content {content} is not {arity} split into at most {alphabet} positive parts"
        )
    return math.factorial(arity) // math.prod(math.factorial(m) for m in content)


def balanced_sizes(n: int, k: int) -> tuple[int, ...]:
    """Class sizes of the most balanced value pattern: n positions split
    into min(k, n) consecutive blocks with sizes as equal as possible,
    larger blocks first."""
    kk = min(k, n)
    q, r = divmod(n, kk)
    return tuple(q + 1 if j < r else q for j in range(kk))


def _multiset_rows(counts: tuple[int, ...]) -> np.ndarray:
    """Every arrangement of counts[v] copies of each digit v, as read-only
    uint8 rows in lex order.

    The rows of a multiset c are, for v ascending, v put in front of the
    rows of c less one v.  They are built a length at a time over the
    sub-multisets of c, so each is built once and only two lengths are
    held at a time."""
    level = {(0,) * len(counts): np.zeros((1, 0), dtype=np.uint8)}
    for length in range(1, sum(counts) + 1):
        grown = {c[:v] + (c[v] + 1,) + c[v + 1:]
                 for c in level for v in range(len(counts)) if c[v] < counts[v]}
        nxt = {}
        for c in grown:
            parts = [(v, level[c[:v] + (m - 1,) + c[v + 1:]]) for v, m in enumerate(c) if m]
            rows = np.empty((sum(len(sub) for _, sub in parts), length), dtype=np.uint8)
            at = 0
            for v, sub in parts:
                rows[at:at + len(sub), 0] = v
                rows[at:at + len(sub), 1:] = sub
                at += len(sub)
            nxt[c] = rows
        level = nxt
    rows = level[counts]
    rows.flags.writeable = False
    return rows


# Most digit cells per product in ``_digit_keys``.  The product casts its
# uint8 block to intp, so this bounds that copy to 512 KiB.  On the
# 907,200 members of A_10's k=8 balanced class, one product took 24 ms and
# a 72 MB copy, blocks of 2^16 cells 10 ms, and a column at a time 22 ms.
_KEY_CELLS = 1 << 16


def _digit_keys(digits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``digits @ weights`` as intp, one product per block of at most
    ``_KEY_CELLS`` digits."""
    keys = np.empty(len(digits), dtype=np.intp)
    step = max(1, _KEY_CELLS // digits.shape[1])
    for lo in range(0, len(digits), step):
        np.matmul(digits[lo:lo + step], weights, out=keys[lo:lo + step])
    return keys


# Most words per member that a dense inverse of a class's members, indexed
# by their first arity - 1 digits, may take.
_DENSE_WORDS = 16


# as many as ``_partition`` keeps, whose partitions hold their class tables
@functools.lru_cache(maxsize=24)
def _class_tables(
    counts: tuple[int, ...], alphabet: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """A class's digit rows (``_multiset_rows``), the weights of
    alphabet^arity, its members' keys, their indices there, which lex
    order makes ascending, and, where the class fills at least
    1/_DENSE_WORDS of alphabet^(arity-1), the dense inverse of the keys
    ``// alphabet`` as int32 positions: a gather there costs a fraction of
    a binary search.  Cached, since closures and orbit equivalence at one
    degree and alphabet size all scan the same class.

    The content fixes a member's last digit, as the one value its first
    arity - 1 digits leave over, so those digits, ``key // alphabet``,
    already tell the members apart, and the inverse needs alphabet^(arity-1)
    entries, not alphabet^arity.  ``ContentClass`` refuses an
    alphabet^arity past intp before it asks for these tables."""
    rows = _multiset_rows(counts)
    size, arity = rows.shape
    weights = _weights(arity, alphabet)
    keys = _digit_keys(rows, weights)
    weights.flags.writeable = keys.flags.writeable = False
    where = None
    dense = alphabet ** (arity - 1) <= _DENSE_WORDS * size
    if dense and size <= np.iinfo(np.int32).max:  # int32 positions halve its bytes
        where = np.zeros(alphabet ** (arity - 1), dtype=np.int32)
        where[keys // alphabet] = np.arange(size)
        where.flags.writeable = False
    return rows, weights, keys, where


class ContentClass:
    """The tuples of alphabet^arity with the given content: value v occurs
    ``content[v - 1]`` times, and values past ``len(content)`` not at all.
    This is the orbit of one tuple under all coordinate permutations, so
    every coordinate action maps it onto itself.

    ``digits`` holds the members as read-only uint8 digit rows (value - 1)
    in lex order; positions 0..size-1 name them.  A member is found from
    its key, ``digits @ weights``, its index in alphabet^arity as one intp
    (``_class_tables``).  The tuple budget is charged the class size, and
    then an alphabet^arity past 2^63, whose keys would not fit in 64 bits,
    is refused as a UsageError, both before any row is built."""

    __slots__ = ("arity", "alphabet", "content", "size", "digits", "weights", "_keys", "_where")

    def __init__(
        self, arity: int, alphabet: int, content: Iterable[int], budgets: Budgets | None = None
    ):
        content = tuple(content)
        size = _set_size(arity, alphabet, content)
        resolve(budgets).check("tuple-space", size)
        if alphabet**arity - 1 > np.iinfo(np.intp).max:  # the largest key
            raise UsageError(
                f"{alphabet}^{arity} passes 2^63: the keys of tuples of arity {arity} "
                f"over {alphabet} letters do not fit in 64 bits"
            )
        self.arity = arity
        self.alphabet = alphabet
        self.content = content
        self.size = size
        self.digits, self.weights, self._keys, self._where = _class_tables(content, alphabet)

    def encode(self, a: Iterable[int]) -> int:
        """The position of a member tuple."""
        t = tuple(a)
        pos = int(self.positions(np.intp(_encode(t, self.arity, self.alphabet))))
        if pos == self.size or not np.array_equal(self.digits[pos] + 1, t):
            raise ValueError(f"tuple {t} does not have the content {self.content}")
        return pos

    def decode(self, position: int) -> tuple[int, ...]:
        if not 0 <= position < self.size:
            raise ValueError(f"position {position} outside 0..{self.size - 1}")
        return tuple((self.digits[position] + 1).tolist())

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Digit rows of the members at positions lo..hi-1."""
        return self.digits[lo:hi]

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Positions of members given by their keys: one gather at the
        index of their first arity - 1 digits where the class has a dense
        inverse, else one binary search.  Either way they are ``intp``,
        which ``_min_labels`` gathers with.  A key that is no member's
        gives some position; ``encode`` checks it."""
        if self._where is not None:
            return self._where[keys // self.alphabet].astype(np.intp)
        return np.searchsorted(self._keys, keys)

    def coordinate_index_map(self, sigma: Permutation) -> np.ndarray:
        """Position array P with P[p] = position of the coordinate action
        of sigma on member p.  Entry i of the image of a is ``a[sigma(i)]``,
        so its key weights digit j by ``weights[sigma^-1(j)]``: the weights
        scattered at sigma's images."""
        if sigma.degree != self.arity:
            raise DegreeMismatch(f"degree {sigma.degree} vs arity {self.arity}")
        moved = np.empty_like(self.weights)
        moved[list(sigma._img)] = self.weights
        return self.positions(_digit_keys(self.digits, moved))

    def __repr__(self) -> str:
        return (
            f"ContentClass(arity={self.arity}, alphabet={self.alphabet}, "
            f"content={self.content}, size={self.size})"
        )


class OrbitPartition:
    """Orbits of a tuple space, or of a ContentClass, under a group action.

    ``labels[t]`` is the least index (in a class, the least position) in
    the orbit of t, as built by ``_min_labels``; orbits compare equal
    exactly when their label arrays do.
    Every statistic here rests on that invariant: the orbits' least members
    are the fixed points of ``labels``, and an orbit's size is its label's count.
    """

    __slots__ = ("space", "labels", "orbit_count", "representatives")

    def __init__(self, space: TupleSpace | ContentClass, labels: np.ndarray):
        self.space = space
        self.labels = labels
        self.representatives = (labels == np.arange(space.size)).nonzero()[0]
        self.orbit_count = int(self.representatives.size)

    def _check_same_set(self, other: "OrbitPartition") -> None:
        """Refuse partitions of different tuple sets: arity, alphabet and
        content (None for all of alphabet^arity) name the set."""
        one, two = self.space, other.space
        if (one.arity, one.alphabet, one.content) != (two.arity, two.alphabet, two.content):
            raise DegreeMismatch("partitions live on different tuple spaces")

    def equals(self, other: "OrbitPartition") -> bool:
        self._check_same_set(other)
        return bool(np.array_equal(self.labels, other.labels))

    def __repr__(self) -> str:
        return (
            f"OrbitPartition(space={self.space!r}, orbit_count={self.orbit_count})"
        )


# ---------------------------------------------------------------------------
# building partitions


def _orbit_ranks(labels: np.ndarray) -> np.ndarray:
    """Rank of each index's orbit, in the order of least members."""
    return (np.cumsum(labels == np.arange(labels.size)) - 1)[labels]


def orbit_partition(group: PermGroup, space: TupleSpace | ContentClass) -> OrbitPartition:
    """Orbits of the coordinate action of the group on the space, all of
    alphabet^arity or one content class of it.

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
    return OrbitPartition(space, _min_labels(space.size, maps))


# ---------------------------------------------------------------------------
# a small partition cache; closures of the same group at several k reuse it.
# Like every memo in the package it is an lru_cache on a builder that takes
# all it reads, the budgets included, behind an entry point that checks the
# budget on every call: a warm call is refused exactly when a cold one is.


def cached_orbit_partition(
    group: PermGroup,
    k: int,
    budgets: Budgets | None = None,
    content: Iterable[int] | None = None,
) -> OrbitPartition:
    """LRU-cached orbit partition of the group under the coordinate action:
    on all of k^degree, or with ``content`` on that ContentClass of it.

    The tuple budget is checked on every call, a cache hit included, and
    the space is built only on a miss.  The key holds the content, so no
    partition ever answers for another set of tuples, and the budgets, so
    no call is answered that a fresh process would refuse.
    """
    content = None if content is None else tuple(content)
    b = resolve(budgets)
    b.check("tuple-space", _set_size(group.degree, k, content))
    return _partition(group, k, content, b)


@functools.lru_cache(maxsize=24)
def _partition(
    group: PermGroup, k: int, content: tuple[int, ...] | None, budgets: Budgets
) -> OrbitPartition:
    """The partition ``cached_orbit_partition`` returns, with its set built
    under the budgets it was checked against."""
    n = group.degree
    if content is None:
        space = TupleSpace(n, k, budgets=budgets)
    else:
        space = ContentClass(n, k, content, budgets=budgets)
    return orbit_partition(group, space)


# ---------------------------------------------------------------------------
# orbit counts from the cycle index

# Most points of elements whose cycles are traced at once: the work arrays
# hold this many int32 entries, whatever the group's order.
_CENSUS_CELLS = 1 << 20


@functools.lru_cache(maxsize=24)
def _cycle_census(group: PermGroup) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The group's cycle types, each as its cycle lengths in descending
    order with the number of elements of that type.  LRU-cached like the
    partitions; it reads no budget, and ``orbit_count`` charges the tuple
    budget before it asks.

    A block of elements, at most ``_CENSUS_CELLS`` points in all, is one
    permutation of its flattened rows, entry (g, i) to (g, g(i)), whose
    cycles are the elements' cycles.  Pointer doubling labels each entry
    by the least entry on its cycle: after s steps the label is the least
    of the entry and its next 2^s - 1 images, so ceil(log2 n) steps of two
    gathers each cover every cycle.  A cycle's length is its label's
    count.  A lexsort of the elements' per-length cycle counts collects
    the types: rows, not integer keys, so no degree overflows a key."""
    n = group.degree
    block = max(1, _CENSUS_CELLS // n)
    tally: dict[tuple[int, ...], int] = {}
    for lo in range(0, group.order, block):
        rows = group._rows[lo:lo + block]
        entry = np.arange(rows.size, dtype=np.int32)
        jump = (rows + entry[::n, None]).ravel()
        least, reach = entry, 1
        while reach < n:
            least = np.minimum(least, least.take(jump))
            jump, reach = jump.take(jump), 2 * reach
        leader = least == entry
        size = np.bincount(least, minlength=rows.size)[leader]
        row_size = entry[leader] // n * (n + 1) + size
        cycles = np.bincount(row_size, minlength=len(rows) * (n + 1)).reshape(-1, n + 1)[:, 1:]
        cycles = cycles[np.lexsort(cycles.T)]
        first = np.ones(len(cycles), dtype=bool)
        first[1:] = (cycles[1:] != cycles[:-1]).any(axis=1)
        starts = first.nonzero()[0]
        counts = np.diff(starts, append=len(cycles))
        for per_length, count in zip(map(tuple, cycles[starts].tolist()), counts.tolist()):
            tally[per_length] = tally.get(per_length, 0) + count
    return tuple(
        (tuple(j for j in range(n, 0, -1) for _ in range(per_length[j - 1])), count)
        for per_length, count in tally.items()
    )


@functools.lru_cache(maxsize=1 << 12)
def _fixed_words(lengths: tuple[int, ...], content: tuple[int, ...]) -> int:
    """The words of the content that a permutation with these cycle
    lengths fixes: the ways to give each cycle one letter so that the
    letters' counts are the content.  Both descending, the content without
    zeros; letters with equal counts left are alike, so the first cycle
    takes each count r once, times the letters that have r left."""
    if not lengths:
        return 1  # the content is spent too, since both sum to the degree
    first, rest = lengths[0], lengths[1:]
    total = 0
    for r in set(content):
        if r >= first:
            left = list(content)
            left.remove(r)
            if r > first:
                left.append(r - first)
            total += content.count(r) * _fixed_words(rest, tuple(sorted(left, reverse=True)))
    return total


def orbit_count(
    group: PermGroup,
    k: int,
    content: Iterable[int] | None = None,
    budgets: Budgets | None = None,
) -> int:
    """The number of orbits of the coordinate action on all of k^degree,
    or with ``content`` on that ContentClass of it.

    The tuple budget is charged the set's size on every call, before any
    work, as by ``cached_orbit_partition``.  A group no larger than the set
    is counted by its cycle index, with no tuple labelled
    (``_burnside_count``).  A larger one is labelled, since its census
    would cost more than the labelling it replaces."""
    n = group.degree
    content = None if content is None else tuple(content)
    size = _set_size(n, k, content)
    resolve(budgets).check("tuple-space", size)
    if group.order > size:
        return cached_orbit_partition(group, k, budgets=budgets, content=content).orbit_count
    return _burnside_count(group, k, content)


def _burnside_count(group: PermGroup, k: int, content: tuple[int, ...] | None) -> int:
    """The orbit count by Burnside's lemma and Pólya's cycle index (de
    Bruijn, "Pólya's theory of counting", 1964), unbudgeted: the mean over
    the group of the words each element fixes, k^(cycles) on k^n and
    ``_fixed_words`` on a class."""
    census = _cycle_census(group)
    if content is None:
        total = sum(count * k ** len(lengths) for lengths, count in census)
    else:
        parts = tuple(sorted(content, reverse=True))
        total = sum(count * _fixed_words(lengths, parts) for lengths, count in census)
    if total % group.order:
        raise AssertionError(f"Burnside sum {total} is not a multiple of |G| = {group.order}")
    return total // group.order


def clear_partition_cache() -> None:
    """Forget every cached partition and cycle census."""
    _partition.cache_clear()
    _cycle_census.cache_clear()
