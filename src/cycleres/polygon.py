"""Diagonals and dissections of a convex labeled n-gon.

Vertices are labeled 1..n around the polygon.  A diagonal is a chord
between two non-adjacent vertices; a dissection is a set of pairwise
non-crossing diagonals.  Everything here is pure combinatorics on
integer pairs: crossing is decided by cyclic interleaving, never by
coordinates.  A vertex set is an int bitmask, bit v - 1 for vertex v,
and a dissection enumerated from a list of diagonals is an int bitmask
too, bit j for the j-th diagonal; ``dissection`` decodes it.  All values
are immutable and all functions are pure.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import dropwhile, takewhile
from typing import NamedTuple

Pair = tuple[int, int]


class Diagonal(NamedTuple):
    """A chord (a, b) of the n-gon, stored with a < b."""

    a: int
    b: int

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


def is_diagonal(a: int, b: int, n: int) -> bool:
    """True iff (a, b) is a diagonal of the n-gon (not a boundary edge)."""
    return 1 <= a < b <= n and b - a >= 2 and (a, b) != (1, n)


def diagonal(a: int, b: int, n: int) -> Diagonal:
    """Checked constructor; raises ValueError unless {a, b} is a diagonal."""
    a, b = min(a, b), max(a, b)
    if not is_diagonal(a, b, n):
        raise ValueError(f"({a}, {b}) is not a diagonal of the {n}-gon")
    return Diagonal(a, b)


def crosses(d1: Pair, d2: Pair) -> bool:
    """True iff two diagonals intersect in the interior of the polygon.

    Decided purely by interleaving of the sorted endpoint pairs: the
    diagonals cross exactly when one endpoint of each lies strictly
    inside the arc cut off by the other.  Diagonals sharing an endpoint
    never cross.
    """
    a, b = d1
    c, d = d2
    return a < c < b < d or c < a < d < b


def all_diagonals(n: int) -> list[Diagonal]:
    """The n(n-3)/2 diagonals of the n-gon in lexicographic order."""
    if n < 4:
        raise ValueError(f"the polygon needs n >= 4 vertices, got {n}")
    return [
        Diagonal(a, b)
        for a in range(1, n + 1)
        for b in range(a + 2, n + 1)
        if (a, b) != (1, n)
    ]


def support(diagonals: Iterable[Pair]) -> int:
    """Bitmask of the polygon vertices used as endpoints by the diagonals."""
    mask = 0
    for a, b in diagonals:
        mask |= 1 << (a - 1) | 1 << (b - 1)
    return mask


def vertices(mask: int) -> list[int]:
    """The vertices in a bitmask, ascending: vertex v for each set bit v - 1."""
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def rotate(mask: int, n: int, k: int) -> int:
    """The vertex bitmask turned by k around the n-gon: vertex v goes to (v - 1 + k) % n + 1."""
    k %= n
    return (mask << k | mask >> (n - k)) & ((1 << n) - 1)


def _spans_tree(ds: tuple[Pair, ...], verts: int) -> bool:
    """Whether the nonempty diagonals ``ds``, whose support is ``verts``, form a tree on it."""
    if len(ds) != verts.bit_count() - 1:
        return False
    # Grow the vertices reached from the first diagonal: while they can
    # grow, each pass adds one, so len(ds) passes reach the whole component.
    masks = [support([d]) for d in ds]
    reached = masks[0]
    for _ in ds:
        for m in masks:
            if reached & m:
                reached |= m
    return reached == verts


def dissection(mask: int, diagonals: Sequence[Diagonal]) -> tuple[Diagonal, ...]:
    """The diagonals at the set bits of ``mask``, in order: bit j stands for ``diagonals[j]``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(diagonals[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def _later(diagonals: Sequence[Diagonal]) -> list[int]:
    """Bit j of entry i is set when diagonal j comes after diagonal i and does not cross it."""
    m = len(diagonals)
    return [
        sum(1 << j for j in range(i + 1, m) if not crosses(diagonals[i], diagonals[j]))
        for i in range(m)
    ]


def iter_noncrossing(diagonals: Sequence[Diagonal]) -> Iterator[int]:
    """Yield every non-crossing subset of ``diagonals``, by size, then lexicographically.

    A subset is a bitmask, bit j for ``diagonals[j]``, the empty subset 0
    first; ``dissection`` turns it back into its diagonals.  Subsets of one
    size come in the lexicographic order of those tuples.  Bit j of
    ``later[i]`` (``_later``) is set when diagonal j comes after diagonal
    i and does not cross it.  A subset carries ``free``, the AND of its
    diagonals' ``later`` masks, so the diagonals that extend it are the
    set bits of ``free``; extending each subset of one size by them in
    ascending order lists the next size lexicographically.  For
    ``all_diagonals(n)`` this is the canonical face order of A_n.  A
    subset is yielded as it is made, so stopping at the first subset of a
    size leaves the rest of it unbuilt.
    """
    later = _later(diagonals)
    yield 0
    level = [(0, (1 << len(later)) - 1)]
    while level:
        bigger = []
        for mask, free in level:
            while free:
                low = free & -free
                extended = mask | low
                yield extended
                bigger.append((extended, free & later[low.bit_length() - 1]))
                free ^= low
        level = bigger


def iter_dissections(n: int, d: int) -> Iterator[tuple[Diagonal, ...]]:
    """All dissections of the n-gon with exactly d diagonals, lexicographically."""
    if not 0 <= d <= n - 3:
        raise ValueError(f"need 0 <= d <= n - 3, got d={d} for n={n}")
    diagonals = all_diagonals(n)
    shorter_skipped = dropwhile(lambda m: m.bit_count() < d, iter_noncrossing(diagonals))
    size_d = takewhile(lambda m: m.bit_count() == d, shorter_skipped)
    return (dissection(m, diagonals) for m in size_d)


def size_counts(n: int) -> list[int]:
    """How many dissections of the n-gon have d diagonals, for d = 0..n - 3, in one walk.

    Counts the subsets ``iter_noncrossing(all_diagonals(n))`` yields, by
    size: the f-vector of A_n without its interior cell.  It walks the
    same tree depth-first and makes no subset: a subset of size s with
    ``free`` extensions adds their number to the count of size s + 1,
    and only the extensions that have extensions of their own go on the
    stack, as ``(free, s + 1)``.  So it holds the pending extensions
    along one path of the tree, not a whole level.
    """
    later = _later(all_diagonals(n))
    counts = [1] + [0] * (n - 3)  # the empty dissection, and n >= 4
    stack = [((1 << len(later)) - 1, 1)]
    while stack:
        free, size = stack.pop()
        counts[size] += free.bit_count()
        while free:
            low = free & -free
            free ^= low
            # the diagonals after this one that cross neither it nor the subset
            if extensions := free & later[low.bit_length() - 1]:
                stack.append((extensions, size + 1))
    return counts


def slice_counts(n: int, d: int) -> tuple[dict[int, int], int]:
    """The d-diagonal dissections by support size, and how many are trees, in one walk.

    The empty dissection has no vertices and is not counted as a tree.
    """
    by_support: Counter[int] = Counter()
    trees = 0
    for ds in iter_dissections(n, d):
        verts = support(ds)
        by_support[verts.bit_count()] += 1
        if ds and _spans_tree(ds, verts):
            trees += 1
    return dict(sorted(by_support.items())), trees
