"""The monomial-labeled simplicial associahedron with one interior cell.

For the n-gon, vertices of the complex are diagonals, faces are
dissections (non-crossing diagonal sets, the empty one included), and
each face carries a squarefree label: the set of polygon vertices its
diagonals touch, stored as a bitmask (bit v - 1 for vertex v).  On top
of the simplicial faces sits a single interior cell of dimension n - 3
whose boundary consists of all triangulations, turning the simplicial
sphere into a ball.

A dissection has one form, its diagonal bitmask (bit j for
``all_diagonals(n)[j]``).  A face list stores its dissections and labels
as two columns of ints and makes a ``Face`` only when one is read.
A face is its position: its id is its index in the face list that holds
it, and every id the module hands out (``kept``, the facet table, the
label index, ``face_id``) is such an index.  Nothing is keyed by
dissection: the constructor reads each facet's id off the canonical
order, and ``face_id`` bisects the face's dimension block, which is
sorted lexicographically by diagonal.  A restriction is a view of the
face list, so a face has one id in every complex that holds it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from math import comb
from typing import NamedTuple

from .polygon import (
    Diagonal,
    all_diagonals,
    crosses,
    dissection,
    iter_noncrossing,
    support,
    vertices,
)


class Face(NamedTuple):
    """One cell of the complex; its id is its position in the face list that holds it.

    ``diagonals`` is the dissection for simplicial faces (the empty
    tuple for the empty face) and None for the interior cell.  ``label``
    is a vertex bitmask, bit v - 1 for vertex v, and (1 << n) - 1 on the
    interior cell; ``to_json`` lists its vertices.  A face list stores no
    ``Face``: it makes one each time ``faces[g]`` is read.
    """

    dim: int
    diagonals: tuple[Diagonal, ...] | None
    label: int

    @property
    def is_interior(self) -> bool:
        return self.diagonals is None

    def __str__(self) -> str:
        if self.is_interior:
            return "<interior>"
        return "{" + ",".join(str(d) for d in self.diagonals) + "}"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "diagonals": None if self.is_interior else [[a, b] for a, b in self.diagonals],
            "label": vertices(self.label),
        }


def _face(n: int, diagonals: list[Diagonal], mask: int | None, label: int) -> Face:
    """The ``Face`` of a dissection bitmask over ``diagonals``, None for the interior cell."""
    if mask is None:
        return Face(n - 3, None, label)
    ds = dissection(mask, diagonals)
    return Face(len(ds) - 1, ds, label)


class _Faces(Sequence):
    """A face list's faces, each made as a ``Face`` when read: ``faces[g]`` is face g.

    Holds the face list's columns, not the complex, so a read ``Face``
    keeps nothing of the complex alive.
    """

    __slots__ = ("n", "diagonals", "dissections", "labels")

    def __init__(self, n: int, diagonals: list[Diagonal], dissections, labels) -> None:
        self.n, self.diagonals, self.dissections, self.labels = n, diagonals, dissections, labels

    def __len__(self) -> int:
        return len(self.dissections)

    def __getitem__(self, g: int) -> Face:
        return _face(self.n, self.diagonals, self.dissections[g], self.labels[g])


def _dimension_blocks(
    n: int, diagonals: list[Diagonal], dissections: Sequence[int | None]
) -> dict[int, range]:
    """The ids of each dimension of a face list in canonical order, as ranges.

    Raises ValueError at the first dissection out of the shape ``LabeledComplex`` needs.
    """
    starts: dict[int, int] = {}
    every = 1 << len(diagonals)
    prev, prev_dim = 0, -2
    for i, mask in enumerate(dissections):
        if mask is None:
            dim = n - 3
        elif 0 <= mask < every:
            dim = mask.bit_count() - 1
        else:
            raise ValueError(f"dissection {mask!r} is not a set of the {n}-gon's diagonals")
        # most faces follow one of their own size, so their one check comes first:
        # the previous face passed, so a face of its size is simplicial and small enough
        if dim == prev_dim:
            # the first diagonal in which two equal-sized dissections differ is
            # their lowest differing bit: it must be the earlier one's
            if (diff := mask ^ prev) & -diff & prev:
                prev = mask
                continue
            problem = f"does not follow {_face(n, diagonals, prev, 0)} lexicographically"
        elif dim < prev_dim:
            problem = f"of dimension {dim} follows one of dimension {prev_dim}"
        elif mask is None and i != len(dissections) - 1:
            problem = f"of dimension {dim} is not last at dimension {n - 3}"
        elif mask is not None and dim >= n - 3:
            problem = f"has dimension {dim}, which only the interior cell reaches"
        else:
            starts[dim] = i
            prev, prev_dim = mask, dim
            continue
        face = _face(n, diagonals, mask, 0)
        raise ValueError(f"face {face} {problem}: faces must be in canonical order")
    bounds = [*starts.values(), len(dissections)]
    return {d: range(a, b) for d, a, b in zip(starts, bounds, bounds[1:])}


def _in_block(
    dissections: Sequence[int | None], block: Sequence[int], mask: int, diagonals: list[Diagonal]
) -> int | None:
    """The id in ``block`` of the face with dissection ``mask``, or None if it has none.

    ``block`` is a dimension block in canonical order, lexicographic by
    diagonal, so the id is found by bisecting it.
    """
    i = bisect_left(
        block, dissection(mask, diagonals), key=lambda g: dissection(dissections[g], diagonals)
    )
    return block[i] if i < len(block) and dissections[block[i]] == mask else None


def _subface_error(
    n: int, diagonals: list[Diagonal], dissections: list[int | None], lower: range, mask: int
) -> ValueError:
    """The error for face ``mask``, which lacks a subface: the first missing from ``lower``.

    The subfaces are tried dropping the face's diagonals in order.
    """
    face = _face(n, diagonals, mask, 0)
    rest = mask
    while _in_block(dissections, lower, mask ^ (low := rest & -rest), diagonals) is not None:
        rest ^= low
    return ValueError(f"face {face} lacks its subface {_face(n, diagonals, mask ^ low, 0)}")


def _facet_rows(
    n: int, diagonals: list[Diagonal], dissections: list[int | None], kept: dict[int, range]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The facet table and the labels of a face list in canonical order, read block by block.

    A face M is its parent P, M without its last diagonal t, plus t.
    Canonical order groups a block by parent, in the order of the block
    below, and each group by t: one forward merge into the block below
    finds every parent, and the children of a face make one run of the
    block above, ordered by last diagonal.  Row M holds M minus each of
    its diagonals in order, so P last.  Each other entry, M minus a
    diagonal a of P, is (P - a) + t: the child with last diagonal t of
    Q = P - a, an entry of P's row.  For the faces Q of the block two
    below, ``first`` holds the position of Q's first child in the block
    below and ``kids`` the bits t of its children's last diagonals, so
    that child is at ``first`` plus the bits of ``kids`` below t, and it
    is missing when bit t is clear.  Only the two blocks being read keep
    those arrays.  M's label is P's plus t's endpoints.

    Raises ValueError at the first face that lacks a subface, crosses
    itself (two diagonals) or, for the interior cell, lacks a triangulation.
    """
    ends = [support([d]) for d in diagonals]
    # one int per vertex set, shared by every face with that label
    vertex_sets = list(range(1 << n))
    below: list[tuple[int, ...]] = []
    labels: list[int] = []
    first: list[int] = []  # of the block two below
    kids: list[int] = []
    base = 0  # the first id of the block two below
    for dim, block in kept.items():
        if dissections[block.start] is None:  # the interior cell, last
            row = tuple(reversed(kept.get(n - 4, ())))  # lead first, like every row
            if len(row) != (want := f_formula(n, n - 3)):
                raise ValueError(
                    f"the interior cell needs all {want} triangulations, found {len(row)}"
                )
            below.append(row)
            labels.append(vertex_sets[-1])
            continue
        if dim == -1:  # the empty face
            below.append(())
            labels.append(0)
            continue
        lower = kept.get(dim - 1, range(0))
        # the ids of the block below, one int each, shared by the rows
        lower_ids = list(lower)
        first_below = [0] * len(lower)
        kids_below = [0] * len(lower)
        at, parent, grown = -1, None, 0
        for g in block:
            mask = dissections[g]
            t = mask.bit_length() - 1
            bit = 1 << t
            if mask ^ bit != parent:
                if grown:
                    kids_below[at] = grown
                parent, grown = mask ^ bit, 0
                at += 1
                while at < len(lower) and dissections[lower[at]] != parent:
                    at += 1
                if at == len(lower):
                    raise _subface_error(n, diagonals, dissections, lower, mask)
                first_below[at] = g - block.start
                p = lower_ids[at]
                row_p, label_p = below[p], labels[p]
            grown |= bit
            low = bit - 1
            row = []
            for q in row_p:
                j = q - base
                k = kids[j]
                if not k & bit:
                    raise _subface_error(n, diagonals, dissections, lower, mask)
                row.append(lower_ids[first[j] + (k & low).bit_count()])
            row.append(p)
            # a larger set with a crossing pair lacks that pair or failed on it
            if dim == 1 and crosses(diagonals[parent.bit_length() - 1], diagonals[t]):
                raise ValueError(f"face {_face(n, diagonals, mask, 0)} has crossing diagonals")
            below.append(tuple(row))
            labels.append(vertex_sets[label_p | ends[t]])
        if grown:
            kids_below[at] = grown
        first, kids, base = first_below, kids_below, lower.start
    return below, labels


class LabeledComplex:
    """A face list, or a view of one, immutable after construction.

    A face is its position in the face list that holds it: that is its
    id, and it is the same in every complex that holds the face.  A face
    list stores two columns, indexed by id: ``dissections``, each face's
    diagonal bitmask (bit j for ``all_diagonals(n)[j]``; None for the
    interior cell), and ``labels``, each face's vertex bitmask.  Faces
    are in canonical order (by dimension, then lexicographically by
    dissection; the interior cell last); the constructor takes the
    dissections column and raises ValueError at the first entry out of
    that order.  It derives the rest once: the facet table
    ``covers_below()``, whose row i lists the ids of the faces that face i
    covers (a simplicial face covers its dissection minus one diagonal,
    the interior cell every triangulation), and the labels, a face's
    label being its facet's without the last diagonal plus that
    diagonal's endpoints, and (1 << n) - 1 on the interior cell.  A
    missing subface raises ValueError, and so do a face of two crossing
    diagonals and an interior cell without all f_formula(n, n - 3)
    triangulations, so every complex built from a face list is closed
    under subfaces and every face is a dissection.  ``faces[g]``
    makes face g's ``Face`` when read.

    ``kept`` holds, per dimension, the ids of the complex's faces, and
    every reader of them iterates ``ids()``.  A face list's ``kept`` is
    its dimension blocks, stored once as id ranges.  A view (see
    ``restrict``) records the face list as its ``parent``, shares its
    columns, ``faces`` and facet table, and owns only its ``kept`` ids,
    which are closed under subfaces.  So a view's ``faces`` may hold
    faces it does not keep; ``fid in X`` tells.
    """

    parent: LabeledComplex | None = None
    kept: dict[int, Sequence[int]]
    # label -> ids in id order, built by the first restrict
    _labels: dict[int, list[int]] | None = None
    # the verified integer chain complex, built by homology on first use
    _chains = None

    def __init__(self, n: int, dissections: list[int | None]) -> None:
        diagonals = all_diagonals(n)
        self.kept = _dimension_blocks(n, diagonals, dissections)
        self.n = n
        self.dissections = dissections
        self._bits = {d: j for j, d in enumerate(diagonals)}
        self._below, self.labels = _facet_rows(n, diagonals, dissections, self.kept)
        self.faces = _Faces(n, diagonals, dissections, self.labels)

    def _view(self, kept: dict[int, Sequence[int]]) -> LabeledComplex:
        """The complex of the ids ``kept`` of this complex's face list, sharing it."""
        owner = self if self.parent is None else self.parent
        V = LabeledComplex.__new__(LabeledComplex)
        V.n, V.parent, V.kept = owner.n, owner, kept
        V.dissections, V.labels, V.faces = owner.dissections, owner.labels, owner.faces
        V._bits, V._below = owner._bits, owner._below
        return V

    def _label_index(self) -> dict[int, list[int]]:
        """The ids of the face list by label, each list in id order, built once."""
        if self._labels is None:
            index: dict[int, list[int]] = defaultdict(list)
            for g, label in enumerate(self.labels):
                index[label].append(g)
            self._labels = dict(index)
        return self._labels

    def ids(self) -> Iterator[int]:
        """The ids of the complex's faces, by dimension and then in id order."""
        return chain.from_iterable(self.kept.values())

    def __contains__(self, fid: int) -> bool:
        """Whether the complex keeps the face with id fid."""
        if not 0 <= fid < len(self.dissections):
            return False
        if self.parent is None:  # a face list keeps every face it holds
            return True
        mask = self.dissections[fid]
        ids = self.kept.get(self.n - 3 if mask is None else mask.bit_count() - 1, ())
        i = bisect_left(ids, fid)  # a view keeps its ids sorted
        return i < len(ids) and ids[i] == fid

    def __len__(self) -> int:
        return sum(map(len, self.kept.values()))

    @property
    def dim(self) -> int:
        return max(self.kept)

    @property
    def has_interior(self) -> bool:
        return self.n - 3 in self.kept

    @property
    def is_empty(self) -> bool:
        """True when the complex holds nothing beyond the empty face."""
        return all(d < 0 for d in self.kept)

    def face_id(self, diagonals: Iterable[tuple[int, int]]) -> int | None:
        """The id of the kept face with these diagonals, in order, or None if there is none.

        None also when a pair is not a diagonal, repeats or comes out of order.
        The face list's block of the face's dimension is in canonical order,
        lexicographic by diagonal, so the id is found by bisecting it.
        """
        mask, last = 0, -1
        for pair in diagonals:
            j = self._bits.get(tuple(pair), -1)
            if j <= last:
                return None
            mask |= 1 << j
            last = j
        dim = mask.bit_count() - 1
        if dim >= self.n - 3:  # only the interior cell is that large
            return None
        block = (self if self.parent is None else self.parent).kept.get(dim, ())
        g = _in_block(self.dissections, block, mask, self.faces.diagonals)
        return g if g is not None and g in self else None

    def diagonals(self) -> list[Diagonal]:
        """The diagonals of the vertices (0-faces), in canonical order."""
        diagonals, dissections = self.faces.diagonals, self.dissections
        return [diagonals[dissections[g].bit_length() - 1] for g in self.kept.get(0, ())]

    def covers_below(self) -> list[tuple[int, ...]]:
        """The facet table of the face list, indexed by face id: the ids each face covers.

        A row is a tuple.  A simplicial face's row holds its dissection
        minus its i-th diagonal at index i, so its ids descend; the
        interior cell's row holds the triangulations in descending id
        order, so every row starts with its largest id.  A view shares
        its face list's table, whose rows at the kept ids hold only kept
        ids.  The table is the stored cover relation, not a copy: callers
        must not change it.
        """
        return self._below

    @property
    def covers(self) -> list[tuple[int, int]]:
        """Every pair (F, G) of kept faces with F a facet of G, sorted.

        Derived from the facet table on each read; nothing else stores it.
        """
        return sorted((lo, hi) for hi in self.ids() for lo in self._below[hi])

    def equal_label_covers(self, skip: bytearray | None = None) -> Iterator[tuple[int, int]]:
        """The pairs of ``covers`` whose faces have equal labels, yielded in sorted order.

        A cover joins dimension k to k + 1 and ids ascend block by block,
        so sorted order is block order, then lower id, then upper id.  The
        pairs are read from the facet rows of one block at a time, into
        up-lists keyed by lower id that reading in id order keeps sorted;
        only one block's pairs are held at once.

        ``skip``, a bytearray indexed by face id (None marks nothing),
        leaves out every pair with a marked face.  It is read when a
        block's rows are read, that is after the pairs of the block before
        have all been yielded, so a face the caller marks while taking one
        block's pairs is left out of every later block, but may still be
        in pairs of its own block that were collected already.
        """
        labels, below = self.labels, self._below
        if skip is None:
            skip = bytes(len(labels))
        for ids in self.kept.values():
            up: dict[int, list[int]] = defaultdict(list)
            for hi in ids:
                if skip[hi]:
                    continue
                label = labels[hi]
                for lo in below[hi]:
                    if labels[lo] == label and not skip[lo]:
                        up[lo].append(hi)
            for lo in sorted(up):
                for hi in up[lo]:
                    yield lo, hi

    def f_vector(self) -> list[int]:
        """Face counts by dimension from -1 up; (f(n,0), ..., f(n,n-3), 1) for A_n."""
        return [len(ids) for ids in self.kept.values()]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "faces": [{"id": g, **self.faces[g].to_json()} for g in self.ids()],
            "covers": [[lo, hi] for lo, hi in self.covers],
        }


def f_formula(n: int, d: int) -> int:
    """Number of d-diagonal dissections of the n-gon, in closed form.

    Equals C(n+d, d+1) * C(n-3, d) / (n+d); the division is exact.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 0 <= d <= n - 3:
        raise ValueError(f"need 0 <= d <= n - 3, got d={d} for n={n}")
    num = comb(n + d, d + 1) * comb(n - 3, d)
    q, r = divmod(num, n + d)
    if r:
        raise ArithmeticError(f"dissection count formula not integral at ({n}, {d})")
    return q


def build(n: int) -> LabeledComplex:
    """Construct the full complex for the n-gon.

    Takes every dissection bitmask in the order ``iter_noncrossing`` yields
    it, which is canonical (dimension, then lexicographic dissection), and
    appends None, the interior cell of dimension n - 3 labeled by all of 1..n.
    """
    dissections: list[int | None] = list(iter_noncrossing(all_diagonals(n)))
    dissections.append(None)
    return LabeledComplex(n, dissections)


def restrict(X: LabeledComplex, sigma: int) -> LabeledComplex:
    """The view of X's faces whose label is contained in sigma, a vertex bitmask.

    sigma is an int with bit v - 1 set for each vertex v it holds, like
    every label; ValueError unless 0 <= sigma < 1 << n.  The first call on
    a face list, or on a view of it, builds the face list's label index.
    A label is the vertex support of its dissection, so a face's subfaces
    have labels inside its own: every label filter is closed under
    subfaces and no restriction checks closure.  The kept faces are the
    union of the label buckets inside sigma, less those a view X does not
    keep; the result is a view of the face list, keeping its ids.  The
    buckets are sorted together once, and the sorted ids are cut into
    dimension blocks by bisecting at the ends of the face list's blocks.
    The interior cell survives only when sigma is (1 << n) - 1, all of 1..n.
    """
    if not 0 <= sigma < 1 << X.n:
        raise ValueError(f"sigma {sigma:#b} is not a subset of 1..{X.n}")
    P = X if X.parent is None else X.parent
    index = P._label_index()
    buckets = []
    sub = sigma
    while True:  # every label inside sigma: its submasks, sigma first and 0 last
        if (bucket := index.get(sub)) is not None:
            buckets.append(bucket)
        if not sub:
            break
        sub = (sub - 1) & sigma
    found = sorted(chain.from_iterable(buckets))
    if X.parent is not None:
        found = [g for g in found if g in X]
    kept: dict[int, list[int]] = {}
    start = 0
    for d, block in P.kept.items():
        end = bisect_left(found, block.stop, start)
        if end > start:
            kept[d] = found[start:end]
            start = end
    return X._view(kept)

