"""The monomial-labeled simplicial associahedron with one interior cell.

For the n-gon, vertices of the complex are diagonals, faces are
dissections (non-crossing diagonal sets, the empty one included), and
each face carries a squarefree label: the set of polygon vertices its
diagonals touch, stored as a bitmask (bit v - 1 for vertex v).  On top
of the simplicial faces sits a single interior cell of dimension n - 3
whose boundary consists of all triangulations, turning the simplicial
sphere into a ball.

A face is its position: its id is its index in the face list that holds
it, and every id the module hands out (``kept``, the facet table, the
label index, ``face_id``) is such an index.  A restriction and the
boundary sphere are views of the face list, so a face has one id in
every complex that holds it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from math import comb

from .polygon import Diagonal, all_diagonals, iter_noncrossing, support, vertices


@dataclass(frozen=True, slots=True)
class Face:
    """One cell of the complex; its id is its position in the face list that holds it.

    ``diagonals`` is the dissection for simplicial faces (the empty
    tuple for the empty face) and None for the interior cell.  ``label``
    is a vertex bitmask, bit v - 1 for vertex v, and (1 << n) - 1 on the
    interior cell; ``to_json`` lists its vertices.
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


def _dimension_blocks(n: int, faces: list[Face]) -> dict[int, range]:
    """The ids of each dimension of a face list in canonical order, as ranges.

    Raises ValueError at the first face out of the shape ``LabeledComplex`` needs.
    """
    starts: dict[int, int] = {}
    prev = None
    for i, f in enumerate(faces):
        if prev is not None and f.dim < prev.dim:
            problem = f"of dimension {f.dim} follows one of dimension {prev.dim}"
        elif f.is_interior and (f.dim != n - 3 or i != len(faces) - 1):
            problem = f"of dimension {f.dim} is not last at dimension {n - 3}"
        elif not f.is_interior and f.dim != len(f.diagonals) - 1:
            problem = f"has {len(f.diagonals)} diagonals at dimension {f.dim}"
        elif not f.is_interior and f.dim >= n - 3:
            problem = f"has dimension {f.dim}, which only the interior cell reaches"
        elif prev is not None and f.dim == prev.dim and f.diagonals <= prev.diagonals:
            problem = f"does not follow {prev} lexicographically"
        else:
            starts.setdefault(f.dim, i)
            prev = f
            continue
        raise ValueError(f"face {f} {problem}: faces must be in canonical order")
    bounds = [*starts.values(), len(faces)]
    return {d: range(a, b) for d, a, b in zip(starts, bounds, bounds[1:])}


class LabeledComplex:
    """A face list, or a view of one, immutable after construction.

    A face is its position in the face list that holds it: that is its
    id, and it is the same in every complex that holds the face.  Faces
    are stored in canonical order (by dimension, then lexicographically
    by dissection; the interior cell last); the constructor raises
    ValueError at the first face out of that order, or whose dimension
    is not its number of diagonals minus one.  It derives the cover
    relation once, as the facet table ``covers_below()``: row i lists the
    ids of the faces that face i covers.  A simplicial face covers its
    dissection minus one diagonal, and the interior cell covers every
    triangulation.  A missing subface raises ValueError, so every
    complex built from a face list is closed under subfaces.

    ``kept`` holds, per dimension, the ids of the complex's faces, and
    every reader of them iterates ``ids()``.  A face list's ``kept`` is
    its dimension blocks, stored once as id ranges.  A view (see
    ``restrict`` and ``boundary_complex``) records the face list as its
    ``parent``, shares its ``faces``, facet table and lookup, and owns
    only its ``kept`` ids, which are closed under subfaces.  So a view's
    ``faces`` may hold faces it does not keep; ``fid in X`` tells.
    """

    parent: LabeledComplex | None = None
    kept: dict[int, Sequence[int]]
    # label -> dimension -> ids, built by the first restrict
    _labels: dict[int, dict[int, list[int]]] | None = None
    # the verified integer chain complex, built by homology on first use
    _chains = None

    def __init__(self, n: int, faces: list[Face]) -> None:
        self.kept = _dimension_blocks(n, faces)
        self.n = n
        self.faces = faces
        self._by_diagonals: dict[tuple[Diagonal, ...], int] = {
            f.diagonals: i for i, f in enumerate(faces) if f.diagonals is not None
        }
        below: list[list[int]] = []
        for f in faces:
            ds = f.diagonals
            if ds is None:
                below.append(list(self.kept.get(n - 4, ())))
                continue
            row = []
            for i in range(len(ds)):
                sub = ds[:i] + ds[i + 1 :]
                lo = self._by_diagonals.get(sub)
                if lo is None:
                    missing = ",".join(str(d) for d in sub)
                    raise ValueError(f"face {f} lacks its subface {{{missing}}}")
                row.append(lo)
            below.append(row)
        self._below = below

    def _view(self, kept: dict[int, Sequence[int]]) -> LabeledComplex:
        """The complex of the ids ``kept`` of this complex's face list, sharing it."""
        owner = self if self.parent is None else self.parent
        V = LabeledComplex.__new__(LabeledComplex)
        V.n, V.parent, V.kept = owner.n, owner, kept
        V.faces, V._by_diagonals, V._below = owner.faces, owner._by_diagonals, owner._below
        return V

    def _label_index(self) -> dict[int, dict[int, list[int]]]:
        """Ids by label, then dimension, built once.

        First checks that every cover is label-monotone (``lo & ~hi == 0``),
        which makes each set of faces with labels inside a mask closed under
        subfaces; a cover that breaks it raises ValueError.
        """
        if self._labels is None:
            faces = self.faces
            for g, row in zip(faces, self._below):
                for lo in row:
                    f = faces[lo]
                    if f.label & ~g.label:
                        raise ValueError(
                            f"cover {f} < {g} is not label-monotone: label "
                            f"{vertices(f.label)} is not inside {vertices(g.label)}"
                        )
            index: dict[int, dict[int, list[int]]] = defaultdict(dict)
            for i, f in enumerate(faces):
                index[f.label].setdefault(f.dim, []).append(i)
            self._labels = dict(index)
        return self._labels

    def ids(self) -> Iterator[int]:
        """The ids of the complex's faces, by dimension and then in id order."""
        return chain.from_iterable(self.kept.values())

    def __contains__(self, fid: int) -> bool:
        """Whether the complex keeps the face with id fid."""
        ids = self.kept.get(self.faces[fid].dim, ()) if 0 <= fid < len(self.faces) else ()
        if isinstance(ids, range):  # a face list's block: bisecting a range is slow
            return fid in ids
        i = bisect_left(ids, fid)  # a restriction keeps sorted lists
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
        """The id of the kept face with these diagonals, in order, or None if there is none."""
        fid = self._by_diagonals.get(tuple(Diagonal(a, b) for a, b in diagonals))
        return fid if fid is not None and fid in self else None

    def faces_of_dim(self, dim: int) -> list[Face]:
        """The faces of dimension dim, in id order."""
        return [self.faces[i] for i in self.kept.get(dim, ())]

    def diagonals(self) -> list[Diagonal]:
        """The diagonals of the vertices (0-faces), in canonical order."""
        return [f.diagonals[0] for f in self.faces_of_dim(0)]

    def facets(self) -> list[Face]:
        """Simplicial top faces: the triangulations, each with n - 3 diagonals."""
        return self.faces_of_dim(self.n - 4)

    def covers_below(self) -> list[list[int]]:
        """The facet table of the face list, indexed by face id: the ids each face covers.

        A simplicial face's row holds its dissection minus its i-th
        diagonal at index i; the interior cell's row holds the
        triangulations in id order.  A view shares its face list's table,
        whose rows at the kept ids hold only kept ids.  The table is the
        stored cover relation, not a copy: callers must not change it.
        """
        return self._below

    @property
    def covers(self) -> list[tuple[int, int]]:
        """Every pair (F, G) of kept faces with F a facet of G, sorted.

        Derived from the facet table on each read; nothing else stores it.
        """
        return sorted((lo, hi) for hi in self.ids() for lo in self._below[hi])

    def equal_label_covers(self) -> list[tuple[int, int]]:
        """The pairs of ``covers`` whose faces have equal labels, sorted from the facet table."""
        faces, below = self.faces, self._below
        return sorted(
            (lo, hi) for hi in self.ids() for lo in below[hi] if faces[lo].label == faces[hi].label
        )

    def maximal_faces(self) -> list[Face]:
        """Faces with no cover above them (the interior cell counts)."""
        faces, below = self.faces, self._below
        lowers = {lo for hi in self.ids() for lo in below[hi]}
        return [faces[g] for g in self.ids() if g not in lowers and faces[g].dim >= 0]

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

    Takes every dissection in the order ``iter_noncrossing`` yields it, which
    is canonical (dimension, then lexicographic dissection), and appends the
    interior cell of dimension n - 3 labeled by all of 1..n.
    """
    faces = [Face(len(ds) - 1, ds, support(ds)) for ds in iter_noncrossing(all_diagonals(n))]
    faces.append(Face(n - 3, None, (1 << n) - 1))
    return LabeledComplex(n, faces)


def restrict(X: LabeledComplex, sigma: Iterable[int]) -> LabeledComplex:
    """The view of X's faces whose label is contained in sigma.

    The first call on a face list, or on a view of it, builds the face
    list's label index, after checking once that every cover there is
    label-monotone: a face's subfaces then have labels inside its own, so
    every label filter is closed under subfaces and no restriction repeats
    the closure check.  The kept faces are the union of the label buckets
    inside sigma, less those a view X does not keep; the result is a view
    of the face list, keeping its ids.  The interior cell survives only
    when sigma is all of 1..n.
    """
    sig = set(sigma)
    mask = sum(1 << (v - 1) for v in range(1, X.n + 1) if v in sig)
    if mask.bit_count() != len(sig):
        raise ValueError(f"sigma {sorted(sig)} is not a subset of 1..{X.n}")
    index = (X if X.parent is None else X.parent)._label_index()
    found: dict[int, list[int]] = defaultdict(list)
    sub = mask
    while True:  # every label inside mask: its submasks, mask first and 0 last
        for d, bucket in index.get(sub, {}).items():
            found[d] += bucket
        if not sub:
            break
        sub = (sub - 1) & mask
    kept = {d: sorted(found[d]) for d in sorted(found)}
    if X.parent is not None:
        kept = {d: [g for g in ids if g in X] for d, ids in kept.items()}
    return X._view({d: ids for d, ids in kept.items() if ids})


def boundary_complex(X: LabeledComplex) -> LabeledComplex:
    """The view of X without the interior cell (the simplicial sphere), or X if it has none."""
    if not X.has_interior:
        return X
    return X._view({d: ids for d, ids in X.kept.items() if d != X.n - 3})
