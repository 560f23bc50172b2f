"""The monomial-labeled simplicial associahedron with one interior cell.

For the n-gon, vertices of the complex are diagonals, faces are
dissections (non-crossing diagonal sets, the empty one included), and
each face carries a squarefree label: the set of polygon vertices its
diagonals touch.  On top of the simplicial faces sits a single interior
cell of dimension n - 3 whose boundary consists of all triangulations,
turning the simplicial sphere into a ball.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from math import comb

from .polygon import Diagonal, all_diagonals, iter_noncrossing, support


@dataclass(frozen=True)
class Face:
    """One cell of the complex.

    ``diagonals`` is the dissection for simplicial faces (the empty
    tuple for the empty face) and None for the interior cell.
    """

    id: int
    dim: int
    diagonals: tuple[Diagonal, ...] | None
    label: frozenset[int]

    @property
    def is_interior(self) -> bool:
        return self.diagonals is None

    def __str__(self) -> str:
        if self.is_interior:
            return "<interior>"
        return "{" + ",".join(str(d) for d in self.diagonals) + "}"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "dim": self.dim,
            "diagonals": None if self.is_interior else [[a, b] for a, b in self.diagonals],
            "label": sorted(self.label),
        }


class LabeledComplex:
    """A face list and what it determines, immutable after construction.

    Faces are stored in canonical order (by dimension, then
    lexicographically by dissection; the interior cell last) and ids
    equal list positions.  The constructor derives ``covers``, every
    pair (F, G) with F a facet of G, sorted: each simplicial face covers
    its dissection minus one diagonal, and the interior cell covers
    every triangulation.  A missing subface raises ValueError, so every
    complex is closed under subfaces.
    """

    def __init__(self, n: int, faces: list[Face]) -> None:
        self.n = n
        self.faces = faces
        self._by_diagonals: dict[tuple[Diagonal, ...], int] = {
            f.diagonals: f.id for f in faces if f.diagonals is not None
        }
        by_dim: dict[int, list[Face]] = defaultdict(list)
        for f in faces:
            by_dim[f.dim].append(f)
        self._by_dim = dict(by_dim)
        covers: list[tuple[int, int]] = []
        for f in faces:
            ds = f.diagonals
            if ds is None:
                covers.extend((g.id, f.id) for g in self.facets())
                continue
            for i in range(len(ds)):
                sub = ds[:i] + ds[i + 1 :]
                lo = self._by_diagonals.get(sub)
                if lo is None:
                    missing = ",".join(str(d) for d in sub)
                    raise ValueError(f"face {f} lacks its subface {{{missing}}}")
                covers.append((lo, f.id))
        covers.sort()
        self.covers = covers
        self._below: dict[int, list[int]] | None = None

    def __len__(self) -> int:
        return len(self.faces)

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.faces)

    @property
    def has_interior(self) -> bool:
        return self.faces[-1].is_interior

    @property
    def is_empty(self) -> bool:
        """True when the complex holds nothing beyond the empty face."""
        return all(f.dim < 0 for f in self.faces)

    def face(self, fid: int) -> Face:
        return self.faces[fid]

    def face_by_diagonals(self, diagonals: Iterable[tuple[int, int]]) -> Face | None:
        key = tuple(Diagonal(a, b) for a, b in diagonals)
        fid = self._by_diagonals.get(key)
        return None if fid is None else self.faces[fid]

    def faces_of_dim(self, dim: int) -> list[Face]:
        return self._by_dim.get(dim, [])

    def facets(self) -> list[Face]:
        """Simplicial top faces: the triangulations, each with n - 3 diagonals."""
        return self.faces_of_dim(self.n - 4)

    def covers_below(self) -> dict[int, list[int]]:
        """Map from each face id to the ids of the faces it covers."""
        if self._below is None:
            below: dict[int, list[int]] = defaultdict(list)
            for lo, hi in self.covers:
                below[hi].append(lo)
            self._below = dict(below)
        return self._below

    def maximal_faces(self) -> list[Face]:
        """Faces with no cover above them (the interior cell counts)."""
        lowers = {lo for lo, _ in self.covers}
        return [f for f in self.faces if f.id not in lowers and f.dim >= 0]

    def f_vector(self) -> list[int]:
        """Face counts by dimension from -1 up; (f(n,0), ..., f(n,n-3), 1) for A_n."""
        return [len(fs) for _, fs in sorted(self._by_dim.items())]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "faces": [f.to_json() for f in self.faces],
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

    Enumerates every dissection by backtracking, sorts faces canonically
    (dimension, then lexicographic dissection), assigns ids, and appends
    the interior cell of dimension n - 3 labeled by all of 1..n.
    """
    diags = all_diagonals(n)
    dissections = sorted(iter_noncrossing(diags, max_size=n - 3), key=lambda ds: (len(ds), ds))
    faces = [Face(i, len(ds) - 1, ds, support(ds)) for i, ds in enumerate(dissections)]
    faces.append(Face(len(faces), n - 3, None, frozenset(range(1, n + 1))))
    return LabeledComplex(n, faces)


def restrict(X: LabeledComplex, sigma: Iterable[int]) -> LabeledComplex:
    """Subcomplex of faces whose label is contained in sigma, renumbered.

    Labels are monotone, so the kept faces are closed under subfaces and
    the covers the constructor derives are those of X among them.  The
    interior cell survives only when sigma is all of 1..n.
    """
    sig = frozenset(sigma)
    if not sig <= frozenset(range(1, X.n + 1)):
        raise ValueError(f"sigma {sorted(sig)} is not a subset of 1..{X.n}")
    keep = [f for f in X.faces if f.label <= sig]
    return LabeledComplex(X.n, [Face(i, f.dim, f.diagonals, f.label) for i, f in enumerate(keep)])


def boundary_complex(X: LabeledComplex) -> LabeledComplex:
    """The complex with the interior cell removed (the simplicial sphere)."""
    if not X.has_interior:
        return X
    return LabeledComplex(X.n, X.faces[:-1])
