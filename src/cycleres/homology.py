"""Exact reduced homology of labeled complexes over GF(2) and the rationals.

Chain complexes are augmented: the empty face sits in dimension -1 and
every vertex maps onto it, so acyclicity means contractible-like, not
just connected.  All arithmetic is exact: bitmask elimination over
GF(2), integer elimination with gcd reduction over the rationals.  No
floating point, no modular shortcuts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from enum import Enum
from math import gcd

from .associahedron import LabeledComplex

# sparse boundary of one cell: list of (position in lower basis, coefficient)
Column = list[tuple[int, int]]


class Field(Enum):
    GF2 = "gf2"
    RATIONAL = "rational"

    @classmethod
    def coerce(cls, value: "Field | str") -> "Field":
        if isinstance(value, Field):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise ValueError(f"unknown field {value!r}; use 'gf2' or 'rational'") from None


def rank_gf2(rows: Iterable[int]) -> int:
    """Rank of a matrix over GF(2), rows given as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = row
                rank += 1
                break
            row ^= other
    return rank


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by exact elimination.

    Gaussian elimination with integer cross-multiplication; every updated
    row is divided by its content so entries stay small on the sparse
    incidence matrices seen here.  Exact for any integer input.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row_at = 0
    for col in range(ncols):
        pivot = None
        for i in range(row_at, len(work)):
            if work[i][col]:
                if pivot is None or abs(work[i][col]) < abs(work[pivot][col]):
                    pivot = i
        if pivot is None:
            continue
        work[row_at], work[pivot] = work[pivot], work[row_at]
        prow = work[row_at]
        p = prow[col]
        for i in range(row_at + 1, len(work)):
            v = work[i][col]
            if not v:
                continue
            row = work[i]
            new = [p * row[j] - v * prow[j] for j in range(col, ncols)]
            g = 0
            for x in new:
                g = gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                new = [x // g for x in new]
            work[i] = [0] * col + new
        rank += 1
        row_at += 1
        if row_at == len(work):
            break
    return rank


class ChainComplex:
    """Augmented chain complex with exact boundary maps.

    ``bases[k]`` lists the cell keys in dimension k; ``columns[k]`` holds
    one sparse boundary column per k-cell, mapping into dimension k - 1.
    The identity boundary-of-boundary = 0 is verified at construction in
    the complex's field.
    """

    def __init__(
        self,
        field: Field,
        bases: dict[int, list],
        columns: dict[int, list[Column]],
    ) -> None:
        self.field = Field.coerce(field)
        self.bases = bases
        self.columns = columns
        self.dims = sorted(bases)
        self._ranks: dict[int, int] = {}
        self._verify_dd_zero()

    @property
    def top_dim(self) -> int:
        return self.dims[-1]

    def matrix(self, k: int) -> list[list[int]]:
        """Dense boundary matrix C_k -> C_{k-1}: rows index (k-1)-cells."""
        lower = len(self.bases.get(k - 1, []))
        dense = [[0] * len(self.columns.get(k, [])) for _ in range(lower)]
        for j, col in enumerate(self.columns.get(k, [])):
            for i, c in col:
                dense[i][j] = c % 2 if self.field is Field.GF2 else c
        return dense

    def rank(self, k: int) -> int:
        """Rank of the boundary map out of dimension k."""
        if k not in self.columns:
            return 0
        if k not in self._ranks:
            cols = self.columns[k]
            lower = len(self.bases[k - 1])
            if self.field is Field.GF2:
                rows = [
                    sum(1 << i for i, c in col if c % 2) for col in cols
                ]
                self._ranks[k] = rank_gf2(rows)
            else:
                dense = []
                for col in cols:
                    row = [0] * lower
                    for i, c in col:
                        row[i] = c
                    dense.append(row)
                self._ranks[k] = rank_int(dense)
        return self._ranks[k]

    def reduced_betti(self) -> list[int]:
        """Dimensions of reduced homology in degrees 0..top_dim."""
        out = []
        for i in range(0, self.top_dim + 1):
            kernel = len(self.bases[i]) - self.rank(i)
            image = self.rank(i + 1)
            out.append(kernel - image)
        return out

    def _verify_dd_zero(self) -> None:
        for k in self.dims:
            if k not in self.columns or (k - 1) not in self.columns:
                continue
            lower_cols = self.columns[k - 1]
            for col in self.columns[k]:
                acc: dict[int, int] = {}
                for i, c in col:
                    for i2, c2 in lower_cols[i]:
                        acc[i2] = acc.get(i2, 0) + c * c2
                for v in acc.values():
                    bad = v % 2 if self.field is Field.GF2 else v
                    if bad:
                        raise RuntimeError(
                            f"boundary of boundary nonzero in dimension {k}"
                        )


def _simplex_columns(
    cells_by_dim: dict[int, list[tuple]],
) -> dict[int, list[Column]]:
    """Alternating-sign boundary columns for abstract simplices.

    Cells are tuples of sorted, hashable vertices; dimension is length
    minus one and the empty tuple sits at dimension -1.
    """
    position = {
        cell: i for cells in cells_by_dim.values() for i, cell in enumerate(cells)
    }
    columns: dict[int, list[Column]] = {}
    for k, cells in cells_by_dim.items():
        if k < 0:
            continue
        cols = []
        for cell in cells:
            cols.append(
                [
                    (position[cell[:i] + cell[i + 1 :]], -1 if i % 2 else 1)
                    for i in range(len(cell))
                ]
            )
        columns[k] = cols
    return columns


def _interior_column(facets: list[tuple]) -> Column:
    """Coherently signed boundary of the interior cell over the facets.

    ``facets`` are the triangulations in basis order; signs are keyed by
    position there.  Signs are propagated across the flip graph: every
    ridge (a facet minus one diagonal) lies in exactly two triangulations
    and their induced coefficients must cancel.  Failure of either
    property is an internal consistency error.
    """
    ridge_map: dict[tuple, list[tuple[int, int]]] = {}
    for pos, ds in enumerate(facets):
        for i in range(len(ds)):
            ridge = ds[:i] + ds[i + 1 :]
            ridge_map.setdefault(ridge, []).append((pos, -1 if i % 2 else 1))
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in facets]
    for owners in ridge_map.values():
        if len(owners) != 2:
            raise RuntimeError(
                f"ridge shared by {len(owners)} facets; expected exactly 2"
            )
        (f1, s1), (f2, s2) = owners
        adjacent[f1].append((f2, s1, s2))
        adjacent[f2].append((f1, s2, s1))
    sign = [0] * len(facets)
    sign[0] = 1
    queue = [0]
    while queue:
        pos = queue.pop()
        for other, s_here, s_there in adjacent[pos]:
            forced = -sign[pos] * s_here * s_there
            if not sign[other]:
                sign[other] = forced
                queue.append(other)
            elif sign[other] != forced:
                raise RuntimeError("orientation propagation over the flip graph failed")
    if not all(sign):
        raise RuntimeError("flip graph is not connected")
    return list(enumerate(sign))


def chain_complex(X: LabeledComplex, field: Field | str) -> ChainComplex:
    """Augmented chain complex of a labeled complex, interior cell included.

    Bases follow the complex's canonical face order.
    """
    field = Field.coerce(field)
    cells_by_dim: dict[int, list[tuple]] = {}
    for f in X.faces:
        if not f.is_interior:
            cells_by_dim.setdefault(f.dim, []).append(f.diagonals)
    columns = _simplex_columns(cells_by_dim)
    bases: dict[int, list] = dict(cells_by_dim)
    if X.has_interior:
        bases[X.n - 3] = [None]
        columns[X.n - 3] = [_interior_column(cells_by_dim[X.n - 4])]
    return ChainComplex(field, bases, columns)


def simplicial_reduced_betti(
    facets: Iterable[Iterable], field: Field | str
) -> list[int]:
    """Reduced Betti numbers of the abstract simplicial complex the facets generate.

    Vertices may be any sortable hashables.  Returns degrees 0..top; the
    complex consisting of the empty face alone returns [].
    """
    closure: set[tuple] = {()}
    stack = [tuple(sorted(f)) for f in facets]
    while stack:
        cell = stack.pop()
        if cell in closure:
            continue
        closure.add(cell)
        stack.extend(cell[:i] + cell[i + 1 :] for i in range(len(cell)))
    cells_by_dim: dict[int, list[tuple]] = {}
    for cell in sorted(closure, key=lambda c: (len(c), c)):
        cells_by_dim.setdefault(len(cell) - 1, []).append(cell)
    cc = ChainComplex(Field.coerce(field), dict(cells_by_dim), _simplex_columns(cells_by_dim))
    return cc.reduced_betti()


def reduced_betti_numbers(X: LabeledComplex, field: Field | str) -> list[int]:
    """Reduced Betti numbers of X in degrees 0..dim(X); [] when X is empty."""
    if X.is_empty:
        return []
    return chain_complex(X, field).reduced_betti()


def is_acyclic(X: LabeledComplex, field: Field | str) -> bool:
    """True iff X is nonempty with vanishing reduced homology over the field.

    The complex holding only the empty face reports False; callers that
    allow emptiness should test ``X.is_empty`` separately.
    """
    if X.is_empty:
        return False
    return all(b == 0 for b in reduced_betti_numbers(X, field))
