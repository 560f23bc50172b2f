"""Exact reduced homology of labeled complexes over GF(2) and the rationals.

Chain complexes are augmented: the empty face sits in dimension -1 and
every vertex maps onto it, so acyclicity means contractible-like, not
just connected.  All arithmetic is exact.  Both rank kernels take one
boundary column at a time and reduce it against pivot rows keyed by
their largest index: bitmask rows over GF(2), and over the rationals
sparse ``{index: value}`` rows with fraction-free integer updates and
division by the content.  No floating point, no modular shortcuts.

The complex of a restriction is never assembled on its own: the
parent's integer chain complex is assembled once, with dd = 0 checked
over the integers, and the restriction ranks the parent's columns at
its kept positions (``Subcomplex``).
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from functools import cached_property
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
        if isinstance(value, str):
            for field in cls:
                if field.value == value.lower():
                    return field
        raise ValueError(f"unknown field {value!r}; use 'gf2' or 'rational'")


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


def rank_int(columns: list[Column]) -> int:
    """Rank over the rationals of an integer matrix given by sparse columns.

    Each column is a list of ``(row index, coefficient)`` pairs, as in
    ``ChainComplex.columns``.  Like ``rank_gf2``, each column becomes a
    ``{index: value}`` row that is reduced against the stored pivot rows,
    keyed by their leading (largest) index, until it vanishes or becomes
    a new pivot.  With leading value v in the row r and p in the pivot,
    a ±1 pivot is subtracted ``v·p`` times; any other pivot turns r into
    ``p·r − v·pivot``, which is then divided by its content.  Exact for
    any integer input.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        row = {i: c for i, c in col if c}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            p, v = pivot[lead], row[lead]
            unit = p == 1 or p == -1
            if unit:
                v *= p
            else:
                row = {i: p * x for i, x in row.items()}
            for i, x in pivot.items():
                y = row.get(i, 0) - v * x
                if y:
                    row[i] = y
                else:
                    del row[i]
            if not unit:
                g = gcd(*row.values())
                if g > 1:
                    row = {i: x // g for i, x in row.items()}
    return len(pivots)


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
        self._gf2: dict[int, list[int]] = {}
        self._verify_dd_zero()

    @property
    def top_dim(self) -> int:
        return self.dims[-1]

    def rank(self, k: int) -> int:
        """Rank of the boundary map out of dimension k."""
        return self._rank_at(self.field, k)

    def _rank_at(self, field: Field, k: int, positions: Iterable[int] | None = None) -> int:
        """Rank over field of the k-boundary columns at positions (default all).

        Rows keep this complex's indices.  The GF(2) bitmask of each
        column is built on first use and kept.
        """
        if k not in self.columns:
            return 0
        cols = self.columns[k]
        if field is Field.RATIONAL:
            return rank_int(cols if positions is None else [cols[i] for i in positions])
        rows = self._gf2.get(k)
        if rows is None:
            rows = self._gf2[k] = [sum(1 << i for i, c in col if c % 2) for col in cols]
        return rank_gf2(rows if positions is None else (rows[i] for i in positions))

    def _size(self, k: int) -> int:
        return len(self.bases[k])

    def reduced_betti(self) -> list[int]:
        """Dimensions of reduced homology in degrees 0..top_dim."""
        ranks = [self.rank(k) for k in range(self.top_dim + 2)]
        return [self._size(i) - ranks[i] - ranks[i + 1] for i in range(self.top_dim + 1)]

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


class Subcomplex(ChainComplex):
    """Chain complex of a closed subcomplex: ``parent``'s cells at ``kept[k]``.

    ``kept[k]`` lists positions in ``parent.bases[k]``.  The parent's
    dd = 0 was verified when it was built, and the boundary columns of a
    closed subcomplex only touch kept rows, so dd = 0 holds here and each
    rank is that of the parent's columns at the kept positions, on the
    parent's row indices.  ``bases`` and ``columns`` (renumbered to index
    the lower basis, as in ChainComplex) are derived when first read.
    """

    def __init__(self, field: Field, parent: ChainComplex, kept: dict[int, list[int]]) -> None:
        self.field = Field.coerce(field)
        self.parent = parent
        self.kept = kept
        self.dims = sorted(kept)

    @cached_property
    def bases(self) -> dict[int, list]:
        return {k: [self.parent.bases[k][i] for i in ps] for k, ps in self.kept.items()}

    @cached_property
    def columns(self) -> dict[int, list[Column]]:
        out: dict[int, list[Column]] = {}
        for k, ps in self.kept.items():
            if k - 1 in self.kept:
                row = {p: i for i, p in enumerate(self.kept[k - 1])}
                cols = self.parent.columns[k]
                out[k] = [[(row[p], c) for p, c in cols[j]] for j in ps]
        return out

    def rank(self, k: int) -> int:
        if k not in self.kept:
            return 0
        return self.parent._rank_at(self.field, k, self.kept[k])

    def _size(self, k: int) -> int:
        return len(self.kept[k])


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


def _assemble(X: LabeledComplex) -> tuple[dict[int, list], dict[int, list[Column]]]:
    """Bases and boundary columns of X in its canonical face order."""
    cells_by_dim: dict[int, list[tuple]] = {}
    for f in X.faces:
        if not f.is_interior:
            cells_by_dim.setdefault(f.dim, []).append(f.diagonals)
    columns = _simplex_columns(cells_by_dim)
    bases: dict[int, list] = dict(cells_by_dim)
    if X.has_interior:
        bases[X.n - 3] = [None]
        columns[X.n - 3] = [_interior_column(cells_by_dim[X.n - 4])]
    return bases, columns


def chain_complex(X: LabeledComplex, field: Field | str) -> ChainComplex:
    """Augmented chain complex of a labeled complex, interior cell included.

    Bases follow the complex's canonical face order.  A restriction's
    complex is a ``Subcomplex`` of its parent's integer chain complex,
    which is assembled, and checked for dd = 0 over the integers, on the
    first call for any restriction of that parent and kept on it.
    """
    field = Field.coerce(field)
    P = X.parent
    if P is None:
        return ChainComplex(field, *_assemble(X))
    if P._chains is None:
        P._chains = ChainComplex(Field.RATIONAL, *_assemble(P))
    return Subcomplex(field, P._chains, X.kept)


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
