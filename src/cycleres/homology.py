"""Exact reduced homology of labeled complexes over GF(2) and the rationals.

Chain complexes are augmented: the empty face sits in dimension -1 and
every vertex maps onto it, so acyclicity means contractible-like, not
just connected.  All arithmetic is exact.  Both rank kernels take one
boundary column at a time and reduce it against pivot rows keyed by
their largest index: bitmask rows over GF(2), and over the rationals
sparse ``{index: value}`` rows with fraction-free integer updates and
division by the content.  No floating point, no modular shortcuts.

A chain complex is an integer object, one per face list: it is
assembled on first use, with dd = 0 checked once over the integers, and
the field is an argument of each rank.  A restriction has no complex of
its own; it ranks its parent's columns at its kept positions.
"""

from __future__ import annotations

from collections.abc import Iterable
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
    """Augmented integer chain complex with exact boundary maps.

    ``bases[k]`` lists the cell keys in dimension k; ``columns[k]`` holds
    one sparse integer boundary column per k-cell, mapping into dimension
    k - 1.  The identity boundary-of-boundary = 0 is verified once, over
    the integers, at construction, which implies it in every field.  The
    field is chosen per rank.
    """

    def __init__(self, bases: dict[int, list], columns: dict[int, list[Column]]) -> None:
        self.bases = bases
        self.columns = columns
        self.dims = sorted(bases)
        self._gf2: dict[int, list[int]] = {}
        self._verify_dd_zero()

    def rank(self, k: int, field: Field | str, positions: Iterable[int] | None = None) -> int:
        """Rank over field of the k-boundary columns at positions (default all).

        Rows keep this complex's indices.  The GF(2) bitmask of each
        column is built on first use and kept.
        """
        if k not in self.columns:
            return 0
        cols = self.columns[k]
        if Field.coerce(field) is Field.RATIONAL:
            return rank_int(cols if positions is None else [cols[i] for i in positions])
        rows = self._gf2.get(k)
        if rows is None:
            rows = self._gf2[k] = [sum(1 << i for i, c in col if c % 2) for col in cols]
        return rank_gf2(rows if positions is None else (rows[i] for i in positions))

    def reduced_betti(
        self, field: Field | str, kept: dict[int, list[int]] | None = None
    ) -> list[int]:
        """Dimensions of reduced homology over field in degrees 0..top.

        ``kept[k]``, when given, lists positions in ``bases[k]`` that span
        a closed subcomplex: the kept k-columns have all their rows at
        ``kept[k - 1]``.  Its chains are this complex's at those
        positions, so dd = 0 holds there too, and each of its ranks is
        that of the kept columns on this complex's rows.
        """
        cells = self.bases if kept is None else kept
        top = max(cells)
        ranks = [
            self.rank(k, field, None if kept is None else kept[k]) if k in cells else 0
            for k in range(top + 2)
        ]
        return [len(cells[i]) - ranks[i] - ranks[i + 1] for i in range(top + 1)]

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
                if any(acc.values()):
                    raise RuntimeError(f"boundary of boundary nonzero in dimension {k}")


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


def chain_complex(X: LabeledComplex) -> ChainComplex:
    """Integer chain complex of X's face list, interior cell included.

    Bases follow the canonical face order.  A restriction has no face
    list of its own, so it gets its parent's complex and ranks it at
    ``X.kept``.  The complex is assembled, and checked for dd = 0 over
    the integers, on the first call and kept on the face list's owner.
    """
    P = X if X.parent is None else X.parent
    if P._chains is None:
        P._chains = ChainComplex(*_assemble(P))
    return P._chains


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
    cc = ChainComplex(dict(cells_by_dim), _simplex_columns(cells_by_dim))
    return cc.reduced_betti(field)


def reduced_betti_numbers(X: LabeledComplex, field: Field | str) -> list[int]:
    """Reduced Betti numbers of X in degrees 0..dim(X); [] when X is empty."""
    if X.is_empty:
        return []
    return chain_complex(X).reduced_betti(field, X.kept)


def is_acyclic(X: LabeledComplex, field: Field | str) -> bool:
    """True iff X is nonempty with vanishing reduced homology over the field.

    The complex holding only the empty face reports False; callers that
    allow emptiness should test ``X.is_empty`` separately.
    """
    if X.is_empty:
        return False
    return all(b == 0 for b in reduced_betti_numbers(X, field))
