"""Exact reduced homology of labeled complexes over GF(2) and the rationals.

Chain complexes are augmented: the empty face sits in dimension -1 and
every vertex maps onto it, so acyclicity means contractible-like, not
just connected.  Both rank kernels take the same sparse integer columns
and reduce them against pivot rows keyed by their largest index: over
GF(2) as sets of row ids, by symmetric difference, and over the
rationals as ``{index: value}`` dicts, fraction-free.  All arithmetic
is exact: no floating point, no modular shortcuts.

A chain complex is an integer object, one per face list, read from its
facet table on first use with dd = 0 checked once over the integers;
the field is an argument of each rank, and a restriction ranks its
parent's columns at its kept positions.  Betti numbers rank from the
top dimension down with clearing (Chen & Kerber, "Persistent homology
computation with a twist", 2011).
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from itertools import combinations
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
        if isinstance(value, str) and value.lower() in {f.value for f in cls}:
            return cls(value.lower())
        raise ValueError(f"unknown field {value!r}; use 'gf2' or 'rational'")


def rank_gf2(columns: list[Column]) -> set[int]:
    """Pivot rows over GF(2) of an integer matrix, one per unit of rank.

    Each column is a list of ``(row index, coefficient)`` pairs, as in
    ``ChainComplex.columns``.  Its rows with odd coefficients are reduced
    by symmetric difference against the pivot rows, keyed by their
    largest index, until they vanish or become a new pivot.
    """
    pivots: dict[int, set[int]] = {}
    for col in columns:
        row = {i for i, c in col if c % 2}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return set(pivots)


def rank_int(columns: list[Column]) -> set[int]:
    """Pivot rows over the rationals of an integer matrix, one per unit of rank.

    Columns and pivots are as for ``rank_gf2``, with ``{index: value}``
    rows.  With leading value v in the row r and p in the pivot,
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
    return set(pivots)


def _kernel(field: Field | str):
    # read from the module at each call, so a rebound kernel is the one that runs
    return rank_int if Field.coerce(field) is Field.RATIONAL else rank_gf2


class ChainComplex:
    """Augmented integer chain complex with exact boundary maps.

    ``bases[k]`` lists the cells in dimension k; ``columns[k]`` holds one
    sparse integer boundary column per k-cell, mapping into dimension
    k - 1.  The identity boundary-of-boundary = 0 is verified once, over
    the integers, at construction, which implies it in every field; each
    rank takes its field as an argument.
    """

    def __init__(self, bases: dict[int, list], columns: dict[int, list[Column]]) -> None:
        self.bases = bases
        self.columns = columns
        self.dims = sorted(bases)
        self._verify_dd_zero()

    def rank(self, k: int, field: Field | str, positions: Iterable[int] | None = None) -> int:
        """Rank over field of the k-boundary columns at positions (default all).

        Rows keep this complex's indices.  Every column is reduced; only
        ``reduced_betti`` skips columns by clearing.
        """
        cols = self.columns.get(k, [])
        return len(_kernel(field)(cols if positions is None else [cols[i] for i in positions]))

    def reduced_betti(
        self, field: Field | str, kept: dict[int, list[int]] | None = None
    ) -> list[int]:
        """Dimensions of reduced homology over field in degrees 0..top.

        ``kept[k]``, when given, lists positions in ``bases[k]`` of a
        closed subcomplex (its k-columns have their rows at ``kept[k-1]``),
        whose ranks are those of its columns on this complex's rows.
        Dimensions are ranked from the top down with clearing: a pivot row
        i of the (k+1)-columns leads a cycle, so k-column i depends on the
        k-columns before it and is skipped.  Both kernels key pivots by
        the largest index, and kept positions keep the order.
        """
        cells = kept or {k: range(len(basis)) for k, basis in self.bases.items()}
        kernel = _kernel(field)
        ranks = [0] * (max(cells) + 2)
        cleared: set[int] = set()
        for k in range(max(cells), -1, -1):
            cleared = kernel([self.columns[k][i] for i in cells[k] if i not in cleared])
            ranks[k] = len(cleared)
        return [len(cells[i]) - ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]

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


def _simplex_columns(cells_by_dim: dict[int, list[tuple]]) -> dict[int, list[Column]]:
    """Alternating-sign boundary columns for abstract simplices.

    Cells are tuples of sorted, hashable vertices; dimension is length
    minus one and the empty tuple sits at dimension -1.
    """
    position = {cell: i for cells in cells_by_dim.values() for i, cell in enumerate(cells)}
    return {
        k: [
            [(position[cell[:i] + cell[i + 1 :]], -1 if i % 2 else 1) for i in range(len(cell))]
            for cell in cells
        ]
        for k, cells in cells_by_dim.items()
        if k >= 0
    }


def _interior_column(rows: list[list[int]]) -> Column:
    """Coherently signed boundary of the interior cell over the facets.

    ``rows`` are the triangulations' rows of the facet table, in basis
    order: index i of a row is the ridge that drops the i-th diagonal, by
    id, with induced sign (-1)^i.  Signs are keyed by position in
    ``rows`` and propagated across the flip graph: every ridge lies in
    exactly two triangulations and their induced coefficients must
    cancel.  Failure of either property is an internal consistency error.
    """
    ridge_map: dict[int, list[tuple[int, int]]] = {}
    for pos, row in enumerate(rows):
        for i, ridge in enumerate(row):
            ridge_map.setdefault(ridge, []).append((pos, -1 if i % 2 else 1))
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in rows]
    for owners in ridge_map.values():
        if len(owners) != 2:
            raise RuntimeError(f"ridge shared by {len(owners)} facets; expected exactly 2")
        (f1, s1), (f2, s2) = owners
        adjacent[f1].append((f2, s1, s2))
        adjacent[f2].append((f1, s2, s1))
    sign = [0] * len(rows)
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
    """X's faces by dimension and their boundary columns, read from the facet table.

    Index i of a simplicial face's row drops the i-th diagonal, so it
    enters with sign (-1)^i, its id shifted to a position in the dimension
    below; the interior cell's row is signed by ``_interior_column``.
    """
    below = X.covers_below()
    bases = {k: X.faces_of_dim(k) for k in range(-1, X.dim + 1)}
    columns: dict[int, list[Column]] = {}
    for k in range(X.dim + 1):
        lower = bases[k - 1]
        start = lower[0].id
        columns[k] = [
            _interior_column([below[g.id] for g in lower])
            if f.is_interior
            else [(lo - start, -1 if i % 2 else 1) for i, lo in enumerate(below[f.id])]
            for f in bases[k]
        ]
    return bases, columns


def chain_complex(X: LabeledComplex) -> ChainComplex:
    """Integer chain complex of X's face list, interior cell included.

    A restriction has no face list of its own, so it gets its parent's
    complex; every complex ranks it at ``X.kept``.  The complex is
    assembled, and checked for dd = 0 over the integers, on the first
    call and kept on the face list's owner.
    """
    P = X if X.parent is None else X.parent
    if P._chains is None:
        P._chains = ChainComplex(*_assemble(P))
    return P._chains


def simplicial_reduced_betti(facets: Iterable[Iterable], field: Field | str) -> list[int]:
    """Reduced Betti numbers of the abstract simplicial complex the facets generate.

    Vertices may be any sortable hashables.  Returns degrees 0..top; the
    complex consisting of the empty face alone returns [].
    """
    closure: set[tuple] = {()}
    for f in map(sorted, facets):
        closure.update(c for r in range(1, len(f) + 1) for c in combinations(f, r))
    cells_by_dim: dict[int, list[tuple]] = {}
    for cell in sorted(closure, key=lambda c: (len(c), c)):
        cells_by_dim.setdefault(len(cell) - 1, []).append(cell)
    return ChainComplex(cells_by_dim, _simplex_columns(cells_by_dim)).reduced_betti(field)


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
    return not X.is_empty and not any(reduced_betti_numbers(X, field))
