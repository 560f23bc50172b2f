"""Exact reduced homology of labeled complexes over GF(2) and the rationals.

Chain complexes are augmented: the empty face sits in dimension -1 and
every vertex maps onto it, so acyclicity means contractible-like, not
just connected.  All arithmetic is exact: no floating point, no modular
shortcuts.

A chain complex is a facet table, one integer object per face list: row
g lists the ids of the cells that cell g covers, and its i-th entry has
coefficient (-1)^i unless the cell has explicit ±1 signs (in A_n only
the interior cell has).  For A_n the table is ``covers_below()`` itself,
not a copy; dd = 0 is checked once over the integers.  Each rank builds
the rows it needs for the field asked for, as id sets for GF(2) and
``{id: ±1}`` dicts for the rationals, and reduces them against pivot
rows keyed by their largest id.  A restriction ranks its parent's rows
at its kept ids.  Betti numbers rank from the top dimension down with
clearing (Chen & Kerber, "Persistent homology computation with a twist",
2011).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from enum import Enum
from itertools import combinations
from math import gcd

from .associahedron import LabeledComplex


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


def rank_gf2(rows: list[set[int]]) -> set[int]:
    """Pivot ids over GF(2) of a matrix given as rows of the ids with odd entries.

    Each row is reduced by symmetric difference against the pivot rows,
    keyed by their largest id, until it vanishes or becomes a new pivot.
    The rows are consumed.
    """
    pivots: dict[int, set[int]] = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return set(pivots)


def rank_int(rows: list[dict[int, int]]) -> set[int]:
    """Pivot ids over the rationals of an integer matrix given as ``{id: value}`` rows.

    Values must be nonzero; pivots are as for ``rank_gf2``.  With
    leading value v in the row r and p in the pivot, a ±1 pivot is
    subtracted ``v·p`` times; any other pivot turns r into
    ``p·r − v·pivot``, which is then divided by its content.  Exact for
    any integer input.  The rows are consumed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
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


class ChainComplex:
    """Augmented integer chain complex stored as a facet table.

    ``bases[k]`` lists the cells in dimension k, and cell ids count
    through the dimensions in order, so dimension k holds the ids from
    ``first[k]`` on.  ``table[g]`` lists the ids of the cells in cell g's
    boundary; its i-th entry has coefficient (-1)^i, or ``signs[g][i]``
    when g has explicit signs, which must be ±1, one per entry
    (ValueError otherwise).  The identity boundary-of-boundary = 0 is
    verified once, over the integers, at construction, which implies it
    in every field; each rank takes its field as an argument.
    """

    def __init__(
        self,
        bases: dict[int, Sequence],
        table: Sequence[Sequence[int]],
        signs: dict[int, Sequence[int]] | None = None,
    ) -> None:
        self.bases = bases
        self.table = table
        self.signs = signs or {}
        self.dims = sorted(bases)
        self.first: dict[int, int] = {}
        count = 0
        for k in self.dims:
            self.first[k] = count
            count += len(bases[k])
        if count != len(table):
            raise ValueError(f"{count} cells in the bases but {len(table)} rows in the table")
        for g, s in self.signs.items():
            if len(s) != len(table[g]) or any(c != 1 and c != -1 for c in s):
                raise ValueError(f"cell {g} needs one sign ±1 per entry of {list(table[g])}")
        # covers every row, so zip never cuts one short
        self._alternating = (1, -1) * ((max(map(len, table), default=0) + 1) // 2)
        self._verify_dd_zero()

    def rank(self, k: int, field: Field | str, positions: Iterable[int] | None = None) -> int:
        """Rank over field of the boundaries of the k-cells at positions (default all).

        Every row is reduced; only ``reduced_betti`` skips rows by clearing.
        """
        if positions is None:
            positions = range(len(self.bases[k]))
        return len(self._pivots([self.first[k] + p for p in positions], field))

    def reduced_betti(
        self, field: Field | str, kept: dict[int, Sequence[int]] | None = None
    ) -> list[int]:
        """Dimensions of reduced homology over field in degrees 0..top.

        ``kept[k]``, when given, lists positions in ``bases[k]`` of a
        closed subcomplex; it is ranked at ids ``first[k] + p``.
        Dimensions are ranked from the top down with clearing: a pivot id
        of the (k+1)-boundaries leads a cycle, so the k-cell with that id
        depends on the k-cells before it and is skipped.
        """
        cells = kept or {k: range(len(basis)) for k, basis in self.bases.items()}
        ranks = [0] * (max(cells) + 2)
        cleared: set[int] = set()
        for k in range(max(cells), -1, -1):
            start = self.first[k]
            ids = [start + p for p in cells[k]]
            cleared = self._pivots([g for g in ids if g not in cleared], field)
            ranks[k] = len(cleared)
        return [len(cells[i]) - ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]

    def _pivots(self, ids: list[int], field: Field | str) -> set[int]:
        """Pivot ids over field of the boundaries of the cells ids, rows built per field."""
        table = self.table
        if Field.coerce(field) is Field.GF2:
            # every coefficient is ±1, so odd
            return rank_gf2([set(table[g]) for g in ids])
        signs, alternating = self.signs, self._alternating
        return rank_int([dict(zip(table[g], signs.get(g, alternating))) for g in ids])

    def _verify_dd_zero(self) -> None:
        table, signs, alternating = self.table, self.signs, self._alternating
        for g, row in enumerate(table):
            acc: dict[int, int] = {}
            for lo, c in zip(row, signs.get(g, alternating)):
                for lo2, c2 in zip(table[lo], signs.get(lo, alternating)):
                    acc[lo2] = acc.get(lo2, 0) + c * c2
            if any(acc.values()):
                raise RuntimeError(f"boundary of boundary of cell {g} is nonzero")


def _interior_signs(rows: list[list[int]]) -> list[int]:
    """Coherent signs of the interior cell's boundary over the facets.

    ``rows`` are the triangulations' rows of the facet table, in the
    order of the interior cell's row: index i of a row is the ridge that
    drops the i-th diagonal, by id, with induced sign (-1)^i.  Signs are
    propagated across the flip graph: every ridge lies in exactly two
    triangulations and their induced coefficients must cancel.  Failure
    of either property is an internal consistency error.
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
    return sign


def chain_complex(X: LabeledComplex) -> ChainComplex:
    """Integer chain complex of X's face list, interior cell included.

    Its table is the face list's own ``covers_below()``: a simplicial
    face's row drops its i-th diagonal at index i, and only the interior
    cell gets explicit signs, from ``_interior_signs``.  A restriction has
    no face list of its own, so it gets its parent's complex; every
    complex ranks it at ``X.kept``.  The complex is made, and checked for
    dd = 0 over the integers, on the first call and kept on the face
    list's owner.
    """
    P = X if X.parent is None else X.parent
    if P._chains is None:
        table = P.covers_below()
        signs = {}
        if P.has_interior:
            top = len(table) - 1
            signs[top] = _interior_signs([table[g] for g in table[top]])
        bases = {k: P.faces_of_dim(k) for k in range(-1, P.dim + 1)}
        P._chains = ChainComplex(bases, table, signs)
    return P._chains


def simplicial_reduced_betti(facets: Iterable[Iterable], field: Field | str) -> list[int]:
    """Reduced Betti numbers of the abstract simplicial complex the facets generate.

    Vertices may be any sortable hashables.  Returns degrees 0..top; the
    complex consisting of the empty face alone returns [].  Cells are
    numbered by size, then lexicographically, and a cell's row drops its
    i-th vertex at index i.
    """
    closure: set[tuple] = {()}
    for f in map(sorted, facets):
        closure.update(c for r in range(1, len(f) + 1) for c in combinations(f, r))
    cells = sorted(closure, key=lambda c: (len(c), c))
    ids = {cell: g for g, cell in enumerate(cells)}
    table = [[ids[cell[:i] + cell[i + 1 :]] for i in range(len(cell))] for cell in cells]
    bases: dict[int, list[tuple]] = {}
    for cell in cells:
        bases.setdefault(len(cell) - 1, []).append(cell)
    return ChainComplex(bases, table).reduced_betti(field)


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
