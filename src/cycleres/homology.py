"""Exact reduced homology of labeled complexes over GF(2) and the rationals.

Chain complexes are augmented: the empty face sits in dimension -1 and
every vertex maps onto it, so acyclicity means contractible-like, not
just connected.  All arithmetic is exact: no floating point, no modular
shortcuts.

A chain complex is a facet table, one integer object per face list.  A
face is its id, its position in the face list, and that id is its row:
row g lists the ids of the cells that cell g covers, and its i-th entry has
coefficient (-1)^i unless the cell has explicit ±1 signs (in A_n only
the interior cell has).  For A_n the table is ``covers_below()`` itself,
not a copy; dd = 0 is checked once over the integers: an unsigned row
whose terms cancel in pairs by id passes as it stands, and every other
row is summed.  Each rank reads the table's rows in place, keyed by
their lead, the largest id, which a simplicial face's row holds first;
each row that does not is given a lead-first copy once, when the complex
is made.  A row whose lead starts no pivot becomes that pivot as it
stands.  Only a row that meets a pivot is copied, into an id set for
GF(2) or an ``{id: ±1}`` dict for the rationals, and reduced; a pivot
is copied when a reduction first reads it (the "emergent pairs" of
Bauer, "Ripser", 2021).  A view (a restriction or the boundary sphere)
ranks its face list's rows at its kept ids.  Betti numbers rank from the
top dimension down with clearing (Chen & Kerber, "Persistent homology
computation with a twist", 2011).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, KeysView, Sequence
from enum import Enum
from functools import cache
from itertools import chain, combinations
from math import gcd
from operator import itemgetter

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


def rank_gf2(rows: list[Sequence[int]]) -> KeysView[int]:
    """Pivot ids over GF(2) of a matrix given as rows of the ids with odd entries.

    Each row must be lead-first: its first id is its largest, its lead.
    A row whose lead starts no pivot yet becomes that pivot as it stands,
    uncopied.  A row that meets a pivot is copied into a set and reduced
    by symmetric difference against the pivots, keyed by their largest
    id, until it vanishes or becomes a new pivot; a pivot still stored as
    its row is turned into a set when a reduction first reads it.  The
    rows are not changed.
    """
    pivots: dict[int, Sequence[int] | set[int]] = {}
    for row in rows:
        if not row:
            continue
        lead = row[0]
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            continue
        row = set(row)
        while True:
            if not isinstance(pivot, set):
                pivot = pivots[lead] = set(pivot)
            row ^= pivot
            if not row:
                break
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
    return pivots.keys()


def rank_int(
    rows: list[Sequence[int]], coefficients: Iterable[Sequence[int]]
) -> KeysView[int]:
    """Pivot ids over the rationals of an integer matrix given as rows of ids.

    ``coefficients`` holds one sequence per row: the row's i-th id has
    value ``coefficients[r][i]``, which must be nonzero (a longer
    sequence is cut to the row).  Rows are lead-first and pivots are as
    for ``rank_gf2``: a row that meets a pivot is copied into an
    ``{id: value}`` dict, and a pivot stored as its row and coefficients
    is turned into one when a reduction first reads it.  With leading
    value v in the row r and p in the pivot, a ±1 pivot is subtracted
    ``v·p`` times; any other pivot turns r into ``p·r − v·pivot``, which
    is then divided by its content.  Exact for any integer input.  The
    rows are not changed.
    """
    pivots: dict[int, tuple[Sequence[int], Sequence[int]] | dict[int, int]] = {}
    for row, values in zip(rows, coefficients):
        if not row:
            continue
        lead = row[0]
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = (row, values)
            continue
        row = dict(zip(row, values))
        while True:
            if isinstance(pivot, tuple):
                pivot = pivots[lead] = dict(zip(*pivot))
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
            if not row:
                break
            if not unit:
                g = gcd(*row.values())
                if g > 1:
                    row = {i: x // g for i, x in row.items()}
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
    return pivots.keys()


class ChainComplex:
    """Augmented integer chain complex stored as a facet table.

    A cell is its id, its row in ``table``.  ``bases[k]`` lists the ids
    of the cells in dimension k; together the bases must hold every id
    0..len(table) - 1 exactly once (ValueError otherwise).  ``table[g]``
    lists the ids of the cells in cell g's boundary; its i-th entry has
    coefficient (-1)^i, or ``signs[g][i]`` when g has explicit signs,
    which must be ±1, one per entry (ValueError otherwise).  The identity
    boundary-of-boundary = 0 is verified once, over the integers, at
    construction, which implies it in every field (RuntimeError names the
    first cell where it fails); each rank takes its field as an argument
    and reads the rows in place, each row that does not start with its
    largest id from a lead-first copy made at construction.
    """

    def __init__(
        self,
        bases: dict[int, Sequence[int]],
        table: Sequence[Sequence[int]],
        signs: dict[int, Sequence[int]] | None = None,
    ) -> None:
        self.bases = bases
        self.table = table
        self.signs = signs or {}
        if sorted(g for ids in bases.values() for g in ids) != list(range(len(table))):
            raise ValueError(f"the bases must hold each id 0..{len(table) - 1} exactly once")
        for g, s in self.signs.items():
            if len(s) != len(table[g]) or any(c != 1 and c != -1 for c in s):
                raise ValueError(f"cell {g} needs one sign ±1 per entry of {list(table[g])}")
        # covers every row, so zip never cuts one short
        self._alternating = (1, -1) * ((max(map(len, table), default=0) + 1) // 2)
        self._verify_dd_zero()
        self._rows, self._coefficients = self._lead_first()

    def rank(self, k: int, field: Field | str, ids: Iterable[int] | None = None) -> int:
        """Rank over field of the boundaries of the k-cells with these ids (default ``bases[k]``).

        Every row is reduced; only ``reduced_betti`` skips rows by clearing.
        """
        return len(self._pivots(self.bases[k] if ids is None else list(ids), field))

    def reduced_betti(
        self, field: Field | str, kept: dict[int, Sequence[int]] | None = None
    ) -> list[int]:
        """Dimensions of reduced homology over field in degrees 0..top.

        ``kept[k]``, when given, lists the ids of the k-cells of a closed
        subcomplex; the default is ``bases``.  Dimensions are ranked from
        the top down with clearing: a pivot id of the (k+1)-boundaries
        leads a cycle, so the k-cell with that id depends on the k-cells
        before it and is skipped.
        """
        cells = kept or self.bases
        ranks = [0] * (max(cells) + 2)
        cleared: Collection[int] = ()
        for k in range(max(cells), -1, -1):
            cleared = self._pivots([g for g in cells[k] if g not in cleared], field)
            ranks[k] = len(cleared)
        return [len(cells[i]) - ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]

    def _pivots(self, ids: Sequence[int], field: Field | str) -> KeysView[int]:
        """Pivot ids over field of the boundaries of the cells ids, ranked on the rows in place."""
        rows = self._rows
        if Field.coerce(field) is Field.GF2:
            # every coefficient is ±1, so odd
            return rank_gf2([rows[g] for g in ids])
        coefficients, alternating = self._coefficients, self._alternating
        return rank_int([rows[g] for g in ids], [coefficients.get(g, alternating) for g in ids])

    def _lead_first(self) -> tuple[Sequence[Sequence[int]], dict[int, Sequence[int]]]:
        """The rows the kernels rank, each led by its largest id, and their explicit coefficients.

        The rows are the table itself when every row starts with its
        largest id, as a simplicial face's row does; otherwise a list of
        the table's rows in which each row that does not is replaced by a
        copy sorted in descending order.  The coefficients are ``signs``,
        with the coefficients of each replaced row in its new order.
        """
        table, signs, alternating = self.table, self.signs, self._alternating
        moved = [g for g, row in enumerate(table) if row and row[0] != max(row)]
        if not moved:
            return table, signs
        rows, coefficients = list(table), dict(signs)
        for g in moved:
            row, values = table[g], coefficients.get(g, alternating)
            order = sorted(range(len(row)), key=row.__getitem__, reverse=True)
            rows[g] = tuple(row[i] for i in order)
            coefficients[g] = tuple(values[i] for i in order)
        return rows, coefficients

    def _verify_dd_zero(self) -> None:
        """Raise RuntimeError at the first cell whose boundary of boundary is nonzero.

        An unsigned row whose entries pair up (``_pairs_up``) passes as it
        stands; a signed row, and any row that does not pair up, is summed
        over the integers by ``_boundary_of_boundary``.
        """
        table, signs = self.table, self.signs
        for g, row in enumerate(table):
            if g in signs or not _pairs_up(table, signs, row):
                if any(self._boundary_of_boundary(g).values()):
                    raise RuntimeError(f"boundary of boundary of cell {g} is nonzero")

    def _boundary_of_boundary(self, g: int) -> dict[int, int]:
        """The boundary of the boundary of cell g over the integers, as ``{id: coefficient}``."""
        table, signs, alternating = self.table, self.signs, self._alternating
        acc: dict[int, int] = {}
        for lo, c in zip(table[g], signs.get(g, alternating)):
            for lo2, c2 in zip(table[lo], signs.get(lo, alternating)):
                acc[lo2] = acc.get(lo2, 0) + c * c2
        return acc


def _pairs_up(
    table: Sequence[Sequence[int]], signs: dict[int, Sequence[int]], row: Sequence[int]
) -> bool:
    """Whether dd = 0 on an unsigned row follows from the ids in the table alone.

    With k = len(row) and the cells of the row unsigned, each with a row of
    k - 1 entries, the terms of dd pair up when ``table[row[j]][i] ==
    table[row[i]][j - 1]`` for every i < j: the pair's signs are
    (-1)^(i + j) and (-1)^(i + j - 1), so it cancels.  A simplicial face's
    row, which drops its i-th vertex or diagonal at index i, pairs up.
    False when an index is out of range.
    """
    try:
        lower = [table[lo] for lo in row]
    except IndexError:
        return False
    k = len(row)
    if {*map(len, lower)} - {k - 1} or not signs.keys().isdisjoint(row):
        return False
    pairing = _pairing(k)
    if pairing is None:
        return True
    flat = tuple(chain.from_iterable(lower))
    return pairing[0](flat) == pairing[1](flat)


@cache
def _pairing(k: int) -> tuple[itemgetter, itemgetter] | None:
    """Getters of the two terms of each pair of ``_pairs_up`` for a row of k entries.

    The row's k lower rows of k - 1 entries are read as one flat tuple,
    where ``table[row[j]][i]`` sits at j * (k - 1) + i.  None below k = 2,
    where no terms pair.
    """
    first = [j * (k - 1) + i for j in range(1, k) for i in range(j)]
    second = [i * (k - 1) + j - 1 for j in range(1, k) for i in range(j)]
    return (itemgetter(*first), itemgetter(*second)) if first else None


def _interior_signs(rows: list[Sequence[int]]) -> list[int]:
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
    cell gets explicit signs, from ``_interior_signs``.  Its bases are the
    face list's dimension blocks, its ``kept``.  A view gets its face
    list's complex, and every complex ranks it at the ids ``X.kept``.
    The complex is made, and checked for dd = 0 over the integers, on the
    first call and kept on the face list.
    """
    P = X if X.parent is None else X.parent
    if P._chains is None:
        table = P.covers_below()
        signs = {}
        if P.has_interior:
            top = len(table) - 1
            signs[top] = _interior_signs([table[g] for g in table[top]])
        P._chains = ChainComplex(P.kept, table, signs)
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
    bases: dict[int, list[int]] = {}
    for g, cell in enumerate(cells):
        bases.setdefault(len(cell) - 1, []).append(g)
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
