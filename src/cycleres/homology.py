"""Exact reduced homology of labeled complexes over GF(2) and the rationals.

Chain complexes are augmented: the empty face sits in dimension -1 and
every vertex maps onto it, so acyclicity means contractible-like, not
just connected.  All arithmetic is exact: no floating point, no modular
shortcuts.

A chain complex is a facet table, one integer object per face list.  A
face is its id, its position in the face list, and that id is its row:
row g lists the ids of the cells that cell g covers, in strictly
descending order, and its i-th entry has coefficient (-1)^i unless the
cell has explicit ±1 signs (in A_n only the interior cell has).  Each
dimension's cells are a range of ids, and the ranges tile the table in
order of dimension: the face list's dimension blocks.  For A_n the table
is ``covers_below()`` itself, not a copy.  The row order, the rows'
dimensions and dd = 0 are checked once, over the integers, a chunk of
rows of one length at a time, each by one check that reruns row by row
only to name a failing row; a chunk of unsigned rows whose terms cancel
in pairs by id passes with one slice comparison per pair of positions,
and every row of any other chunk is summed.  Each rank reads the
table's rows in place, keyed by their lead, the largest id, which is
their first.  A row whose lead starts no pivot becomes that pivot as it
stands.  Only a row that meets a pivot is copied, into an id set for
GF(2) or an ``{id: ±1}`` dict for the rationals, and reduced; a pivot
is copied when a reduction first reads it (the "emergent pairs" of
Bauer, "Ripser", 2021).  A view (a restriction) ranks its face list's
rows at its kept ids, gathered in one pass that also skips the cleared
ids.  Betti numbers rank from the top dimension down with clearing
(Chen & Kerber, "Persistent homology computation with a twist", 2011).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, KeysView, Sequence
from enum import Enum
from itertools import chain, groupby, islice, repeat
from math import gcd
from operator import gt, itemgetter

from .associahedron import LabeledComplex

# rows per chunk of the dd = 0 check: bounds the entries it copies at once
_CHUNK = 4096


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

    A cell is its id, its row in ``table``.  ``bases[k]`` is the range of
    ids of the cells in dimension k: the bases are ranges of step 1,
    keyed -1, 0, …, top with no gap, that tile 0..len(table) - 1 in that
    order (ValueError otherwise), as a face list's dimension blocks do.
    ``table[g]`` lists the ids of the cells in cell g's boundary in
    strictly descending order, each the id of a cell one dimension below
    g (ValueError otherwise); its i-th entry has coefficient (-1)^i, or
    ``signs[g][i]`` when g has explicit signs, which must be keyed by an
    id of the table and be ±1, one per entry (ValueError otherwise).  The
    identity boundary-of-boundary = 0 is verified once, over the
    integers, at construction, which implies it in every field
    (RuntimeError names the first cell where it fails); each rank takes
    its field as an argument and reads the table's rows in place.
    """

    def __init__(
        self,
        bases: dict[int, range],
        table: Sequence[Sequence[int]],
        signs: dict[int, Sequence[int]] | None = None,
    ) -> None:
        self.bases = bases
        self.table = table
        self.signs = signs or {}
        _check_bases(bases, len(table))
        for g, s in self.signs.items():
            if g not in range(len(table)):
                raise ValueError(f"signs are keyed by {g!r}, not an id 0..{len(table) - 1}")
            if len(s) != len(table[g]) or any(c != 1 and c != -1 for c in s):
                raise ValueError(f"cell {g} needs one sign ±1 per entry of {list(table[g])}")
        # covers every row, so zip never cuts one short
        self._alternating = (1, -1) * ((max(map(len, table), default=0) + 1) // 2)
        self._verify_dd_zero()

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
            cleared = self._pivots(cells[k], field, cleared)
            ranks[k] = len(cleared)
        return [len(cells[i]) - ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]

    def _pivots(
        self, ids: Iterable[int], field: Field | str, cleared: Collection[int]
    ) -> KeysView[int]:
        """Pivot ids over field of the boundaries of the cells ids not in cleared.

        The table's rows are ranked in place, gathered from the ids in
        one pass.  Over the rationals each row's coefficients are its
        cell's signs, or the alternating signs when it has none.
        """
        table = self.table
        if Field.coerce(field) is Field.GF2:
            # every coefficient is ±1, so odd
            return rank_gf2([table[g] for g in ids if g not in cleared])
        ids = [g for g in ids if g not in cleared]
        coefficients = map(self.signs.get, ids, repeat(self._alternating))
        return rank_int([table[g] for g in ids], coefficients)

    def _verify_dd_zero(self) -> None:
        """Check the rows' shape and raise RuntimeError at the first cell whose dd is nonzero.

        The table is read in order, in chunks of consecutive rows of one
        length (``_chunks``).  Each row property has one check, run on the
        whole chunk: strict descent (``_descending``), then cells one
        dimension down (``_one_dimension_down``), each raising ValueError.
        A chunk that fails one is checked again row by row, a row being a
        chunk of one, and raises at its first failing row; a chunk whose
        rows span two dimensions fails as a whole while its rows may pass.
        A chunk passes dd = 0 at once when ``_run_pairs_up`` holds on it;
        every row of any other chunk is summed over the integers by
        ``_boundary_of_boundary``, the one loop that raises RuntimeError.
        """
        table, signs, bases = self.table, self.signs, self.bases
        for start, k, rows in _chunks(table):
            entries = list(chain.from_iterable(rows))
            if not _descending(entries, k):
                g = next(g for g, row in enumerate(rows, start) if not _descending(row, k))
                raise ValueError(f"cell {g}'s row {list(table[g])} does not strictly descend")
            if k and not _one_dimension_down(bases, start, len(rows), k, entries):
                for g, row in enumerate(rows, start):
                    if not _one_dimension_down(bases, g, 1, k, row):
                        raise self._dimension_error(g)
            if not _run_pairs_up(table, signs, start, len(rows), k, entries):
                for g in range(start, start + len(rows)):
                    if any(self._boundary_of_boundary(g).values()):
                        raise RuntimeError(f"boundary of boundary of cell {g} is nonzero")

    def _dimension_error(self, g: int) -> ValueError:
        """The error for cell g, whose row holds an id outside the table or a wrong dimension."""
        row, size = self.table[g], len(self.table)
        # the row descends: its first id is its largest
        if row[-1] < 0 or row[0] >= size:
            return ValueError(f"cell {g}'s row {list(row)} holds an id outside 0..{size - 1}")
        below = _dimension(self.bases, g) - 1
        lo = next(lo for lo in row if _dimension(self.bases, lo) != below)
        return ValueError(
            f"cell {g}'s row {list(row)} holds {lo}, a cell of dimension"
            f" {_dimension(self.bases, lo)}, not {below}"
        )

    def _boundary_of_boundary(self, g: int) -> dict[int, int]:
        """The boundary of the boundary of cell g over the integers, as ``{id: coefficient}``."""
        table, signs, alternating = self.table, self.signs, self._alternating
        acc: dict[int, int] = {}
        for lo, c in zip(table[g], signs.get(g, alternating)):
            for lo2, c2 in zip(table[lo], signs.get(lo, alternating)):
                acc[lo2] = acc.get(lo2, 0) + c * c2
        return acc


def _check_bases(bases: dict[int, range], size: int) -> None:
    """Raise ValueError unless the bases are ranges of step 1 keyed -1, 0, … tiling 0..size - 1."""
    message = f"the bases must hold each id 0..{size - 1} exactly once"
    stop = 0
    for d, (k, ids) in enumerate(bases.items(), -1):
        if k != d or not isinstance(ids, range) or ids.step != 1:
            raise ValueError("the bases must be ranges of step 1 keyed -1, 0, 1, … in order")
        if ids.start != stop:
            raise ValueError(message)
        stop += len(ids)
    if stop != size:
        raise ValueError(message)


def _dimension(bases: dict[int, range], g: int) -> int:
    """The dimension of cell g, which must be an id of the bases."""
    return next(d for d, ids in bases.items() if g in ids)


def _chunks(table: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, list[Sequence[int]]]]:
    """``(first id, k, rows)`` for runs of consecutive rows of k entries each.

    A run of the table is cut into chunks of at most ``_CHUNK`` rows, so
    a check that copies a chunk's entries holds at most that many rows'.
    """
    start = 0
    for k, run in groupby(table, len):
        while rows := list(islice(run, _CHUNK)):
            yield start, k, rows
            start += len(rows)


def _run_pairs_up(
    table: Sequence[Sequence[int]],
    signs: dict[int, Sequence[int]],
    start: int,
    count: int,
    k: int,
    entries: list[int],
) -> bool:
    """Whether dd = 0 on count rows of k entries, with ids from start up, follows from ids alone.

    ``entries`` are the rows' entries, concatenated, each an id of the
    table.  It does when no row and no entry is signed, each entry's row
    has k - 1 entries, and ``table[row[j]][i] == table[row[i]][j - 1]``
    for every row and every i < j: the pair's signs are (-1)^(i + j) and
    (-1)^(i + j - 1), so it cancels.  A simplicial face's row, which
    drops its i-th vertex or diagonal at index i, pairs up.  With
    ``flat`` the concatenation of the rows the entries index, row r's
    j-th entry's i-th entry sits at r·w + j·(k - 1) + i, with
    w = k·(k - 1); so one slice of stride w reads one term of a pair on
    every row at once.  True for k = 0.
    """
    if not k:
        return True
    if any(start <= s < start + count for s in signs):
        return False
    lo, hi = min(entries), max(entries)
    if any(lo <= s <= hi for s in signs) and not signs.keys().isdisjoint(entries):
        return False
    lower = itemgetter(*entries)(table) if len(entries) > 1 else (table[entries[0]],)
    if {*map(len, lower)} != {k - 1}:
        return False
    flat = list(chain.from_iterable(lower))
    w = k * (k - 1)
    return all(
        flat[j * (k - 1) + i :: w] == flat[i * (k - 1) + j - 1 :: w]
        for j in range(1, k)
        for i in range(j)
    )


def _one_dimension_down(
    bases: dict[int, range], start: int, count: int, k: int, entries: Sequence[int]
) -> bool:
    """Whether count rows of k > 0 entries, with ids from start up, hold cells one dimension down.

    ``entries`` are the rows' entries, concatenated.  True when the rows'
    cells lie in one block of the bases, of dimension d, and every entry
    in the block of dimension d - 1.  The rows descend, so their first
    entries hold the largest ids and their last the least: two strided
    slices bound every entry.
    """
    d = _dimension(bases, start)
    below = bases.get(d - 1, range(0))
    return (
        start + count <= bases[d].stop
        and below.start <= min(entries[k - 1 :: k])
        and max(entries[::k]) < below.stop
    )


def _descending(entries: Sequence[int], k: int) -> bool:
    """Whether each row of k entries, concatenated in ``entries``, strictly descends."""
    return all(all(map(gt, entries[i::k], entries[i + 1 :: k])) for i in range(k - 1))


def _interior_signs(rows: list[Sequence[int]]) -> list[int]:
    """Coherent signs of the interior cell's boundary over the facets.

    ``rows`` are the triangulations' rows of the facet table, in the
    order of the interior cell's row: index i of a row is the ridge that
    drops the i-th diagonal, by id, with induced sign (-1)^i.  Signs are
    propagated across the flip graph: every ridge lies in exactly two
    triangulations and their induced coefficients must cancel.  Failure
    of either property is an internal consistency error.

    One dict pairs each ridge's owners: it holds the ridge's first owner,
    as twice its position plus the parity of the ridge's index there,
    until the second owner is met, and then -1, so that a third owner
    raises at once.  A ridge left with one owner raises after the pass.
    An edge of the flip graph is stored as twice the other owner's
    position, plus 1 when the two owners' signs must differ: the
    coefficients (-1)^i and (-1)^j cancel when sign * (-1)^i = -sign'
    * (-1)^j, so the signs differ exactly when i and j have the same parity.
    """
    first: dict[int, int] = {}
    adjacent: list[list[int]] = [[] for _ in rows]
    for pos, row in enumerate(rows):
        edges = adjacent[pos]
        for i, ridge in enumerate(row):
            here = 2 * pos + (i & 1)
            there = first.get(ridge)
            if there is None:  # its first owner
                first[ridge] = here
                continue
            if there < 0:
                raise _ridge_error(rows, ridge)
            first[ridge] = -1
            differ = 1 ^ (here ^ there) & 1
            edges.append(there - (there & 1) + differ)
            adjacent[there >> 1].append(here - (here & 1) + differ)
    for ridge, there in first.items():
        if there >= 0:
            raise _ridge_error(rows, ridge)
    sign = [0] * len(rows)
    sign[0] = 1
    queue = [0]
    while queue:
        pos = queue.pop()
        own = sign[pos]
        for edge in adjacent[pos]:
            other = edge >> 1
            forced = -own if edge & 1 else own
            if not sign[other]:
                sign[other] = forced
                queue.append(other)
            elif sign[other] != forced:
                raise RuntimeError("orientation propagation over the flip graph failed")
    if not all(sign):
        raise RuntimeError("flip graph is not connected")
    return sign


def _ridge_error(rows: list[Sequence[int]], ridge: int) -> RuntimeError:
    """The error for a ridge that does not lie in exactly two triangulations, counted."""
    owners = sum(ridge in row for row in rows)
    return RuntimeError(f"ridge shared by {owners} facets; expected exactly 2")


def chain_complex(X: LabeledComplex) -> ChainComplex:
    """Integer chain complex of X's face list, interior cell included.

    Its table is the face list's own ``covers_below()``: a simplicial
    face's row drops its i-th diagonal at index i, and only the interior
    cell gets explicit signs, from ``_interior_signs``, in its row's
    descending id order.  Every row strictly descends, as ``ChainComplex``
    requires, so the kernels read the table itself.  Its bases are the
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
