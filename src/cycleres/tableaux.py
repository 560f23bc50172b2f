"""Standard Young tableaux: hook counts, enumeration, and the two shape
families attached to the n-gon.

The associahedron family (d+1, d+1, 1^(n-d-3)) has n + d - 1 cells and
as many standard fillings as there are d-diagonal dissections; the
syzygy family (d+1, 2, 1^(n-d-3)) has n cells and as many fillings as
the d-th Betti number.  An explicit involution on the associahedron
tableaux (over all d at once) moves non-fixed tableaux between adjacent
d values and fixes exactly the tableaux that restrict to syzygy shape.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain
from math import factorial
from operator import ge, itemgetter, lt

Shape = tuple[int, ...]

DEFAULT_CELL_CAP = 14


def _as_shape(shape: Iterable[int]) -> Shape:
    s = tuple(shape)
    if not s:
        raise ValueError("shape must have at least one part")
    if {*map(type, s)} != {int}:
        raise TypeError(f"shape parts must be ints: {s}")
    if min(s) < 1:
        raise ValueError(f"shape parts must be positive: {s}")
    if any(map(lt, s, s[1:])):
        raise ValueError(f"shape parts must be weakly decreasing: {s}")
    return s


def conjugate(shape: Iterable[int]) -> Shape:
    """Transpose of a partition: column lengths become row lengths."""
    s = _as_shape(shape)
    return tuple(sum(1 for p in s if p > j) for j in range(s[0]))


def hook_count(shape: Iterable[int]) -> int:
    """Number of standard Young tableaux of the shape, N! over hook products."""
    s = _as_shape(shape)
    conj = conjugate(s)
    hooks = 1
    for i, row_len in enumerate(s):
        for j in range(row_len):
            hooks *= (row_len - j) + (conj[j] - i) - 1
    n = sum(s)
    q, r = divmod(factorial(n), hooks)
    if r:
        raise ArithmeticError(f"hook products do not divide {n}! for shape {s}")
    return q


@cache
def _neighbours(shape: Shape) -> tuple[itemgetter, itemgetter]:
    """Getters of the smaller and of the larger entry of every two neighbouring cells.

    Both read the row reading word: pairs in rows come first, then pairs
    in columns.  A filling of the shape increases strictly along rows
    and columns when every pair increases.  Made once per shape.
    """
    starts = [0, *accumulate(shape)]
    smaller = [p for a, b in zip(starts, starts[1:]) for p in range(a, b - 1)]
    larger = [p + 1 for p in smaller]
    for r in range(1, len(shape)):
        smaller += range(starts[r - 1], starts[r - 1] + shape[r])
        larger += range(starts[r], starts[r] + shape[r])
    if len(smaller) > 1:
        return itemgetter(*smaller), itemgetter(*larger)
    # one index would get a bare entry; the one pair, if any, is (0, 1)
    return itemgetter(slice(len(smaller))), itemgetter(slice(1, 1 + len(smaller)))


@dataclass(frozen=True, order=True)
class Tableau:
    """A standard Young tableau; rows weakly shrink, entries are 1..N.

    ``rows`` is a tuple of strictly increasing tuples, strictly increasing
    down columns as well; ordering is lexicographic on the row reading
    word.  Keeps the row tuples it is given; an entry that is not an int
    raises TypeError.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        shape = tuple(map(len, rows))
        if not shape or min(shape) < 1 or any(map(lt, shape, shape[1:])):
            _as_shape(shape)  # raises its error for the shape
        cells = [*chain.from_iterable(rows)]
        entries = sorted(cells)
        if {*map(type, entries)} != {int}:
            raise TypeError(f"entries must be ints: {rows}")
        if entries != list(range(1, len(entries) + 1)):
            raise ValueError(f"entries must be exactly 1..{len(entries)}")
        # every two neighbouring cells in one pass; only a failure looks
        # for the row, then the column, to name
        smaller, larger = _neighbours(shape)
        if not all(map(lt, smaller(cells), larger(cells))):
            for row in rows:
                if any(map(ge, row, row[1:])):
                    raise ValueError(f"row {row} is not strictly increasing")
            # the shape check above makes each row no longer than the one above it
            for above, row in zip(rows, rows[1:]):
                if any(map(ge, above, row)):
                    j = list(map(ge, above, row)).index(True)
                    raise ValueError(f"column {j} is not strictly increasing")

    @classmethod
    def _standard(cls, rows: tuple[tuple[int, ...], ...]) -> Tableau:
        """The tableau of row tuples already known to be standard, made without the check."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def shape(self) -> Shape:
        return tuple(map(len, self.rows))

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def __str__(self) -> str:
        # from 10 cells on, entries of two digits need a separator to be read back
        sep = "," if self.size >= 10 else ""
        return "/".join(sep.join(map(str, row)) for row in self.rows)


def enumerate_syt(shape: Iterable[int]) -> list[Tableau]:
    """All standard Young tableaux of the shape, sorted by reading word.

    Entries 1..N are placed in increasing order into a tuple of row
    tuples; a cell is available when it is the first free slot of its row
    and the cell above is filled.  The finished fillings are sorted as
    tuples and each becomes a ``Tableau`` once, unchecked, since the
    placement rule makes every filling standard.  Shapes with more than
    DEFAULT_CELL_CAP cells are refused (the count grows like a factorial;
    use hook_count for counting).
    """
    s = _as_shape(shape)
    total = sum(s)
    if total > DEFAULT_CELL_CAP:
        raise ValueError(
            f"shape {s} has {total} cells, above the enumeration cap {DEFAULT_CELL_CAP}"
        )
    out: list[tuple[tuple[int, ...], ...]] = []

    def place(rows: tuple[tuple[int, ...], ...], value: int) -> None:
        if value > total:
            out.append(rows)
            return
        for r, row in enumerate(rows):
            if len(row) < s[r] and (r == 0 or len(rows[r - 1]) > len(row)):
                place(rows[:r] + (row + (value,),) + rows[r + 1:], value + 1)

    place(((),) * len(s), 1)
    out.sort()
    return [Tableau._standard(rows) for rows in out]


def associahedron_shape(n: int, d: int) -> Shape:
    """(d+1, d+1, 1^(n-d-3)): n + d - 1 cells; needs n >= 4, 1 <= d <= n-3."""
    if n < 4 or not 1 <= d <= n - 3:
        raise ValueError(f"need n >= 4 and 1 <= d <= n - 3, got n={n}, d={d}")
    return (d + 1, d + 1) + (1,) * (n - d - 3)


def syzygy_shape(n: int, d: int) -> Shape:
    """(d+1, 2, 1^(n-d-3)): n cells; needs n >= 5, 1 <= d <= n-3."""
    if n < 5 or not 1 <= d <= n - 3:
        raise ValueError(f"need n >= 5 and 1 <= d <= n - 3, got n={n}, d={d}")
    return (d + 1, 2) + (1,) * (n - d - 3)


def family_params(shape: Iterable[int]) -> tuple[int, int]:
    """(n, d) recovered from an associahedron shape (d+1, d+1, 1, ..., 1)."""
    s = _as_shape(shape)
    if len(s) < 2 or s[0] != s[1] or s[0] < 2 or any(p != 1 for p in s[2:]):
        raise ValueError(f"{s} is not of the form (d+1, d+1, 1, ..., 1) with d >= 1")
    d = s[0] - 1
    n = sum(s) - d + 1
    return n, d


def restricts_to_syzygy(t: Tableau) -> bool:
    """True iff the entries above n all sit in the second row.

    For an (n, d) associahedron tableau those are n+1 .. n+d-1; when they
    occupy the tail of row two, deleting them leaves a syzygy tableau.
    """
    n, d = family_params(t.shape)
    # n+1 .. n+d-1 are the largest entries, so in row two they are its tail
    return t.rows[1][2:] == tuple(range(n + 1, n + d))


def restrict_to_syzygy(t: Tableau) -> Tableau:
    """The syzygy tableau left after deleting entries n+1 .. n+d-1."""
    if not restricts_to_syzygy(t):
        raise ValueError("tableau does not restrict: large entries off the second row")
    return Tableau((t.rows[0], t.rows[1][:2]) + t.rows[2:])


def involution(t: Tableau) -> Tableau:
    """The shape-changing involution on associahedron tableaux.

    Tableaux that restrict to syzygy shape are fixed.  Otherwise, with i
    the largest entry above n outside the second row, i sits either at
    the bottom of the first column (move it to the end of the first row
    and append n+d to the second row: lands in family (n, d+1)) or at
    the end of the first row (move it to the bottom of the first column
    and delete the last entry of the second row, which must be n+d-1:
    lands in family (n, d-1)).  Applying the map twice returns the input.

    The input is standard, so the image is checked only where it changed
    and made without the constructor's full check: every neighbour pair
    of the image is a pair of the input, holds the new largest entry
    n+d, or is the one pair that i joins (i after the old end of row
    one, or i below the old bottom of column one).  A failed comparison
    raises RuntimeError naming that cell.
    """
    rows = t.rows
    d = len(rows[0]) - 1
    n = len(rows) + d + 1
    # a tableau's parts are positive and weakly decreasing, so its shape is
    # (d+1, d+1, 1, ..., 1) when its third part, if any, is 1
    if len(rows) < 2 or d < 1 or len(rows[1]) != d + 1 or len(rows) > 2 and len(rows[2]) != 1:
        n, d = family_params(t.shape)  # raises its error for the shape
    first, second, *column = rows
    # row two is increasing, so the entries above n it holds are its tail:
    # i walks down them from the largest entry, n + d - 1, to the largest
    # entry above n outside row two, or to n when there is none
    i, k = n + d - 1, d
    while i > n and second[k] == i:
        i -= 1
        k -= 1
    if i <= n:
        return t
    if column and column[-1][0] == i:
        # bottom of the first column: grow both long rows
        if i <= first[-1]:
            raise RuntimeError(f"entry {i} cannot end row one after {first[-1]}")
        result = Tableau._standard((first + (i,), second + (n + d,), *column[:-1]))
        expected = associahedron_shape(n, d + 1)
    elif first[-1] == i:
        # end of the first row: shrink both long rows
        if second[-1] != n + d - 1:
            raise RuntimeError(f"second row must end with {n + d - 1}, found {second[-1]}")
        above = column[-1][0] if column else second[0]
        if i <= above:
            raise RuntimeError(f"entry {i} cannot end column one below {above}")
        result = Tableau._standard((first[:-1], second[:-1], *column, (i,)))
        expected = associahedron_shape(n, d - 1)
    else:
        raise RuntimeError(
            f"entry {i} is neither at the end of row one nor at the bottom of column one"
        )
    if result.shape != expected:
        raise RuntimeError(f"involution produced shape {result.shape}, expected {expected}")
    return result
