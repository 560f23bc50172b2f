"""Graded Betti numbers of the quotient by the n-cycle's diagonal ideal.

Three independent computations that must agree: a subset sweep counting
connected components of induced subgraphs of the cycle (the squarefree
degrees of Hochster's formula), a closed-form product, and a two-term
recursion with a binomial correction.  The table is almost linear: the
only nonzero entries are (0, 0), (d, d+1) for 1 <= d <= n - 3, and
(n - 2, n).
"""

from __future__ import annotations

from functools import cache
from math import comb
from operator import add
from typing import NamedTuple

from .polygon import rotate

METHODS = ("hochster", "closed", "recursion")

HOCHSTER_LIMIT = 16


class MethodDisagreement(Exception):
    """Raised when the three Betti computations differ; carries the cells."""

    def __init__(self, n: int, cells: dict):
        self.n = n
        self.cells = cells
        super().__init__(f"betti methods disagree at n={n}: {cells}")


class BettiTable(NamedTuple):
    """Graded Betti numbers beta_{d,j}, stored sparsely; unhashable, as it holds a dict."""

    n: int
    entries: dict[tuple[int, int], int]

    def value(self, d: int, j: int) -> int:
        return self.entries.get((d, j), 0)

    def total(self, d: int) -> int:
        return sum(v for (dd, _), v in self.entries.items() if dd == d)

    def row(self) -> tuple[int, ...]:
        """Total Betti numbers (beta_0, ..., beta_{n-2})."""
        return tuple(self.total(d) for d in range(self.n - 1))


def _cyclic_runs(mask: int, n: int) -> int:
    """Number of cyclic blocks of consecutive set bits (vertices of the n-gon)."""
    return (mask & ~rotate(mask, n, 1)).bit_count()


def hochster_betti(n: int) -> BettiTable:
    """Betti table from the subset sweep over induced subgraphs of the cycle.

    For a proper nonempty vertex subset W the induced graph is a disjoint
    union of arcs, contributing (components - 1) to beta_{|W|-1, |W|};
    the full cycle contributes its one-dimensional hole to
    beta_{n-2, n}; the empty subset contributes beta_{0,0} = 1.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if n > HOCHSTER_LIMIT:
        raise ValueError(f"n={n} exceeds the subset-sweep limit {HOCHSTER_LIMIT}")
    entries: dict[tuple[int, int], int] = {}
    full = (1 << n) - 1
    for mask in range(full + 1):
        if mask == 0:
            entries[(0, 0)] = entries.get((0, 0), 0) + 1
        elif mask == full:
            entries[(n - 2, n)] = entries.get((n - 2, n), 0) + 1
        else:
            runs = _cyclic_runs(mask, n)
            if runs >= 2:
                j = mask.bit_count()
                key = (j - 1, j)
                entries[key] = entries.get(key, 0) + runs - 1
    return BettiTable(n, entries)


def betti_closed_form(n: int, d: int) -> int:
    """beta_d = C(n, d+1) * d * (n-d-2) / (n-1) for 1 <= d <= n - 3; exact."""
    if n < 4 or not 1 <= d <= n - 3:
        raise ValueError(f"need n >= 4 and 1 <= d <= n - 3, got n={n}, d={d}")
    num = comb(n, d + 1) * d * (n - d - 2)
    q, r = divmod(num, n - 1)
    if r:
        raise ArithmeticError(f"closed form not integral at ({n}, {d})")
    return q


@cache
def _recursion_row(n: int) -> list[int]:
    """beta(n, d) for d = 1..n - 3 by the recursion, bottom-up from n = 4.

    One row per n: the ends d = 1 and d = n - 3 are C(n, 2) - n, and
    every other entry adds two of the previous row's to C(n - 2, d), read
    from the binomial row of n - 2, which Pascal's rule updates.  Kept per
    n, so a table reads its row once, not once per d.
    """
    row: list[int] = []
    binomials = [1, 2, 1]  # C(2, 0..2), for n = 4
    for m in range(4, n + 1):
        middle = [row[d - 2] + row[d - 1] + binomials[d] for d in range(2, m - 3)]
        end = comb(m, 2) - m
        row = [end, *middle, end][: m - 3]  # at n = 4 the two ends are one
        binomials = [1, *map(add, binomials, binomials[1:]), 1]
    return row


def betti_recursion(n: int, d: int) -> int:
    """beta_d by the recursion beta(n,d) = beta(n-1,d-1) + beta(n-1,d) + C(n-2,d).

    Base cases are the two ends d = 1 and d = n - 3, where the value is
    C(n,2) - n, the number of diagonals.
    """
    if n < 4 or not 1 <= d <= n - 3:
        raise ValueError(f"need n >= 4 and 1 <= d <= n - 3, got n={n}, d={d}")
    return _recursion_row(n)[d - 1]


def _table_from_function(n: int, fn) -> BettiTable:
    entries = {(0, 0): 1, (n - 2, n): 1}
    for d in range(1, n - 2):
        entries[(d, d + 1)] = fn(n, d)
    return BettiTable(n, entries)


def betti_table(n: int, method: str = "all") -> BettiTable:
    """Full Betti table by the chosen method ('hochster', 'closed',
    'recursion', or 'all' to compute every one and insist they agree)."""
    if method == "hochster":
        return hochster_betti(n)
    if method == "closed":
        return _table_from_function(n, betti_closed_form)
    if method == "recursion":
        return _table_from_function(n, betti_recursion)
    if method == "all":
        tables = compare_methods(n)
        cells: dict[tuple[int, int], dict[str, int]] = {}
        keys = {k for t in tables.values() for k in t.entries}
        for key in sorted(keys):
            values = {name: t.value(*key) for name, t in tables.items()}
            if len(set(values.values())) > 1:
                cells[key] = values
        if cells:
            raise MethodDisagreement(n, cells)
        return tables["hochster"]
    raise ValueError(f"unknown method {method!r}; use one of {METHODS + ('all',)}")


def compare_methods(n: int) -> dict[str, BettiTable]:
    """The table as computed by each method, keyed by method name."""
    return {name: betti_table(n, name) for name in METHODS}
