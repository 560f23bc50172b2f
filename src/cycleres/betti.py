"""Graded Betti numbers of the quotient by the n-cycle's diagonal ideal.

Three independent computations that must agree: a subset sweep counting
connected components of induced subgraphs of the cycle (the squarefree
degrees of Hochster's formula), a closed-form product, and a two-term
recursion with a binomial correction.  The table is almost linear: the
only nonzero entries are (0, 0), (d, d+1) for 1 <= d <= n - 3, and
(n - 2, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb

from .homology import Field, simplicial_reduced_betti
from .polygon import rotate, vertices

METHODS = ("hochster", "closed", "recursion")

HOCHSTER_LIMIT = 16


class MethodDisagreement(Exception):
    """Raised when the three Betti computations differ; carries the cells."""

    def __init__(self, n: int, cells: dict):
        self.n = n
        self.cells = cells
        super().__init__(f"betti methods disagree at n={n}: {cells}")


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{d,j}, stored sparsely."""

    n: int
    entries: dict[tuple[int, int], int] = field(compare=True)

    def value(self, d: int, j: int) -> int:
        return self.entries.get((d, j), 0)

    def total(self, d: int) -> int:
        return sum(v for (dd, _), v in self.entries.items() if dd == d)

    def row(self) -> tuple[int, ...]:
        """Total Betti numbers (beta_0, ..., beta_{n-2})."""
        return tuple(self.total(d) for d in range(self.n - 1))

    def validate(self) -> None:
        """Check shape constraints: almost-linearity, ends, palindromy."""
        n = self.n
        for (d, j), v in self.entries.items():
            if v == 0:
                continue
            ok = (d, j) == (0, 0) or (d, j) == (n - 2, n) or (1 <= d <= n - 3 and j == d + 1)
            if not ok:
                raise AssertionError(f"unexpected nonzero entry at (d={d}, j={j})")
        if self.value(0, 0) != 1:
            raise AssertionError("beta_{0,0} must be 1")
        if self.value(n - 2, n) != 1:
            raise AssertionError("beta_{n-2,n} must be 1")
        row = self.row()
        if row != row[::-1]:
            raise AssertionError(f"betti row is not palindromic: {row}")


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


def check_hochster_with_homology(n: int, field: Field | str = Field.GF2) -> None:
    """Cross-check the component count against honest simplicial homology.

    For every vertex subset W, builds the induced subcomplex of the
    cycle graph and compares all reduced Betti numbers to what the sweep
    assumes.  Raises AssertionError on any mismatch.  Exponential in n;
    meant for n <= 8.
    """
    field = Field.coerce(field)
    for mask in range(1, 1 << n):
        W = vertices(mask)
        facets: list[tuple] = [(v,) for v in W]
        facets += [(v, v % n + 1) for v in W if mask >> (v % n) & 1]
        betti = simplicial_reduced_betti(facets, field)
        if len(W) == n:
            expected = [0, 1]
        else:
            expected = [_cyclic_runs(mask, n) - 1]
        expected += [0] * (len(betti) - len(expected))
        if betti != expected[: len(betti)]:
            raise AssertionError(
                f"homology {betti} disagrees with component count {expected} on W={W}"
            )


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
def _recursion(n: int, d: int) -> int:
    if d == 1 or d == n - 3:
        return comb(n, 2) - n
    return _recursion(n - 1, d - 1) + _recursion(n - 1, d) + comb(n - 2, d)


def betti_recursion(n: int, d: int) -> int:
    """beta_d by the recursion beta(n,d) = beta(n-1,d-1) + beta(n-1,d) + C(n-2,d).

    Base cases are the two ends d = 1 and d = n - 3, where the value is
    C(n,2) - n, the number of diagonals.
    """
    if n < 4 or not 1 <= d <= n - 3:
        raise ValueError(f"need n >= 4 and 1 <= d <= n - 3, got n={n}, d={d}")
    return _recursion(n, d)


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
