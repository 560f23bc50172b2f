"""Oracles: slower, literal computations the tests compare the package with.

Each recomputes, from scratch or from the definitions, a fact that a
function the CLI reaches also computes; the CLI never runs them.  The
readers at the end give tests views and lists the package never needs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import combinations
from math import gcd
from typing import Iterable

from cycleres.associahedron import Face, LabeledComplex, f_formula
from cycleres.betti import BettiTable, _cyclic_runs
from cycleres.homology import ChainComplex, Field
from cycleres.morse import MorseMatching, _find_cycle
from cycleres.polygon import (
    Diagonal,
    Pair,
    all_diagonals,
    crosses,
    dissection,
    iter_dissections,
    iter_noncrossing,
    support,
    vertices,
)
from cycleres.resolution import cone_apex


class SupportClass(Enum):
    """How the endpoint count of a dissection compares to d + 1.

    A dissection with d diagonals touching s polygon vertices is proper
    when s = d + 1, superproper when s > d + 1 and subproper when
    s < d + 1.
    """

    PROPER = "proper"
    SUPERPROPER = "superproper"
    SUBPROPER = "subproper"


def classify(diagonals: Iterable[Pair]) -> SupportClass:
    """Support classification of a nonempty dissection."""
    ds = tuple(diagonals)
    if not ds:
        raise ValueError("support classification is undefined for the empty dissection")
    s = support(ds).bit_count()
    if s == len(ds) + 1:
        return SupportClass.PROPER
    if s > len(ds) + 1:
        return SupportClass.SUPERPROPER
    return SupportClass.SUBPROPER


def count_by_class(n: int, d: int) -> dict[SupportClass, int]:
    """Counts of d-diagonal dissections by support classification, d >= 1.

    The oracle of ``count_formulas`` and of ``slice_counts``' support sizes.
    """
    out = {cls: 0 for cls in SupportClass}
    for ds in iter_dissections(n, d):
        out[classify(ds)] += 1
    return out


def n7_extension_counts() -> dict[str, int]:
    """Face classification counts behind the hand extension in the heptagon.

    The four matched families (superproper 2- and 3-diagonal faces upward,
    inscribed triangles and triangles-with-pendant downward) leave 35 edges,
    35 two-faces, and 14 three-faces unmatched.
    """
    by3 = count_by_class(7, 3)
    counts = {
        "superproper_d2": count_by_class(7, 2)[SupportClass.SUPERPROPER],
        "subproper_d3": by3[SupportClass.SUBPROPER],
        "superproper_d3": by3[SupportClass.SUPERPROPER],
        "subproper_d4": count_by_class(7, 4)[SupportClass.SUBPROPER],
    }
    counts["edges_after"] = f_formula(7, 2) - counts["superproper_d2"] - counts["subproper_d3"]
    counts["two_faces_after"] = f_formula(7, 3) - sum(
        counts[k] for k in ("superproper_d2", "subproper_d3", "superproper_d3", "subproper_d4")
    )
    counts["three_faces_after"] = f_formula(7, 4) - counts["superproper_d3"] - counts["subproper_d4"]
    return counts


def _is_maximal(face: frozenset[Diagonal], candidates: list[Diagonal]) -> bool:
    return all(
        d in face or any(crosses(d, e) for e in face) for d in candidates
    )


def cone_witness(n: int, sigma: int) -> Diagonal | None:
    """cone_apex plus a literal check of the apex against every maximal face.

    sigma is a vertex bitmask, as for cone_apex.  Maximal faces are
    enumerated from scratch as maximal noncrossing subsets of the diagonals
    supported inside sigma, independent of the complex builder.  Raises
    RuntimeError if the apex claim fails (it never should).
    """
    apex = cone_apex(n, sigma)
    candidates = [d for d in all_diagonals(n) if support([d]) & ~sigma == 0]
    if apex is None:
        if candidates:
            raise RuntimeError(f"no apex yet restriction to {vertices(sigma)} is non-empty")
        return None
    if apex not in candidates:
        raise RuntimeError(f"apex {apex} is not supported inside {vertices(sigma)}")
    for chosen in iter_noncrossing(candidates):
        face = frozenset(dissection(chosen, candidates))
        if _is_maximal(face, candidates) and apex not in face:
            raise RuntimeError(f"apex {apex} missing from maximal face {sorted(face)}")
    return apex


def simplicial_reduced_betti(facets: Iterable[Iterable], field: Field | str) -> list[int]:
    """Reduced Betti numbers of the abstract simplicial complex the facets generate.

    Vertices may be any sortable hashables.  Returns degrees 0..top; the
    complex consisting of the empty face alone returns [].  Cells are
    numbered by size, then lexicographically, and a cell's row drops its
    i-th vertex at index i.  So each row strictly descends, as
    ``ChainComplex`` requires: for i < j, the face that drops the i-th
    vertex first differs from the one that drops the j-th at index i,
    where it holds the larger (i + 1)-th vertex, so its id is larger.
    """
    closure: set[tuple] = {()}
    for f in map(sorted, facets):
        closure.update(c for r in range(1, len(f) + 1) for c in combinations(f, r))
    cells = sorted(closure, key=lambda c: (len(c), c))
    ids = {cell: g for g, cell in enumerate(cells)}
    table = [[ids[cell[:i] + cell[i + 1 :]] for i in range(len(cell))] for cell in cells]
    sizes = [len(cell) for cell in cells]
    # cells of one size are consecutive, and every size up to the largest occurs
    bases = {
        size - 1: range(bisect_left(sizes, size), bisect_right(sizes, size))
        for size in range(sizes[-1] + 1)
    }
    return ChainComplex(bases, table).reduced_betti(field)


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


def check_betti_shape(table: BettiTable) -> None:
    """Check shape constraints: almost-linearity, ends, palindromy."""
    n = table.n
    for (d, j), v in table.entries.items():
        if v == 0:
            continue
        ok = (d, j) == (0, 0) or (d, j) == (n - 2, n) or (1 <= d <= n - 3 and j == d + 1)
        if not ok:
            raise AssertionError(f"unexpected nonzero entry at (d={d}, j={j})")
    if table.value(0, 0) != 1:
        raise AssertionError("beta_{0,0} must be 1")
    if table.value(n - 2, n) != 1:
        raise AssertionError("beta_{n-2,n} must be 1")
    row = table.row()
    if row != row[::-1]:
        raise AssertionError(f"betti row is not palindromic: {row}")


def eager_rank_gf2(rows):
    """Pivot ids over GF(2), each row an id set copied and reduced before it is stored."""
    pivots = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return set(pivots)


def eager_rank_int(rows):
    """Pivot ids over the rationals, each row an ``{id: value}`` dict reduced before it is stored."""
    pivots = {}
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


def signed_boundary(cc: ChainComplex, g: int) -> dict[int, int]:
    """Cell g's boundary in ``cc`` as ``{id: coefficient}``.

    Read from ``cc.table`` and ``cc.signs`` alone: the i-th entry of a
    row has coefficient (-1)^i unless the cell has explicit signs.
    """
    row = cc.table[g]
    return dict(zip(row, cc.signs.get(g) or [(-1) ** i for i in range(len(row))]))


def dense_boundary(cc: ChainComplex, k: int, field: Field) -> list[list[int]]:
    """Dense boundary matrix C_k -> C_{k-1} of ``cc``: rows index (k-1)-cells.

    Entries are reduced mod 2 over GF(2).  Built from ``signed_boundary``,
    so tests can check the sparse kernels against dense algebra.
    """
    cells = cc.bases.get(k, [])
    row_of = {g: i for i, g in enumerate(cc.bases.get(k - 1, []))}
    dense = [[0] * len(cells) for _ in row_of]
    for j, g in enumerate(cells):
        for lo, c in signed_boundary(cc, g).items():
            dense[row_of[lo]][j] = c % 2 if field is Field.GF2 else c
    return dense


def eager_pivots(cc: ChainComplex, ids: Iterable[int], field: Field) -> set[int]:
    """The eager kernels' pivot ids of the cells ids, each row copied from ``cc.table``.

    Every row is read with its own signs (``signed_boundary``), whatever
    its dimension; the pivots' number is the rank of those cells' boundaries.
    """
    if field is Field.GF2:
        return eager_rank_gf2([set(cc.table[g]) for g in ids])
    return eager_rank_int([signed_boundary(cc, g) for g in ids])


def hasse_cycle(m: MorseMatching, X: LabeledComplex) -> list[int] | None:
    """A directed cycle of X's whole oriented Hasse diagram, or None.

    Every cover of X points down, except a matched pair's, which points
    up.  When no face lies in two pairs, it has a cycle exactly when the
    graph of the matched pairs, which ``validate`` searches, has one.
    """
    below = X.covers_below()
    matched = set(m.pairs)  # only covers are looked up in it
    adj: list[list[int]] = [[] for _ in below]
    for hi in X.ids():
        for lo in below[hi]:
            if (lo, hi) in matched:
                adj[lo].append(hi)
            else:
                adj[hi].append(lo)
    return _find_cycle(X.ids(), adj.__getitem__, bytearray(len(below)))


def boundary_complex(X: LabeledComplex) -> LabeledComplex:
    """The view of X without the interior cell (the simplicial sphere), or X if it has none."""
    if not X.has_interior:
        return X
    return X._view({d: ids for d, ids in X.kept.items() if d != X.n - 3})


def faces_of_dim(X: LabeledComplex, dim: int) -> list[Face]:
    """The faces of X of dimension dim, in id order."""
    return [X.faces[g] for g in X.kept.get(dim, ())]


def maximal_faces(X: LabeledComplex) -> list[Face]:
    """Faces of X with no cover above them (the interior cell counts)."""
    below, empty = X.covers_below(), X.kept.get(-1, ())
    lowers = {lo for hi in X.ids() for lo in below[hi]}
    return [X.faces[g] for g in X.ids() if g not in lowers and g not in empty]
