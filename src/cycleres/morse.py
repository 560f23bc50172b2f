"""Label-preserving Morse matching on the face poset of the associahedron.

The dimension-2 rule matches every superproper 2-diagonal face upward and
every inscribed triangle downward; both moves keep the monomial label fixed,
so the matching is algebraic.  Validation re-checks the cover relations, the
label equalities, and acyclicity of the oriented Hasse diagram; unmatched
faces are the critical cells.  On a view of A_n, faces keep their ids in A_n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable, Iterable

from .associahedron import LabeledComplex, f_formula
from .polygon import Diagonal, SupportClass, count_by_class, vertices


@dataclass(frozen=True)
class MorseMatching:
    """A set of matched cover pairs (lower face id, upper face id)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted({(int(lo), int(hi)) for lo, hi in self.pairs}))
        object.__setattr__(self, "pairs", canon)

    @cached_property
    def matched_ids(self) -> frozenset[int]:
        return frozenset(fid for pair in self.pairs for fid in pair)

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> list[list[int]]:
        return [[lo, hi] for lo, hi in self.pairs]


@dataclass(frozen=True)
class MatchingReport:
    ok: bool
    problems: tuple[str, ...]


def _superproper_partner(d1: Diagonal, d2: Diagonal) -> Diagonal:
    """Third diagonal completing a disjoint pair to its matched 3-face.

    For {ij, kl} with i < k the added diagonal is (j, l) when the pair is
    side by side (j < k) and (i, l) when it is nested (k < l < j); either
    way it shares one endpoint with each diagonal, so nothing crosses.
    """
    (i, j), (k, l) = d1, d2
    return Diagonal(j, l) if j < k else Diagonal(i, l)


def _partner(X: LabeledComplex, fid: int, diagonals: Iterable[Diagonal]) -> int:
    """The id of the face with these diagonals, the partner of face ``fid``."""
    g = X.face_id(sorted(diagonals))
    if g is None:
        raise RuntimeError(f"partner of {X.faces[fid]} is not a face")
    return g


def d2_matching(X: LabeledComplex) -> MorseMatching:
    """The explicit low-dimensional matching: superproper pairs up, triangles down.

    Empty below n = 6, where neither face type exists.
    """
    pairs = []
    dissections, labels = X.dissections, X.labels
    for fid in X.kept.get(1, ()):  # the interior cell is here at n = 4, with 4 vertices
        if dissections[fid] is not None and labels[fid].bit_count() == 4:
            d1, d2 = X.faces[fid].diagonals
            pairs.append((fid, _partner(X, fid, (d1, d2, _superproper_partner(d1, d2)))))
    below = X.covers_below()
    for fid in X.kept.get(2, ()):  # the interior cell is here at n = 5, with 5 vertices
        if labels[fid].bit_count() == 3:
            # the triangle's diagonals are ij < ik < jk: row entry 1 drops ik, keeping {ij, jk}
            pairs.append((below[fid][1], fid))
    return MorseMatching(tuple(pairs))


def _find_cycle(
    roots: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> list[int] | None:
    """A directed cycle reachable from roots, as a closed path of vertices, or None.

    Iterative three-colour DFS.  Vertices are coloured only when reached, so
    a search costs what it explores, not the size of the whole graph.
    """
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    for root in roots:
        if root in color:
            continue
        color[root] = GRAY
        path = [root]
        iters = [iter(successors(root))]
        while iters:
            for b in iters[-1]:
                c = color.get(b)
                if c == GRAY:
                    return path[path.index(b):] + [b]
                if c is None:
                    color[b] = GRAY
                    path.append(b)
                    iters.append(iter(successors(b)))
                    break
            else:
                color[path.pop()] = BLACK
                iters.pop()
    return None


def _pair_successors(match_at_lower: dict[int, int], below: list[list[int]]):
    """Pair-graph step: up through a lower face's match, down to another matched lower."""

    def step(lower: int):
        upper = match_at_lower[lower]
        return (b for b in below[upper] if b != lower and b in match_at_lower)

    return step


def validate(m: MorseMatching, X: LabeledComplex, *, full_graph: bool = False) -> MatchingReport:
    """Check covers, single use, label equality, and acyclicity.

    With full_graph=True the acyclicity verdict is re-derived from the whole
    oriented Hasse diagram of X instead of just the matched-pair graph.  A
    pair whose upper id X does not keep is reported as not a cover; the
    label and acyclicity checks see only the pairs that are covers.
    """
    problems = []
    labels, below = X.labels, X.covers_below()
    match_at_lower: dict[int, int] = {}
    for lo, hi in m.pairs:
        if not (hi in X and lo in below[hi]):
            problems.append(f"pair ({lo},{hi}) is not a cover relation")
            continue
        match_at_lower[lo] = hi
        if labels[lo] != labels[hi]:
            problems.append(
                f"pair ({lo},{hi}) joins labels {vertices(labels[lo])} != {vertices(labels[hi])}"
            )
    if len(m.matched_ids) != 2 * len(m.pairs):  # some face lies in two pairs
        use = Counter(fid for pair in m.pairs for fid in pair)
        for fid, k in sorted(use.items()):
            if k > 1:
                problems.append(f"face {fid} appears in {k} pairs")
    step = _pair_successors(match_at_lower, below)
    # its keys ascend: they come from m.pairs, which is sorted
    cycle = _find_cycle(match_at_lower, step)
    if cycle is not None:
        problems.append("directed cycle through lower faces " + "->".join(map(str, cycle)))
    if full_graph:
        matched = set(m.pairs)  # only covers are looked up in it
        adj: list[list[int]] = [[] for _ in below]
        for hi in X.ids():
            for lo in below[hi]:
                if (lo, hi) in matched:
                    adj[lo].append(hi)
                else:
                    adj[hi].append(lo)
        cycle = _find_cycle(X.ids(), adj.__getitem__)
        if cycle is not None:
            problems.append("oriented Hasse cycle " + "->".join(map(str, cycle)))
    return MatchingReport(not problems, tuple(problems))


def critical_cells(m: MorseMatching, X: LabeledComplex) -> dict[int, int]:
    """Unmatched face counts per dimension, the empty face (dim -1) included."""
    matched = m.matched_ids
    return {d: sum(g not in matched for g in X.kept.get(d, ())) for d in range(-1, X.dim + 1)}


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num}/{den} is not an integer")
    return q


def count_formulas(n: int) -> dict[str, int]:
    """Closed forms behind the matching: proper pairs, triangles, critical edges."""
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    return {
        "proper_d2": _exact(n * (n - 3) * (n - 4), 2),
        "inscribed_triangles": _exact(n * (n - 4) * (n - 5), 6),
        "critical_edges": _exact(comb(n, 3) * 2 * (n - 4), n - 1),
    }


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


def greedy_extend(m: MorseMatching, X: LabeledComplex) -> MorseMatching:
    """Add equal-label cover pairs in canonical order while staying acyclic.

    The candidates are ``X.equal_label_covers()``, in its sorted order.
    One pass suffices: matched faces never free up, and a rejected pair's
    cycle only gains edges later, so no skipped candidate becomes addable.
    m must be acyclic (d2_matching(X) and the empty matching are): then any
    cycle a new pair closes passes through its lower face, so the cycle
    search after each addition starts from that face alone.
    """
    match_at_lower = dict(m.pairs)
    step = _pair_successors(match_at_lower, X.covers_below())
    # a face is matched when it is a key of match_at_lower or one of these
    uppers = {hi for _, hi in m.pairs}
    for lo, hi in X.equal_label_covers():
        if lo in match_at_lower or lo in uppers or hi in match_at_lower or hi in uppers:
            continue
        match_at_lower[lo] = hi
        if _find_cycle([lo], step) is not None:
            del match_at_lower[lo]
            continue
        uppers.add(hi)
    return MorseMatching(tuple(match_at_lower.items()))
