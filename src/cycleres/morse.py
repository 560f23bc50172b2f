"""Label-preserving Morse matching on the face poset of the associahedron.

The dimension-2 rule matches every superproper 2-diagonal face upward and
every inscribed triangle downward; both moves keep the monomial label fixed,
so the matching is algebraic.  Validation re-checks the cover relations, the
label equalities, and acyclicity of the oriented Hasse diagram; unmatched
faces are the critical cells.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable, Iterable

from .associahedron import LabeledComplex, f_formula
from .polygon import Diagonal, SupportClass, count_by_class


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

    def to_json(self) -> dict:
        return {"ok": self.ok, "problems": list(self.problems)}


def _superproper_partner(d1: Diagonal, d2: Diagonal) -> Diagonal:
    """Third diagonal completing a disjoint pair to its matched 3-face.

    For {ij, kl} with i < k the added diagonal is (j, l) when the pair is
    side by side (j < k) and (i, l) when it is nested (k < l < j); either
    way it shares one endpoint with each diagonal, so nothing crosses.
    """
    (i, j), (k, l) = d1, d2
    return Diagonal(j, l) if j < k else Diagonal(i, l)


def _triangle_partner(face_label: frozenset[int]) -> tuple[Diagonal, Diagonal]:
    """The two short sides {ij, jk} kept when matching a triangle downward."""
    i, j, k = sorted(face_label)
    return Diagonal(i, j), Diagonal(j, k)


def d2_matching(X: LabeledComplex) -> MorseMatching:
    """The explicit low-dimensional matching: superproper pairs up, triangles down.

    Empty below n = 6, where neither face type exists.
    """
    pairs = []
    for face in X.faces_of_dim(1):
        if face.is_interior or len(face.label) != 4:
            continue
        d1, d2 = face.diagonals
        extra = _superproper_partner(d1, d2)
        upper = X.face_by_diagonals(sorted((d1, d2, extra)))
        if upper is None:
            raise RuntimeError(f"partner of {face} is not a face")
        pairs.append((face.id, upper.id))
    for face in X.faces_of_dim(2):
        if face.is_interior or len(face.label) != 3:
            continue
        lower = X.face_by_diagonals(sorted(_triangle_partner(face.label)))
        if lower is None:
            raise RuntimeError(f"partner of {face} is not a face")
        pairs.append((lower.id, face.id))
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


def _pair_successors(match_at_lower: dict[int, int], below: dict[int, list[int]]):
    """Pair-graph step: up through a lower face's match, down to another matched lower."""

    def step(lower: int):
        upper = match_at_lower[lower]
        return (b for b in below.get(upper, ()) if b != lower and b in match_at_lower)

    return step


def validate(m: MorseMatching, X: LabeledComplex, *, full_graph: bool = False) -> MatchingReport:
    """Check covers, single use, label equality, and acyclicity.

    With full_graph=True the acyclicity verdict is re-derived from the whole
    oriented Hasse diagram instead of just the matched-pair graph.
    """
    problems = []
    cover_set = set(X.covers)
    for lo, hi in m.pairs:
        if (lo, hi) not in cover_set:
            problems.append(f"pair ({lo},{hi}) is not a cover relation")
        elif X.face(lo).label != X.face(hi).label:
            problems.append(
                f"pair ({lo},{hi}) joins labels {sorted(X.face(lo).label)}"
                f" != {sorted(X.face(hi).label)}"
            )
    use = Counter(fid for pair in m.pairs for fid in pair)
    for fid, k in sorted(use.items()):
        if k > 1:
            problems.append(f"face {fid} appears in {k} pairs")
    match_at_lower = dict(m.pairs)
    step = _pair_successors(match_at_lower, X.covers_below())
    cycle = _find_cycle(sorted(match_at_lower), step)
    if cycle is not None:
        problems.append("directed cycle through lower faces " + "->".join(map(str, cycle)))
    if full_graph:
        matched = set(m.pairs)
        adj: dict[int, list[int]] = defaultdict(list)
        for lo, hi in X.covers:
            if (lo, hi) in matched:
                adj[lo].append(hi)
            else:
                adj[hi].append(lo)
        cycle = _find_cycle((f.id for f in X.faces), lambda v: adj.get(v, ()))
        if cycle is not None:
            problems.append("oriented Hasse cycle " + "->".join(map(str, cycle)))
    return MatchingReport(not problems, tuple(problems))


def critical_cells(m: MorseMatching, X: LabeledComplex) -> dict[int, int]:
    """Unmatched face counts per dimension, the empty face (dim -1) included."""
    counts = {dim: 0 for dim in range(-1, X.dim + 1)}
    matched = m.matched_ids
    for face in X.faces:
        if face.id not in matched:
            counts[face.dim] += 1
    return counts


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

    One pass suffices: matched faces never free up, and a rejected pair's
    cycle only gains edges later, so no skipped candidate becomes addable.
    m must be acyclic (d2_matching(X) and the empty matching are): then any
    cycle a new pair closes passes through its lower face, so the cycle
    search after each addition starts from that face alone.
    """
    match_at_lower = dict(m.pairs)
    step = _pair_successors(match_at_lower, X.covers_below())
    matched = set(m.matched_ids)
    for lo, hi in X.covers:
        if lo in matched or hi in matched:
            continue
        if X.face(lo).label != X.face(hi).label:
            continue
        match_at_lower[lo] = hi
        if _find_cycle([lo], step) is not None:
            del match_at_lower[lo]
            continue
        matched.add(lo)
        matched.add(hi)
    return MorseMatching(tuple(match_at_lower.items()))
