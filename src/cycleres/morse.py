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
from math import comb
from typing import Callable, Iterable

from .associahedron import LabeledComplex, f_formula
from .polygon import Diagonal, SupportClass, count_by_class, vertices


@dataclass(frozen=True)
class MorseMatching:
    """A set of matched cover pairs (lower face id, upper face id).

    Keeps the pair tuples it is given, sorted, and of equal pairs the
    first; a pair that is not a tuple, or a face id that is not an int,
    raises TypeError.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = sorted(self.pairs)  # stable, so each run of equal pairs starts with the first
        for pair in pairs:
            if not isinstance(pair, tuple):
                raise TypeError(f"pair {pair!r} is not a tuple")
            lo, hi = pair
            if type(lo) is not int or type(hi) is not int:
                raise TypeError(f"pair {pair!r} holds a face id that is not an int")
        object.__setattr__(
            self, "pairs", tuple(p for i, p in enumerate(pairs) if not i or p != pairs[i - 1])
        )

    @property
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
    return MorseMatching(pairs)


def _find_cycle(
    roots: Iterable[int],
    successors: Callable[[int], Iterable[int]],
    color: bytearray | dict[int, int],
) -> list[int] | None:
    """A directed cycle reachable from roots, as a closed path of vertices, or None.

    Iterative three-colour DFS.  The search colours vertices in the store
    its caller passes: ``color[v]`` is 0 for a vertex not yet reached, as
    in a zeroed bytearray indexed by face id or a dict that reads 0 for a
    missing key, and the search sets every entry it wrote back to 0, so
    one store serves many searches.  Vertices are coloured only when
    reached, so a search costs what it explores, not the size of the
    whole graph.
    """
    GRAY, BLACK = 1, 2
    reached: list[int] = []
    try:
        for root in roots:
            if color[root]:
                continue
            color[root] = GRAY
            reached.append(root)
            path = [root]
            iters = [iter(successors(root))]
            while iters:
                for b in iters[-1]:
                    c = color[b]
                    if c == GRAY:
                        return path[path.index(b):] + [b]
                    if not c:
                        color[b] = GRAY
                        reached.append(b)
                        path.append(b)
                        iters.append(iter(successors(b)))
                        break
                else:
                    color[path.pop()] = BLACK
                    iters.pop()
        return None
    finally:
        for v in reached:
            color[v] = 0


def _pair_successors(
    match_at_lower: list[int | None], below: list[tuple[int, ...]], labels: list[int] | None = None
):
    """Pair-graph step: up through a lower face's match, down to another matched lower.

    ``match_at_lower[g]`` is the upper face matched to g, None when g is
    no matched lower face.  With ``labels``, the step down follows only
    the faces with the upper face's label: a face's facets carry labels
    inside its own, so along a path of label-preserving pairs the labels
    never grow, and a path that leaves a label never returns to it.
    """
    if labels is None:

        def step(lower: int):
            upper = match_at_lower[lower]
            return (b for b in below[upper] if b != lower and match_at_lower[b] is not None)

    else:

        def step(lower: int):
            upper = match_at_lower[lower]
            label = labels[upper]
            return (
                b
                for b in below[upper]
                if b != lower and labels[b] == label and match_at_lower[b] is not None
            )

    return step


def _repeats(pairs: Iterable[tuple[int, int]], size: int) -> bool:
    """Whether some face id lies in two of the pairs; ids 0..size - 1 are marked in a bytearray."""
    seen = bytearray(size)
    foreign: set[int] = set()
    for pair in pairs:
        for fid in pair:
            if 0 <= fid < size:
                if seen[fid]:
                    return True
                seen[fid] = 1
            elif fid in foreign:
                return True
            else:
                foreign.add(fid)
    return False


def validate(m: MorseMatching, X: LabeledComplex, *, full_graph: bool = False) -> MatchingReport:
    """Check covers, single use, label equality, and acyclicity.

    With full_graph=True the acyclicity verdict is re-derived from the whole
    oriented Hasse diagram of X instead of just the matched-pair graph.  A
    pair whose upper id X does not keep is reported as not a cover; the
    label and acyclicity checks see only the pairs that are covers, and the
    single-use check sees every pair.
    """
    problems = []
    labels, below = X.labels, X.covers_below()
    match_at_lower: list[int | None] = [None] * len(labels)
    lowers = []  # ascending, as m.pairs is sorted
    for lo, hi in m.pairs:
        if not (hi in X and lo in below[hi]):
            problems.append(f"pair ({lo},{hi}) is not a cover relation")
            continue
        match_at_lower[lo] = hi
        lowers.append(lo)
        if labels[lo] != labels[hi]:
            problems.append(
                f"pair ({lo},{hi}) joins labels {vertices(labels[lo])} != {vertices(labels[hi])}"
            )
    if _repeats(m.pairs, len(labels)):
        use = Counter(fid for pair in m.pairs for fid in pair)
        for fid, k in sorted(use.items()):
            if k > 1:
                problems.append(f"face {fid} appears in {k} pairs")
    cycle = _find_cycle(lowers, _pair_successors(match_at_lower, below), bytearray(len(labels)))
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
        cycle = _find_cycle(X.ids(), adj.__getitem__, bytearray(len(below)))
        if cycle is not None:
            problems.append("oriented Hasse cycle " + "->".join(map(str, cycle)))
    return MatchingReport(not problems, tuple(problems))


def critical_cells(m: MorseMatching, X: LabeledComplex) -> dict[int, int]:
    """Unmatched face counts per dimension, the empty face (dim -1) included.

    Matched faces are marked in a bytearray indexed by face id.
    """
    size = len(X.labels)
    matched = bytearray(size)
    for pair in m.pairs:
        for fid in pair:
            if 0 <= fid < size:
                matched[fid] = 1
    counts = {}
    for d in range(-1, X.dim + 1):
        ids = X.kept.get(d, ())
        counts[d] = len(ids) - sum(map(matched.__getitem__, ids))
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

    The candidates are ``X.equal_label_covers()``, in its sorted order,
    with the live array of matched faces as its skip mask, so a block's
    pairs through a face matched before the block is read are never
    collected; the ones through a face matched since are passed over here.
    One pass suffices: matched faces never free up, and a rejected pair's
    cycle only gains edges later, so no skipped candidate becomes addable.
    m must be an acyclic matching of X whose pairs keep their labels
    (d2_matching(X) and the empty matching are); a pair that joins two
    labels, holds an id outside X's face list or shares a face with
    another pair raises ValueError.  Then
    any cycle a new pair closes passes through its lower face and keeps
    that face's label throughout, so the cycle search after each addition
    starts from that face alone and follows only faces with its label.  It
    is skipped only when no step of the pair graph enters that face: it
    lies below no other matched upper face with its label, and a cycle
    through it needs such a step.  Otherwise the search takes the first
    step itself, and stops at its root when no step leaves it.  The
    matched faces, the faces a step enters and the colours the searches
    share are held in per-id arrays, freed before the result is made.
    """
    labels, below = X.labels, X.covers_below()
    size = len(labels)
    match_at_lower: list[int | None] = [None] * size
    matched = bytearray(size)
    # entered[g]: g lies below the upper face of a matched pair, with its
    # label, and is not its lower face, so a step of the pair graph may reach g
    entered = bytearray(size)

    def match(lo: int, hi: int) -> None:
        match_at_lower[lo] = hi
        matched[lo] = matched[hi] = 1
        label = labels[hi]
        for b in below[hi]:
            if b != lo and labels[b] == label:
                entered[b] = 1

    for lo, hi in m.pairs:
        if not (0 <= lo < size and 0 <= hi < size and labels[lo] == labels[hi]):
            raise ValueError(
                f"pair ({lo},{hi}) does not keep a label of X: greedy_extend"
                " needs a label-preserving matching"
            )
        if matched[lo] or matched[hi]:
            raise ValueError(f"pair ({lo},{hi}) shares a face with another pair of the matching")
        match(lo, hi)
    step = _pair_successors(match_at_lower, below, labels)
    color = bytearray(size)
    pairs = list(m.pairs)
    for pair in X.equal_label_covers(skip=matched):
        lo, hi = pair
        if matched[lo] or matched[hi]:  # marked since its block was read
            continue
        if entered[lo]:
            match_at_lower[lo] = hi
            if _find_cycle((lo,), step, color) is not None:
                match_at_lower[lo] = None
                continue
        match(lo, hi)
        pairs.append(pair)
    del match_at_lower, matched, entered, step, color, match
    return MorseMatching(pairs)
