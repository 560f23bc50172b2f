from collections import defaultdict

import pytest

from cycleres.associahedron import boundary_complex, build, restrict
from cycleres.betti import betti_closed_form
from cycleres.morse import (
    MorseMatching,
    count_formulas,
    critical_cells,
    d2_matching,
    _find_cycle,
    _pair_successors,
    greedy_extend,
    n7_extension_counts,
    validate,
)
from cycleres.polygon import SupportClass, count_by_class


def _pairs_by_diagonals(m, X):
    return {
        X.faces[lo].diagonals: X.faces[hi].diagonals
        for lo, hi in m.pairs
    }


def test_d2_matching_hexagon_exact():
    X = build(6)
    m = d2_matching(X)
    got = {
        tuple(str(d) for d in lo): tuple(str(d) for d in hi)
        for lo, hi in _pairs_by_diagonals(m, X).items()
    }
    assert got == {
        # superproper pairs matched upward
        ("1-3", "4-6"): ("1-3", "3-6", "4-6"),
        ("1-5", "2-4"): ("1-4", "1-5", "2-4"),
        ("2-6", "3-5"): ("2-5", "2-6", "3-5"),
        # inscribed triangles matched downward onto their short sides
        ("1-3", "3-5"): ("1-3", "1-5", "3-5"),
        ("2-4", "4-6"): ("2-4", "2-6", "4-6"),
    }


def test_d2_matching_empty_below_hexagon():
    for n in (4, 5):
        assert d2_matching(build(n)).pairs == ()


def test_d2_matching_validates():
    for n in range(6, 10):
        X = build(n)
        report = validate(d2_matching(X), X)
        assert report.ok, report.problems


def test_full_graph_oracle_agrees():
    for n in (6, 7):
        X = build(n)
        report = validate(d2_matching(X), X, full_graph=True)
        assert report.ok, report.problems


def test_empty_matching_is_valid():
    X = build(6)
    report = validate(MorseMatching(()), X)
    assert report.ok and report.problems == ()


def test_validate_rejects_unequal_labels():
    X = build(6)
    lo = X.face_id([(1, 3)])
    hi = X.face_id([(1, 3), (1, 4)])
    report = validate(MorseMatching(((lo, hi),)), X)
    assert not report.ok
    assert any("labels" in p for p in report.problems)


def test_validate_rejects_non_cover():
    X = build(6)
    lo = X.face_id([(1, 3)])
    hi = X.face_id([(1, 3), (1, 4), (1, 5)])
    report = validate(MorseMatching(((lo, hi),)), X)
    assert not report.ok
    assert any("not a cover" in p for p in report.problems)


def test_validate_reports_foreign_ids_as_non_covers():
    X = build(6)
    m = MorseMatching(((0, len(X)), (3, -1)))
    expected = (
        f"pair (0,{len(X)}) is not a cover relation",
        "pair (3,-1) is not a cover relation",
    )
    assert validate(m, X).problems == expected
    assert validate(m, X, full_graph=True).problems == expected
    # id -1 must not stand for the interior cell, whose row lists the triangulations
    t = X.kept[X.n - 4][0]
    assert validate(MorseMatching(((t, -1),)), X).problems == (
        f"pair ({t},-1) is not a cover relation",
    )


def test_validate_reports_a_pair_outside_a_view_as_non_cover():
    X = build(7)
    R = restrict(X, 0b0101111)  # {1, 2, 3, 4, 6}
    outside = next(p for p in X.equal_label_covers() if p[1] not in R)
    m = MorseMatching((outside,))
    assert validate(m, X).ok
    expected = (f"pair ({outside[0]},{outside[1]}) is not a cover relation",)
    assert validate(m, R).problems == expected
    assert validate(m, R, full_graph=True).problems == expected
    # the interior cell covers every triangulation in A_n, but is no face of its boundary
    B, top = boundary_complex(X), len(X) - 1
    t = X.kept[X.n - 4][0]
    assert validate(MorseMatching(((t, top),)), B).problems == (
        f"pair ({t},{top}) is not a cover relation",
    )


@pytest.mark.parametrize("n", [6, 7, 8])
def test_matching_on_a_view_uses_the_face_lists_ids(n):
    X = build(n)
    m = d2_matching(X)
    for mask in range(1 << n):
        R = restrict(X, mask)
        mR = d2_matching(R)
        # the matching's moves keep labels, so R keeps exactly the pairs whose upper face it keeps
        assert mR.pairs == tuple(p for p in m.pairs if p[1] in R), mask
        assert validate(mR, R, full_graph=True).ok
        counts = {d: len(R.kept.get(d, ())) for d in range(-1, R.dim + 1)}
        for g in mR.matched_ids:
            counts[X.faces[g].dim] -= 1
        assert critical_cells(mR, R) == counts


def test_validate_rejects_double_use():
    X = build(6)
    lo = X.face_id([(1, 3), (4, 6)])
    hi1 = X.face_id([(1, 3), (3, 6), (4, 6)])
    hi2 = X.face_id([(1, 3), (1, 4), (4, 6)])
    report = validate(MorseMatching(((lo, hi1), (lo, hi2))), X)
    assert not report.ok
    assert any("appears in 2 pairs" in p for p in report.problems)



def test_validate_reports_each_repeated_face_once_in_id_order():
    X = build(6)
    fid = X.face_id
    vertex = fid([(1, 3)])
    lo = fid([(1, 3), (4, 6)])
    hi1 = fid([(1, 3), (3, 6), (4, 6)])
    hi2 = fid([(1, 3), (1, 4), (4, 6)])
    top = len(X) - 1
    # lo lies in three pairs, hi1 in two
    m = MorseMatching(((lo, hi1), (lo, hi2), (vertex, lo), (hi1, top)))
    assert (vertex, lo, hi1, hi2, top) == (1, 14, 35, 32, 45)
    expected = (
        "pair (1,14) joins labels [1, 3] != [1, 3, 4, 6]",
        "pair (35,45) joins labels [1, 3, 4, 6] != [1, 2, 3, 4, 5, 6]",
        "face 14 appears in 3 pairs",
        "face 35 appears in 2 pairs",
    )
    assert validate(m, X).problems == expected
    assert validate(m, X, full_graph=True).problems == (
        *expected, "oriented Hasse cycle 1->14->32->10->1"
    )

def test_validate_reports_a_face_repeated_through_a_non_cover_pair():
    X = build(6)
    lo = X.face_id([(1, 3), (4, 6)])
    hi = X.face_id([(1, 3), (3, 6), (4, 6)])
    top = len(X) - 1
    m = MorseMatching(((lo, hi), (lo, top), (3, -1), (4, -1)))
    assert validate(m, X).problems == (
        "pair (3,-1) is not a cover relation",
        "pair (4,-1) is not a cover relation",
        f"pair ({lo},{top}) is not a cover relation",
        "face -1 appears in 2 pairs",
        f"face {lo} appears in 2 pairs",
    )


def test_validate_rejects_directed_cycle():
    # three vertex-edge pairs arranged in a ring; labels are wrong too,
    # but both cycle detectors must fire
    X = build(6)
    fid = X.face_id
    bad = MorseMatching((
        (fid([(1, 3)]), fid([(1, 3), (3, 5)])),
        (fid([(3, 5)]), fid([(1, 5), (3, 5)])),
        (fid([(1, 5)]), fid([(1, 3), (1, 5)])),
    ))
    report = validate(bad, X, full_graph=True)
    assert not report.ok
    assert any("directed cycle" in p for p in report.problems)
    assert any("oriented Hasse cycle" in p for p in report.problems)


def test_critical_cells_hexagon():
    X = build(6)
    assert critical_cells(d2_matching(X), X) == {-1: 1, 0: 9, 1: 16, 2: 9, 3: 1}


def test_critical_edges_match_beta2():
    for n in range(6, 10):
        X = build(n)
        crit = critical_cells(d2_matching(X), X)
        assert crit[1] == betti_closed_form(n, 2)
        assert crit[0] == n * (n - 3) // 2  # vertices are never matched


def test_critical_cells_skip_ids_outside_the_face_list():
    X = build(6)
    # -1 must not mark the interior cell, nor len(X) anything
    m = MorseMatching(((0, len(X)), (3, -1)))
    counts = {d: len(X.kept[d]) for d in range(-1, X.dim + 1)}
    counts[-1] -= 1
    counts[0] -= 1
    assert critical_cells(m, X) == counts


def test_count_formulas_frozen():
    assert count_formulas(6) == {
        "proper_d2": 18, "inscribed_triangles": 2, "critical_edges": 16,
    }
    assert count_formulas(7) == {
        "proper_d2": 42, "inscribed_triangles": 7, "critical_edges": 35,
    }
    assert count_formulas(8)["critical_edges"] == 64
    with pytest.raises(ValueError):
        count_formulas(5)


def test_count_formulas_vs_enumeration():
    for n in range(6, 10):
        formulas = count_formulas(n)
        assert formulas["proper_d2"] == count_by_class(n, 2)[SupportClass.PROPER]
        assert formulas["inscribed_triangles"] == count_by_class(n, 3)[SupportClass.SUBPROPER]
        assert formulas["critical_edges"] == formulas["proper_d2"] - formulas["inscribed_triangles"]
        assert formulas["critical_edges"] == betti_closed_form(n, 2)


def test_n7_extension_counts():
    assert n7_extension_counts() == {
        "superproper_d2": 14,
        "subproper_d3": 7,
        "superproper_d3": 14,
        "subproper_d4": 14,
        "edges_after": 35,
        "two_faces_after": 35,
        "three_faces_after": 14,
    }


def test_greedy_extend_hexagon_already_saturated():
    X = build(6)
    m = d2_matching(X)
    assert greedy_extend(m, X) == m


def test_greedy_extend_pentagon_empty():
    X = build(5)
    assert greedy_extend(MorseMatching(()), X) == MorseMatching(())


def test_greedy_extend_reaches_betti_vector():
    # not guaranteed a priori; observed for the canonical order, and validate
    # certifies the matching is a genuine acyclic algebraic matching
    for n in range(6, 11):
        X = build(n)
        m = d2_matching(X)
        extended = greedy_extend(m, X)
        assert set(m.pairs) <= set(extended.pairs)
        report = validate(extended, X, full_graph=n <= 8)
        assert report.ok, report.problems
        beta = [1] + [betti_closed_form(n, d) for d in range(1, n - 2)] + [1]
        assert list(critical_cells(extended, X).values()) == beta


def _greedy_extend_unfiltered(m, X):
    """greedy_extend with a cycle search that follows every matched lower face."""
    below = X.covers_below()
    match_at_lower = dict(m.pairs)
    uppers = {hi for _, hi in m.pairs}

    def step(lower):
        upper = match_at_lower[lower]
        return (b for b in below[upper] if b != lower and b in match_at_lower)

    color = defaultdict(int)
    for lo, hi in X.equal_label_covers():
        if lo in match_at_lower or lo in uppers or hi in match_at_lower or hi in uppers:
            continue
        match_at_lower[lo] = hi
        if _find_cycle([lo], step, color) is not None:
            del match_at_lower[lo]
        else:
            uppers.add(hi)
    return MorseMatching(tuple(match_at_lower.items()))


def _greedy_extend_streaming_every_cover(m, X):
    """greedy_extend as it was before its stream skipped matched faces.

    It reads every equal-label cover, passes over the pairs with a matched
    face itself, and makes its pairs from ``match_at_lower``.
    """
    labels, below = X.labels, X.covers_below()
    size = len(labels)
    match_at_lower = [None] * size
    matched = bytearray(size)
    entered = bytearray(size)

    def match(lo, hi):
        match_at_lower[lo] = hi
        matched[lo] = matched[hi] = 1
        for b in below[hi]:
            if b != lo and labels[b] == labels[hi]:
                entered[b] = 1

    for lo, hi in m.pairs:
        match(lo, hi)
    step = _pair_successors(match_at_lower, below, labels)
    color = bytearray(size)
    for lo, hi in X.equal_label_covers():
        if matched[lo] or matched[hi]:
            continue
        if entered[lo]:
            match_at_lower[lo] = hi
            if _find_cycle((lo,), step, color) is not None:
                match_at_lower[lo] = None
                continue
        match(lo, hi)
    return MorseMatching([(lo, hi) for lo, hi in enumerate(match_at_lower) if hi is not None])


@pytest.mark.parametrize("n", range(4, 11))
def test_greedy_extend_matches_the_stream_of_every_cover(n):
    X = build(n)
    for m in (d2_matching(X), MorseMatching(())):
        assert greedy_extend(m, X).pairs == _greedy_extend_streaming_every_cover(m, X).pairs


def test_greedy_extend_rejects_a_matching_that_uses_a_face_twice():
    # two label-keeping covers with a face in common; the later one is named
    X = build(6)
    first, *rest = X.equal_label_covers()
    other = next(pair for pair in rest if set(pair) & set(first))
    with pytest.raises(ValueError, match=rf"pair \({other[0]},{other[1]}\) shares a face"):
        greedy_extend(MorseMatching((first, other)), X)


def _label_matchings_with_cycles(X):
    """Per label, its equal-label covers taken greedily: no acyclicity check, no face twice."""
    by_label = defaultdict(list)
    for lo, hi in X.equal_label_covers():
        by_label[X.labels[hi]].append((lo, hi))
    for _, covers in sorted(by_label.items()):
        used, pairs = set(), []
        for lo, hi in covers:
            if lo not in used and hi not in used:
                used.update((lo, hi))
                pairs.append((lo, hi))
        yield MorseMatching(pairs)


@pytest.mark.parametrize("n", range(4, 9))
def test_label_keeping_search_gives_the_unfiltered_verdict(n):
    X = build(n)
    labels, below = X.labels, X.covers_below()
    cyclic = 0
    for m in (*_label_matchings_with_cycles(X), greedy_extend(d2_matching(X), X)):
        match_at_lower = [None] * len(labels)
        for lo, hi in m.pairs:
            match_at_lower[lo] = hi
        lowers = [lo for lo, _ in m.pairs]
        unfiltered = _find_cycle(
            lowers, _pair_successors(match_at_lower, below), bytearray(len(labels))
        )
        kept = _find_cycle(
            lowers, _pair_successors(match_at_lower, below, labels), bytearray(len(labels))
        )
        assert (kept is None) == (unfiltered is None)
        if kept is not None:
            assert len({labels[g] for g in kept}) == 1
        # the pairs are label-keeping covers, each face used once, so only
        # validate's acyclicity check can fail
        assert validate(m, X).ok == (unfiltered is None)
        cyclic += unfiltered is not None
    # n = 8 is the first n at which a label's covers, taken without the check, close a cycle
    assert bool(cyclic) == (n == 8)


def test_find_cycle_leaves_its_colour_array_clear():
    # 0 -> 1 -> 2 -> 0, and 2 -> 3, a sink
    successors = [[1], [2], [3, 0], []].__getitem__
    color = bytearray(4)
    assert _find_cycle([3], successors, color) is None
    assert not any(color)
    assert _find_cycle([3, 0], successors, color) == [0, 1, 2, 0]
    assert not any(color)
    assert _find_cycle([1], successors, color) == [1, 2, 0, 1]
    assert not any(color)


def test_find_cycle_colours_in_the_mapping_it_is_given():
    # 0 -> 1 -> 2 -> 0, and 2 -> 3, a sink; a defaultdict(int) reads 0 for
    # a vertex not yet reached, so it serves as the colour store
    successors = [[1], [2], [3, 0], []].__getitem__
    for roots, cycle in (([3], None), ([3, 0], [0, 1, 2, 0]), ([1], [1, 2, 0, 1])):
        color = defaultdict(int)
        assert _find_cycle(roots, successors, color) == cycle
        assert _find_cycle(roots, successors, bytearray(4)) == cycle
        assert color and not any(color.values())


@pytest.mark.parametrize("n", range(6, 12))
def test_greedy_extend_matches_the_unfiltered_search(n):
    X = build(n)
    for m in (d2_matching(X), MorseMatching(())):
        assert greedy_extend(m, X) == _greedy_extend_unfiltered(m, X)
    if n <= 8:
        B = boundary_complex(X)
        assert greedy_extend(d2_matching(B), B) == _greedy_extend_unfiltered(d2_matching(B), B)


def test_greedy_extend_rejects_a_matching_that_changes_a_label():
    X = build(6)
    lo = X.face_id([(1, 3)])
    hi = X.face_id([(1, 3), (1, 4)])
    with pytest.raises(ValueError, match=rf"pair \({lo},{hi}\) does not keep a label"):
        greedy_extend(MorseMatching(((lo, hi),)), X)
    # an id outside the face list has no label to keep; -1 is not the interior cell
    for pair in ((len(X) - 2, len(X)), (len(X) - 2, -1)):
        with pytest.raises(ValueError, match="label-preserving"):
            greedy_extend(MorseMatching((pair,)), X)


def test_matching_keeps_the_first_of_equal_pairs():
    p, q = (1, 3), (1, 3)
    assert MorseMatching(((5, 9), p, q)).pairs[0] is p
    with pytest.raises(TypeError):
        MorseMatching(([1, 3],))


def test_matching_normalization_and_json():
    m = MorseMatching(((5, 9), (1, 3), (5, 9)))
    assert m.pairs == ((1, 3), (5, 9))
    assert m.matched_ids == frozenset({1, 3, 5, 9})
    assert len(m) == 2
    assert m.to_json() == [[1, 3], [5, 9]]


def test_matching_keeps_the_pair_tuples_it_is_given():
    p = (1, 3)
    assert MorseMatching((p,)).pairs[0] is p


def test_matching_holds_only_its_pairs_after_use():
    X = build(7)
    m = greedy_extend(d2_matching(X), X)
    assert validate(m, X).ok
    critical_cells(m, X)
    assert list(vars(m)) == ["pairs"]
