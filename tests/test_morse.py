import pytest

from cycleres.associahedron import build
from cycleres.betti import betti_closed_form
from cycleres.morse import (
    MatchingReport,
    MorseMatching,
    count_formulas,
    critical_cells,
    d2_matching,
    greedy_extend,
    n7_extension_counts,
    validate,
)
from cycleres.polygon import SupportClass, count_by_class


def _pairs_by_diagonals(m, X):
    return {
        X.face(lo).diagonals: X.face(hi).diagonals
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
    lo = X.face_by_diagonals([(1, 3)]).id
    hi = X.face_by_diagonals([(1, 3), (1, 4)]).id
    report = validate(MorseMatching(((lo, hi),)), X)
    assert not report.ok
    assert any("labels" in p for p in report.problems)


def test_validate_rejects_non_cover():
    X = build(6)
    lo = X.face_by_diagonals([(1, 3)]).id
    hi = X.face_by_diagonals([(1, 3), (1, 4), (1, 5)]).id
    report = validate(MorseMatching(((lo, hi),)), X)
    assert not report.ok
    assert any("not a cover" in p for p in report.problems)


def test_validate_rejects_double_use():
    X = build(6)
    lo = X.face_by_diagonals([(1, 3), (4, 6)]).id
    hi1 = X.face_by_diagonals([(1, 3), (3, 6), (4, 6)]).id
    hi2 = X.face_by_diagonals([(1, 3), (1, 4), (4, 6)]).id
    report = validate(MorseMatching(((lo, hi1), (lo, hi2))), X)
    assert not report.ok
    assert any("appears in 2 pairs" in p for p in report.problems)


def test_validate_rejects_directed_cycle():
    # three vertex-edge pairs arranged in a ring; labels are wrong too,
    # but both cycle detectors must fire
    X = build(6)
    fid = lambda ds: X.face_by_diagonals(ds).id
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


def test_matching_normalization_and_json():
    m = MorseMatching(((5, 9), (1, 3), (5, 9)))
    assert m.pairs == ((1, 3), (5, 9))
    assert m.matched_ids == frozenset({1, 3, 5, 9})
    assert len(m) == 2
    assert m.to_json() == [[1, 3], [5, 9]]
    report = MatchingReport(True, ())
    assert report.to_json() == {"ok": True, "problems": []}
