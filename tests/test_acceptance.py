"""End-to-end checks, one test per promised behavior.

Each test prints a single "criterion NN (...): PASS" line when it
succeeds (visible with pytest -s or in captured output on failure).
Stated runtime bounds are asserted literally with wall-clock timing.
"""

import random
import time
from itertools import combinations

from cycleres.associahedron import build, f_formula, restrict
from cycleres.betti import betti_closed_form, betti_table
from cycleres.homology import Field, chain_complex
from cycleres.morse import count_formulas, critical_cells, d2_matching, validate
from cycleres.polygon import all_diagonals, crosses, diagonal, slice_counts
from cycleres.resolution import minimality_witnesses, verify_supports_resolution
from cycleres.tableaux import (
    associahedron_shape,
    conjugate,
    enumerate_syt,
    hook_count,
    involution,
    restricts_to_syzygy,
    syzygy_shape,
)
from oracles import boundary_complex, dense_boundary, n7_extension_counts

BETTI_ROWS = {
    6: (1, 9, 16, 9, 1),
    7: (1, 14, 35, 35, 14, 1),
    8: (1, 20, 64, 90, 64, 20, 1),
    9: (1, 27, 105, 189, 189, 105, 27, 1),
}

F_ROWS = {
    6: (1, 9, 21, 14, 1),
    7: (1, 14, 56, 84, 42, 1),
    8: (1, 20, 120, 300, 330, 132, 1),
    9: (1, 27, 225, 825, 1485, 1287, 429, 1),
}

CRITICAL_EDGES = {6: 16, 7: 35, 8: 64, 9: 105, 10: 160}


def _passed(num: int, name: str) -> None:
    print(f"criterion {num:02d} ({name}): PASS")


def test_criterion_01_betti_tables():
    for n, row in BETTI_ROWS.items():
        start = time.perf_counter()
        assert betti_table(n, "all").row() == row
        assert time.perf_counter() - start < 1.0
    _passed(1, "betti rows n=6..9, exact, under 1 s each")


def test_criterion_02_f_vectors():
    for n, row in F_ROWS.items():
        start = time.perf_counter()
        assert tuple(build(n).f_vector()) == row
        assert tuple([f_formula(n, d) for d in range(n - 2)] + [1]) == row
        assert time.perf_counter() - start < 5.0
    _passed(2, "f-vectors n=6..9 by enumeration and closed form")


def test_criterion_03_three_way_betti_agreement():
    start = time.perf_counter()
    for n in range(5, 13):
        # raises MethodDisagreement if hochster, closed form, recursion split
        row = betti_table(n, "all").row()
        assert row[0] == row[-1] == 1
        for d in range(1, n - 2):
            assert row[d] == betti_closed_form(n, d)
    assert time.perf_counter() - start < 30.0
    _passed(3, "hochster = closed form = recursion for n=5..12")


def test_criterion_04_resolution_verification():
    start = time.perf_counter()
    for n in range(4, 9):
        for field in (Field.GF2, Field.RATIONAL):
            report = verify_supports_resolution(n, field)
            assert report.checked == 2**n
            assert report.failures == ()
            assert report.cone_mismatches == ()
            assert report.ok
    assert time.perf_counter() - start < 300.0
    _passed(4, "all 2^n restrictions acyclic or empty, both fields, n=4..8")


def test_criterion_05_minimality_witnesses():
    assert minimality_witnesses(build(5)) == []
    X6 = build(6)
    witnesses6 = minimality_witnesses(X6)
    lower = X6.faces[X6.face_id([(1, 3), (4, 6)])]
    upper = X6.faces[X6.face_id([(1, 3), (3, 6), (4, 6)])]
    assert (lower, upper) in witnesses6
    for n in range(6, 10):
        assert minimality_witnesses(build(n))
    _passed(5, "no witnesses at n=5; equal-label pairs found for n=6..9")


def test_criterion_06_morse_matching():
    for n, expected in CRITICAL_EDGES.items():
        start = time.perf_counter()
        X = build(n)
        matching = d2_matching(X)
        report = validate(matching, X)
        assert report.ok, report.problems
        crit = critical_cells(matching, X)
        assert crit[1] == expected
        assert count_formulas(n)["critical_edges"] == expected
        assert betti_closed_form(n, 2) == expected
        assert time.perf_counter() - start < 30.0
    _passed(6, "d2 matching acyclic with critical edges = beta_2, n=6..10")


def test_criterion_07_heptagon_extension_counts():
    counts = n7_extension_counts()
    assert counts["superproper_d2"] == 14
    assert counts["subproper_d3"] == 7
    assert counts["superproper_d3"] == 14
    assert counts["subproper_d4"] == 14
    assert counts["edges_after"] == 35
    assert counts["two_faces_after"] == 35
    assert counts["three_faces_after"] == 14
    _passed(7, "n=7 class counts 14/7/14/14 and post-matching 35/35/14")


def _partitions(total: int, largest: int | None = None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_criterion_08_tableaux_counts():
    for n in range(5, 13):
        for d in range(1, n - 2):
            assert hook_count(associahedron_shape(n, d)) == f_formula(n, d)
            assert hook_count(syzygy_shape(n, d)) == betti_closed_form(n, d)
    for size in range(1, 13):
        for shape in _partitions(size):
            count = hook_count(shape)
            assert len(enumerate_syt(shape)) == count
            assert hook_count(conjugate(shape)) == count
    _passed(8, "hook counts = f(n,d) and beta; enumeration and conjugation agree")


def test_criterion_09_involution():
    for n in range(4, 10):
        start = time.perf_counter()
        for d in range(1, n - 2):
            fixed = 0
            for t in enumerate_syt(associahedron_shape(n, d)):
                s = involution(t)
                assert involution(s) == t
                if s == t:
                    fixed += 1
                    assert restricts_to_syzygy(t)
                else:
                    assert abs(s.size - t.size) == 1
                    assert not restricts_to_syzygy(t)
            assert fixed == betti_closed_form(n, d)
        if n == 9:
            assert time.perf_counter() - start < 120.0
    _passed(9, "involution squares to id, fixed points = beta, n<=9")


def test_criterion_10_catalan_refinements():
    assert slice_counts(6, 3)[0] == {3: 2, 4: 12}
    assert slice_counts(7, 4)[0] == {4: 14, 5: 28}
    assert slice_counts(8, 5)[0] == {4: 4, 5: 64, 6: 64}
    assert sum(slice_counts(6, 3)[0].values()) == 14
    assert sum(slice_counts(7, 4)[0].values()) == 42
    assert sum(slice_counts(8, 5)[0].values()) == 132
    _passed(10, "support splits 14=2+12, 42=14+28, 132=4+64+64")


def _boundary_squares_to_zero(cc, field) -> None:
    for k in cc.bases:
        a = dense_boundary(cc, k, field)
        b = dense_boundary(cc, k + 1, field)
        if not a or not b or not b[0]:
            continue
        for j in range(len(b[0])):
            col = [b[i][j] for i in range(len(b))]
            for i in range(len(a)):
                total = sum(a[i][m] * col[m] for m in range(len(col)))
                if field is Field.GF2:
                    total %= 2
                assert total == 0


def test_criterion_11_property_suites():
    rng = random.Random(20260825)

    # boundary of boundary vanishes, checked by dense composition
    for n in range(4, 8):
        for field in (Field.GF2, Field.RATIONAL):
            _boundary_squares_to_zero(chain_complex(build(n)), field)

    # a view, a restriction or the boundary sphere, is closed in its face
    # list's complex: the boundary of each kept cell lies in the kept cells,
    # so ranking at kept ids is sound
    views = [boundary_complex(build(n)) for n in range(4, 8)]
    for _ in range(20):
        n = rng.randrange(5, 9)
        sigma = sum(1 << (v - 1) for v in range(1, n + 1) if rng.random() < 0.6)
        views.append(restrict(build(n), sigma))
    for R in views:
        cc = chain_complex(R)
        for k, ids in R.kept.items():
            if k < 0:
                continue
            lower = set(R.kept.get(k - 1, ()))
            for g in ids:
                assert set(cc.table[g]) <= lower, (R.n, R.f_vector(), k, g)

    # cover pairs only ever grow the vertex label
    for n in range(4, 10):
        X = build(n)
        for lo, hi in X.covers:
            f, g = X.faces[lo], X.faces[hi]
            assert g.dim == f.dim + 1
            assert f.label & ~g.label == 0

    # the Betti row reads the same in both directions
    for n in range(4, 13):
        row = betti_table(n, "closed").row()
        assert row == row[::-1]
        assert len(row) == n - 1

    # crossing is symmetric, irreflexive, and rotation-invariant
    for n in range(4, 10):
        for d1, d2 in combinations(all_diagonals(n), 2):
            assert crosses(d1, d2) == crosses(d2, d1)
            assert not crosses(d1, d1)
    for _ in range(500):
        n = rng.randrange(5, 40)
        d1, d2 = rng.sample(all_diagonals(n), 2)
        k = rng.randrange(n)
        r1 = diagonal((d1.a - 1 + k) % n + 1, (d1.b - 1 + k) % n + 1, n)
        r2 = diagonal((d2.a - 1 + k) % n + 1, (d2.b - 1 + k) % n + 1, n)
        assert crosses(d1, d2) == crosses(r1, r2)
    _passed(11, "dd=0, label monotonicity, palindromy, crossing symmetry")
