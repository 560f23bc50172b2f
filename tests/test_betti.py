import pytest

from cycleres.associahedron import f_formula
from cycleres.betti import (
    BettiTable,
    MethodDisagreement,
    betti_closed_form,
    betti_recursion,
    betti_table,
    check_hochster_with_homology,
    compare_methods,
    hochster_betti,
)

ROWS = {
    6: (1, 9, 16, 9, 1),
    7: (1, 14, 35, 35, 14, 1),
    8: (1, 20, 64, 90, 64, 20, 1),
    9: (1, 27, 105, 189, 189, 105, 27, 1),
}


def test_known_rows_by_every_method():
    for n, row in ROWS.items():
        for method in ("hochster", "closed", "recursion", "all"):
            assert betti_table(n, method).row() == row


def test_pentagon_entries():
    t = hochster_betti(5)
    assert t.value(1, 2) == 5
    assert t.value(2, 3) == 5
    assert t.value(0, 0) == 1
    assert t.value(3, 5) == 1
    assert t.value(1, 3) == 0


def test_square_table():
    t = betti_table(4, "all")
    assert dict(t.entries) == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_almost_linear_positions():
    for n in range(4, 11):
        betti_table(n, "hochster").validate()


def test_closed_form_values():
    assert betti_closed_form(6, 2) == 16
    assert betti_closed_form(8, 3) == 90
    assert betti_closed_form(9, 4) == 189
    for n in range(4, 13):
        assert betti_closed_form(n, 1) == n * (n - 3) // 2
        assert betti_closed_form(n, n - 3) == n * (n - 3) // 2


def test_closed_form_range():
    with pytest.raises(ValueError):
        betti_closed_form(6, 0)
    with pytest.raises(ValueError):
        betti_closed_form(6, 4)


def test_recursion_values():
    assert betti_recursion(7, 2) == 35
    assert betti_recursion(8, 2) == 64
    assert betti_recursion(9, 4) == 189
    # interior case exercising the binomial correction with d < n - 4
    assert betti_recursion(10, 3) == betti_closed_form(10, 3)


def test_recursion_agrees_with_closed_form_widely():
    for n in range(4, 15):
        for d in range(1, n - 2):
            assert betti_recursion(n, d) == betti_closed_form(n, d)


def test_three_way_agreement_over_test_range():
    for n in range(5, 13):
        tables = compare_methods(n)
        rows = {name: t.row() for name, t in tables.items()}
        assert len(set(rows.values())) == 1, rows


def test_palindromy():
    for n in range(4, 13):
        row = betti_table(n, "closed").row()
        assert row == row[::-1]


def test_rank_bound_against_face_counts():
    # beta_d is at most the number of (d-1)-dimensional faces, which are
    # the d-diagonal dissections; equality holds at d = 1 (the vertices)
    for n in range(4, 11):
        for d in range(1, n - 2):
            b = betti_closed_form(n, d)
            assert b <= f_formula(n, d)
        assert betti_closed_form(n, 1) == f_formula(n, 1) == n * (n - 3) // 2


def test_hochster_limit():
    with pytest.raises(ValueError):
        hochster_betti(17)
    with pytest.raises(ValueError):
        hochster_betti(3)


def test_hochster_against_generic_homology():
    check_hochster_with_homology(5, "gf2")
    check_hochster_with_homology(6, "gf2")
    check_hochster_with_homology(6, "rational")
    check_hochster_with_homology(7, "gf2")


def test_method_disagreement_reporting():
    t = betti_table(6, "all")
    wrong = BettiTable(6, {**t.entries, (2, 3): t.value(2, 3) + 1})
    assert wrong != t
    with pytest.raises(MethodDisagreement):
        _raise_if_differs(t, wrong)


def _raise_if_differs(a: BettiTable, b: BettiTable) -> None:
    cells = {}
    for key in set(a.entries) | set(b.entries):
        if a.value(*key) != b.value(*key):
            cells[key] = {"a": a.value(*key), "b": b.value(*key)}
    if cells:
        raise MethodDisagreement(a.n, cells)


def test_row_totals_and_json():
    t = betti_table(6, "closed")
    assert t.total(2) == 16
    data = t.to_json()
    assert data["row"] == [1, 9, 16, 9, 1]
    assert {"d": 4, "j": 6, "value": 1} in data["entries"]
