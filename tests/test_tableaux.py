import hashlib
from itertools import accumulate, combinations_with_replacement, permutations

import pytest

from cycleres.associahedron import f_formula
from cycleres.betti import betti_closed_form
from cycleres.tableaux import (
    Tableau,
    associahedron_shape,
    conjugate,
    enumerate_syt,
    family_params,
    hook_count,
    involution,
    restrict_to_syzygy,
    restricts_to_syzygy,
    syzygy_shape,
)


def test_conjugate():
    assert conjugate((2, 2, 1)) == (3, 2)
    assert conjugate((2, 2, 1, 1)) == (4, 2)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)


def test_syzygy_conjugate_identity():
    for n in range(5, 12):
        for d in range(1, n - 2):
            assert conjugate(syzygy_shape(n, d)) == (n - d - 1, 2) + (1,) * (d - 1)


def test_hook_count_values():
    assert hook_count((1,)) == 1
    assert hook_count((5,)) == 1
    assert hook_count((2, 2, 1)) == 5
    assert hook_count((3, 2, 1)) == 16
    assert hook_count((2, 2)) == 2


def test_hook_count_invariant_under_conjugation():
    for shape in [(3, 2), (4, 2, 1), (5, 5), (3, 3, 1, 1), (6, 2, 1, 1)]:
        assert hook_count(shape) == hook_count(conjugate(shape))


def test_shape_validation():
    with pytest.raises(ValueError):
        hook_count((2, 3))
    with pytest.raises(ValueError):
        hook_count(())
    with pytest.raises(ValueError):
        hook_count((2, 0))


def test_tableau_validation():
    Tableau(((1, 2), (3, 4), (5,)))
    with pytest.raises(ValueError):
        Tableau(((1, 3), (2, 2), (5,)))  # repeated entry
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row not increasing
    with pytest.raises(ValueError):
        Tableau(((1, 4), (2, 3), (5,)))  # column 2 not increasing
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 3)))  # rows not weakly decreasing


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ((), ValueError, "shape must have at least one part"),
        (((1,), ()), ValueError, "shape parts must be positive: (1, 0)"),
        (((1,), (2, 3)), ValueError, "shape parts must be weakly decreasing: (1, 2)"),
        (((1, 2.0),), TypeError, "entries must be ints: ((1, 2.0),)"),
        (((True, 2),), TypeError, "entries must be ints: ((True, 2),)"),
        (((1, 3), (2, 2), (5,)), ValueError, "entries must be exactly 1..5"),
        (((1, 2), (4, 5)), ValueError, "entries must be exactly 1..4"),
        (((2, 1),), ValueError, "row (2, 1) is not strictly increasing"),
        (((1, 2, 3), (5, 4)), ValueError, "row (5, 4) is not strictly increasing"),
        # a row is named before a column
        (((1, 3), (4, 2)), ValueError, "row (4, 2) is not strictly increasing"),
        (((2, 3), (1, 4)), ValueError, "column 0 is not strictly increasing"),
        (((1, 4), (2, 3), (5,)), ValueError, "column 1 is not strictly increasing"),
        (((1, 2, 3), (5, 6), (4,)), ValueError, "column 0 is not strictly increasing"),
    ],
)
def test_tableau_errors_name_the_first_fault(rows, error, message):
    with pytest.raises(error) as info:
        Tableau(rows)
    assert str(info.value) == message


def _involution_reference(t):
    """The involution with (n, d) from family_params, the entries above n outside row
    two listed, and its result made through the checked constructor."""
    n, d = family_params(t.shape)
    first, second, *column = t.rows
    outside = [v for v in range(n + 1, n + d) if v not in second]
    if not outside:
        return t
    i = max(outside)
    if column and column[-1][0] == i:
        return Tableau((first + (i,), second + (n + d,), *column[:-1]))
    assert first[-1] == i and second[-1] == n + d - 1
    return Tableau((first[:-1], second[:-1], *column, (i,)))


def test_involution_matches_the_checked_reference():
    # every associahedron tableau for n <= 10 within the enumeration cap of 14 cells
    for n in range(4, 11):
        for d in range(1, min(n - 2, 16 - n)):
            for t in enumerate_syt(associahedron_shape(n, d)):
                s, expected = involution(t), _involution_reference(t)
                assert s == expected and (s is t) == (expected is t), t


@pytest.mark.parametrize(
    "rows, message",
    [
        # grow: 8 sits at the bottom of column one, and row one already ends in 8
        (((1, 2, 8), (3, 4, 5), (6,), (8,)), "entry 8 cannot end row one after 8"),
        # shrink: 8 ends row one, and the bottom of column one is 10
        (((1, 2, 6, 8), (3, 4, 5, 9), (10,)), "entry 8 cannot end column one below 10"),
        # shrink with no column below row two: 7 would go under row two's 8
        (((1, 2, 3, 7), (8, 4, 5, 8)), "entry 7 cannot end column one below 8"),
    ],
)
def test_involution_checks_the_cell_it_moves(rows, message):
    # inputs made without the check, each breaking only the comparison at i's new cell
    with pytest.raises(RuntimeError) as info:
        involution(Tableau._standard(rows))
    assert str(info.value) == message


def test_involution_names_a_shape_outside_the_family_as_family_params_does():
    for rows in (((1, 2),), ((1,), (2,)), ((1, 2, 3), (4, 5)), ((1, 2), (3, 4), (5, 6))):
        t = Tableau(rows)
        with pytest.raises(ValueError) as want:
            family_params(t.shape)
        with pytest.raises(ValueError) as got:
            involution(t)
        assert str(got.value) == str(want.value)


def test_enumerate_five_tableaux_in_reading_order():
    got = [t.rows for t in enumerate_syt((2, 2, 1))]
    assert got == [
        ((1, 2), (3, 4), (5,)),
        ((1, 2), (3, 5), (4,)),
        ((1, 3), (2, 4), (5,)),
        ((1, 3), (2, 5), (4,)),
        ((1, 4), (2, 5), (3,)),
    ]


@pytest.mark.parametrize("size", range(1, 8))
def test_enumerate_matches_the_permutation_oracle(size):
    # every filling of the shape by a permutation of 1..N that increases
    # along rows and down columns, sorted as tuples of rows
    shapes = [
        p
        for k in range(1, size + 1)
        for p in combinations_with_replacement(range(size, 0, -1), k)
        if sum(p) == size
    ]
    for shape in shapes:
        starts = list(accumulate(shape, initial=0))
        oracle = []
        for perm in permutations(range(1, size + 1)):
            rows = tuple(perm[a:b] for a, b in zip(starts, starts[1:]))
            along = all(x < y for row in rows for x, y in zip(row, row[1:]))
            down = all(x < y for above, row in zip(rows, rows[1:]) for x, y in zip(above, row))
            if along and down:
                oracle.append(rows)
        assert [t.rows for t in enumerate_syt(shape)] == sorted(oracle), shape


@pytest.mark.parametrize("size", range(1, 9))
def test_enumerated_tableaux_pass_the_full_check(size):
    # enumerate_syt makes its tableaux unchecked; the constructor's check accepts each
    shapes = [
        p
        for k in range(1, size + 1)
        for p in combinations_with_replacement(range(size, 0, -1), k)
        if sum(p) == size
    ]
    for shape in shapes:
        for t in enumerate_syt(shape):
            assert type(t) is Tableau and Tableau(t.rows) == t
            assert {*map(type, t.rows)} == {tuple}


def test_enumerate_matches_hook_count_small_shapes():
    shapes = [(1,), (3,), (2, 1), (2, 2), (3, 2, 1), (4, 4), (3, 3, 2), (2, 2, 2, 2), (7, 7)]
    for shape in shapes:
        assert len(enumerate_syt(shape)) == hook_count(shape)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_syt((8, 7))


def test_family_shapes():
    assert associahedron_shape(6, 2) == (3, 3, 1)
    assert associahedron_shape(7, 4) == (5, 5)
    assert syzygy_shape(6, 2) == (3, 2, 1)
    assert syzygy_shape(5, 1) == (2, 2, 1)
    with pytest.raises(ValueError):
        associahedron_shape(6, 4)
    with pytest.raises(ValueError):
        syzygy_shape(4, 1)


def test_family_params_roundtrip():
    for n in range(4, 11):
        for d in range(1, n - 2):
            assert family_params(associahedron_shape(n, d)) == (n, d)
    with pytest.raises(ValueError):
        family_params((3, 2, 1))
    with pytest.raises(ValueError):
        family_params((1, 1, 1))


def test_family_counts_match_dissections_and_betti():
    assert hook_count((2, 2, 1)) == f_formula(5, 1) == 5
    for n in range(4, 13):
        for d in range(1, n - 2):
            assert hook_count(associahedron_shape(n, d)) == f_formula(n, d)
    for n in range(5, 13):
        for d in range(1, n - 2):
            assert hook_count(syzygy_shape(n, d)) == betti_closed_form(n, d)


def test_syzygy_counts_frozen():
    assert hook_count(syzygy_shape(6, 2)) == 16
    assert hook_count(syzygy_shape(5, 1)) == 5
    assert hook_count(syzygy_shape(9, 4)) == 189


def test_restricts_to_syzygy_examples():
    yes = Tableau(((1, 2, 3, 4), (5, 6, 8, 9), (7,)))
    no = Tableau(((1, 2, 3, 4), (5, 6, 7, 8), (9,)))
    assert family_params(yes.shape) == (7, 3)
    assert restricts_to_syzygy(yes)
    assert not restricts_to_syzygy(no)
    restricted = restrict_to_syzygy(yes)
    assert restricted.shape == syzygy_shape(7, 3)
    assert restricted.rows == ((1, 2, 3, 4), (5, 6), (7,))
    with pytest.raises(ValueError):
        restrict_to_syzygy(no)


def test_involution_fixes_restricting_tableaux():
    yes = Tableau(((1, 2, 3, 4), (5, 6, 8, 9), (7,)))
    assert involution(yes) == yes


def test_involution_grows_from_column_bottom():
    # (7, 2) tableau with 8 at the bottom of the first column
    t = Tableau(((1, 2, 3), (4, 5, 6), (7,), (8,)))
    s = involution(t)
    assert s.shape == associahedron_shape(7, 3)
    assert s.rows == ((1, 2, 3, 8), (4, 5, 6, 9), (7,))
    assert involution(s) == t


def test_involution_grows_from_singleton_bottom_row():
    # 9 sits at the bottom of column 1, so the tableau grows to the d=4 family
    t = Tableau(((1, 2, 3, 4), (5, 6, 7, 8), (9,)))
    s = involution(t)
    assert s.shape == associahedron_shape(7, 4)
    assert s.rows == ((1, 2, 3, 4, 9), (5, 6, 7, 8, 10))
    assert involution(s) == t


def test_involution_shrinks_from_row_end():
    # 8 ends row 1 while 9 ends row 2, so 8 drops to a new bottom row
    t = Tableau(((1, 3, 4, 8), (2, 5, 7, 9), (6,)))
    s = involution(t)
    assert s.shape == associahedron_shape(7, 2)
    assert s.rows == ((1, 3, 4), (2, 5, 7), (6,), (8,))
    assert involution(s) == t


def test_involution_d1_always_fixed():
    for n in (5, 6, 7):
        for t in enumerate_syt(associahedron_shape(n, 1)):
            assert involution(t) == t


def test_involution_exhaustive_small():
    for n in (5, 6, 7):
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
                    assert family_params(s.shape)[0] == n
            assert fixed == betti_closed_form(n, d)


def test_involution_fixed_points_are_the_betti_tableaux():
    # the paper's claim itself: deleting the large entries of the fixed
    # tableaux gives every syzygy tableau exactly once
    for n in range(5, 10):
        for d in range(1, n - 2):
            fixed = [t for t in enumerate_syt(associahedron_shape(n, d)) if involution(t) == t]
            restricted = sorted(restrict_to_syzygy(t) for t in fixed)
            assert restricted == enumerate_syt(syzygy_shape(n, d)), (n, d)


def test_involution_full_map_is_pinned():
    # sha256 of the involution on every associahedron tableau for n = 4..9,
    # one line per tableau in enumeration order
    digest = hashlib.sha256()
    for n in range(4, 10):
        for d in range(1, n - 2):
            for t in enumerate_syt(associahedron_shape(n, d)):
                digest.update(f"{n} {d} {t.rows} {involution(t).rows}\n".encode())
    assert digest.hexdigest() == (
        "9cfa9e24f0738a5c3eca61a055622826c1915f1f84806b588f47db7c35209a27"
    )


def test_tableau_json_and_str():
    t = Tableau(((1, 2), (3, 4), (5,)))
    assert t.to_json() == [[1, 2], [3, 4], [5]]
    assert str(t) == "12/34/5"
    # from 10 cells on, a comma keeps two-digit entries apart
    assert str(Tableau((tuple(range(1, 9)), (9,)))) == "12345678/9"
    assert str(Tableau((tuple(range(1, 10)), (10,)))) == "1,2,3,4,5,6,7,8,9/10"
    assert str(Tableau((tuple(range(1, 11)), (11,)))) == "1,2,3,4,5,6,7,8,9,10/11"


def test_tableau_keeps_its_row_tuples():
    rows = ((1, 2, 4), (3, 5), (6,))
    t = Tableau(rows)
    assert len(t.rows) == len(rows)
    assert all(t.rows[i] is rows[i] for i in range(len(rows)))
