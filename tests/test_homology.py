import random
import tracemalloc
from fractions import Fraction

import pytest

from cycleres.associahedron import Face, LabeledComplex, boundary_complex, build, restrict
from cycleres.homology import (
    ChainComplex,
    Field,
    chain_complex,
    is_acyclic,
    rank_gf2,
    rank_int,
    reduced_betti_numbers,
    simplicial_reduced_betti,
)
from cycleres.polygon import vertices


def _rank_fraction(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    rank, r = 0, 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == len(m):
            break
    return rank


def _rank_mod2(rows):
    """Rank over GF(2) by dense row reduction of the entries mod 2."""
    m = [[x % 2 for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _gf2_rows(rows):
    return [{i for i, x in enumerate(r) if x % 2} for r in rows]


def _int_rows(rows):
    return [{i: x for i, x in enumerate(r) if x} for r in rows]


def _random_matrices(seed):
    """Dense integer matrices, up to 7 x 7, then mostly zero up to 12 x 12."""
    rng = random.Random(seed)
    for _ in range(150):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        yield [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
    for _ in range(150):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        yield [
            [rng.randint(-4, 4) if rng.random() < 0.25 else 0 for _ in range(nc)]
            for _ in range(nr)
        ]


def test_field_coercion():
    assert Field.coerce("gf2") is Field.GF2
    assert Field.coerce("RATIONAL") is Field.RATIONAL
    assert Field.coerce(Field.GF2) is Field.GF2
    with pytest.raises(ValueError):
        Field.coerce("gf3")
    with pytest.raises(ValueError):
        Field.coerce(None)
    with pytest.raises(ValueError):
        Field.coerce(2)


def test_rank_gf2_basics():
    # each kernel returns its pivot ids, keyed by the largest id of a row
    assert rank_gf2([]) == set()
    assert rank_gf2(_gf2_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])) == {1, 2}
    assert len(rank_gf2(_gf2_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))) == 3
    assert len(rank_gf2(_gf2_rows([[1, 1], [1, 1]]))) == 1
    # a row holds the ids of the odd entries, whatever their sign
    assert rank_gf2(_gf2_rows([[2, -1], [-3, 4]])) == {0, 1}
    assert rank_gf2([set(), {1}]) == {1}


def test_rank_int_basics():
    assert rank_int([]) == set()
    assert len(rank_int(_int_rows([[0, 0], [0, 0]]))) == 0
    assert len(rank_int(_int_rows([[1, 2], [2, 4]]))) == 1
    assert rank_int(_int_rows([[1, 2], [2, 5]])) == {0, 1}
    # rank 2 over Q but rank 1 over GF(2)
    assert len(rank_int(_int_rows([[1, 1], [1, -1]]))) == 2
    assert len(rank_gf2(_gf2_rows([[1, 1], [1, -1]]))) == 1
    # non-unit pivots: the first needs division by the content
    assert len(rank_int(_int_rows([[2, 4], [3, 6]]))) == 1
    assert len(rank_int(_int_rows([[2, 3], [4, 5]]))) == 2
    # an all-zero row
    assert rank_int([{}, {1: 3}]) == {1}


def test_rank_int_matches_fraction_elimination():
    # mostly zero matrices bring fill-in and non-unit pivots
    for rows in _random_matrices(20240817):
        assert len(rank_int(_int_rows(rows))) == _rank_fraction(rows)


def test_rank_gf2_matches_dense_mod2_elimination():
    for rows in _random_matrices(20261018):
        assert len(rank_gf2(_gf2_rows(rows))) == _rank_mod2(rows)


def test_pentagon_boundary_rank():
    cc = chain_complex(build(5))
    assert cc.rank(1, Field.RATIONAL) == 4
    assert cc.rank(0, Field.RATIONAL) == 1


def test_rank_plus_nullity():
    cc = chain_complex(build(6))
    for k in cc.dims:
        assert 0 <= cc.rank(k, Field.RATIONAL) <= len(cc.bases[k])


def test_boundary_spheres():
    assert reduced_betti_numbers(boundary_complex(build(5)), Field.RATIONAL) == [0, 1]
    assert reduced_betti_numbers(boundary_complex(build(6)), Field.RATIONAL) == [0, 0, 1]
    assert reduced_betti_numbers(boundary_complex(build(6)), Field.GF2) == [0, 0, 1]
    assert reduced_betti_numbers(boundary_complex(build(7)), Field.GF2) == [0, 0, 0, 1]


def test_full_complex_is_acyclic():
    for n in (4, 5, 6, 7):
        X = build(n)
        assert is_acyclic(X, Field.GF2)
        assert is_acyclic(X, Field.RATIONAL)
        assert reduced_betti_numbers(X, Field.RATIONAL) == [0] * (n - 2)


def test_interior_column_all_ones_over_gf2(dense_boundary):
    X = build(6)
    top = dense_boundary(chain_complex(X), 3, Field.GF2)
    assert len(top) == 14
    assert all(row == [1] for row in top)


def test_interior_column_signs_cancel_over_rationals():
    X = build(7)
    cc = chain_complex(X)
    # the interior cell is the only one with explicit signs
    [top] = cc.signs
    assert top == len(X.faces) - 1
    assert sorted(abs(c) for c in cc.signs[top]) == [1] * 42
    assert set(cc.signs[top]) == {1, -1}


@pytest.mark.parametrize("n", range(4, 9))
def test_boundary_columns_match_the_facet_table(n, signed_boundary):
    # homology reads each boundary from the facet table; derive the signed
    # simplicial ones from the diagonals alone and compare
    X = build(n)
    cc = chain_complex(X)
    assert cc.dims == list(range(-1, n - 2))
    simplices = {k: [f.diagonals for f in X.faces_of_dim(k)] for k in range(-1, n - 3)}
    for k in range(n - 3):
        position = {ds: p for p, ds in enumerate(simplices[k - 1])}
        for p, ds in enumerate(simplices[k]):
            expected = {
                cc.first[k - 1] + position[ds[:i] + ds[i + 1 :]]: (-1) ** i
                for i in range(len(ds))
            }
            assert signed_boundary(cc, cc.first[k] + p) == expected, (k, ds)
    # the interior covers every triangulation once; its signs are checked
    # by test_interior_column_signs_cancel_over_rationals and dd = 0
    [interior] = X.faces_of_dim(n - 3)
    assert cc.table[interior.id] == [f.id for f in X.facets()]


def test_chain_complex_reads_the_facet_table_in_place():
    tracemalloc.start()
    try:
        X = build(9)
        built = tracemalloc.get_traced_memory()[0]
        cc = chain_complex(X)
        held = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert cc.table is X.covers_below()
    assert held < built / 4, (held, built)


def test_restriction_homology():
    X = build(6)
    assert is_acyclic(restrict(X, {1, 2, 3, 4}), Field.GF2)
    assert is_acyclic(restrict(X, {1, 3, 5}), Field.RATIONAL)
    empty = restrict(X, {1, 2})
    assert empty.is_empty
    assert not is_acyclic(empty, Field.GF2)
    assert reduced_betti_numbers(empty, Field.GF2) == []


def test_fields_agree_on_all_hexagon_restrictions():
    X = build(6)
    for mask in range(64):
        sigma = {v + 1 for v in range(6) if mask >> v & 1}
        sub = restrict(X, sigma)
        assert reduced_betti_numbers(sub, Field.GF2) == reduced_betti_numbers(
            sub, Field.RATIONAL
        )


def test_chain_complex_ranks_match_fraction_elimination(dense_boundary):
    X6, X7 = build(6), build(7)
    complexes = [
        restrict(X6, {v + 1 for v in range(6) if mask >> v & 1}) for mask in range(64)
    ]
    complexes += [X7, boundary_complex(X7)]
    for X in complexes:
        if X.is_empty:
            continue
        # a restriction ranks its parent's columns at its kept positions
        cc = chain_complex(X)
        kept = X.kept or {k: range(len(cc.bases[k])) for k in cc.dims}
        for k in range(max(kept) + 1):
            dense = dense_boundary(cc, k, Field.RATIONAL)
            rank = cc.rank(k, Field.RATIONAL, kept[k])
            assert rank == _rank_fraction([[row[j] for j in kept[k]] for row in dense])
            assert cc.rank(k, Field.GF2, kept[k]) <= rank


def _betti_without_clearing(X, field):
    """Reduced Betti numbers from every column of every dimension, ranked in full."""
    cc = chain_complex(X)
    kept = X.kept or {k: range(len(cc.bases[k])) for k in cc.dims}
    ranks = [cc.rank(k, field, kept[k]) for k in range(max(kept) + 1)] + [0]
    return [len(kept[k]) - ranks[k] - ranks[k + 1] for k in range(max(kept) + 1)]


@pytest.mark.parametrize("n", range(4, 9))
def test_clearing_matches_ranks_without_clearing(n):
    X = build(n)
    for parent in (X, boundary_complex(X)):
        for field in Field:
            cc = chain_complex(parent)
            assert cc.reduced_betti(field) == _betti_without_clearing(parent, field)
            for mask in range(1 << n):
                R = restrict(parent, vertices(mask))
                expected = _betti_without_clearing(R, field)
                assert cc.reduced_betti(field, R.kept) == expected, (parent is X, mask, field)


def _rebuilt(X, mask):
    """The restriction of X to mask as a new face list: full assembly and dd = 0 check."""
    kept = [f for f in X.faces if not f.label & ~mask]
    return LabeledComplex(X.n, [Face(i, f.dim, f.diagonals, f.label) for i, f in enumerate(kept)])


@pytest.mark.parametrize("n", range(4, 9))
def test_restriction_verdicts_match_rebuilt_complexes(n):
    X = build(n)
    full = (1 << n) - 1
    for parent in (X, boundary_complex(X)):
        for mask in range(1 << n):
            fast, slow = restrict(parent, vertices(mask)), _rebuilt(parent, mask)
            assert fast.parent is parent and slow.parent is None
            for field in Field:
                verdict = is_acyclic(fast, field)
                assert verdict == is_acyclic(slow, field), (parent is X, mask, field)
                # only the sphere, the boundary complex itself, is not acyclic
                assert verdict == (not fast.is_empty and (parent is X or mask != full))
    sphere = [0] * (n - 4) + [1]
    for field in Field:
        assert reduced_betti_numbers(restrict(boundary_complex(X), range(1, n + 1)), field) == sphere


def test_simplicial_reduced_betti_known_spaces():
    assert simplicial_reduced_betti([(1,)], Field.RATIONAL) == [0]
    assert simplicial_reduced_betti([(1, 2), (2, 3)], Field.GF2) == [0, 0]
    hexagon = [(i, i % 6 + 1) for i in range(1, 7)]
    assert simplicial_reduced_betti(hexagon, Field.GF2) == [0, 1]
    assert simplicial_reduced_betti([(1, 2), (2, 3), (5, 6)], Field.RATIONAL) == [1, 0]
    assert simplicial_reduced_betti([], Field.GF2) == []
    # hollow tetrahedron is a 2-sphere
    faces = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert simplicial_reduced_betti(faces, Field.RATIONAL) == [0, 0, 1]


_SEGMENT = {-1: [()], 0: [(1,), (2,)], 1: [(1, 2)]}
_SEGMENT_TABLE = [[], [0], [0], [1, 2]]


def test_boundary_squared_zero_is_checked():
    assert ChainComplex(_SEGMENT, _SEGMENT_TABLE).reduced_betti(Field.RATIONAL) == [0, 0]
    # the default signs are (1, -1); with (1, 1) dd vanishes mod 2 but not
    # over the integers, so no field may use it
    with pytest.raises(RuntimeError):
        ChainComplex(_SEGMENT, _SEGMENT_TABLE, {3: [1, 1]})


@pytest.mark.parametrize("signs", [[1], [1, -1, 1], [], [2, -2], [1, 0], [-1, 3]])
def test_explicit_signs_must_be_one_unit_per_entry(signs):
    with pytest.raises(ValueError):
        ChainComplex(_SEGMENT, _SEGMENT_TABLE, {3: signs})


def test_default_signs_cover_any_row_length():
    # two 1-cells over 300 points: the long one must keep its signs past
    # any fixed length, or it would equal the short one
    points = 300
    bases = {-1: [()], 0: list(range(points)), 1: ["long", "short"]}
    table = [[], *[[0]] * points, list(range(1, points + 1)), list(range(1, 129))]
    cc = ChainComplex(bases, table)
    for field in Field:
        assert cc.rank(1, field) == 2


def test_chain_complex_dimensions_contiguous():
    cc = chain_complex(build(6))
    assert cc.dims == [-1, 0, 1, 2, 3]
    assert [len(cc.bases[k]) for k in cc.dims] == [1, 9, 21, 14, 1]


def test_one_chain_complex_per_face_list():
    X = build(6)
    assert "_chains" not in vars(X)
    cc = chain_complex(X)
    assert chain_complex(X) is cc
    assert chain_complex(restrict(X, {1, 3, 5})) is cc
    assert chain_complex(restrict(X, range(1, 7))) is cc
