import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from cycleres.associahedron import LabeledComplex, build, restrict
from cycleres.homology import (
    _CHUNK,
    ChainComplex,
    Field,
    _chunks,
    _descending,
    _interior_signs,
    _one_dimension_down,
    _run_pairs_up,
    chain_complex,
    is_acyclic,
    rank_gf2,
    rank_int,
    reduced_betti_numbers,
)
from oracles import (
    boundary_complex,
    dense_boundary,
    eager_pivots,
    eager_rank_gf2,
    eager_rank_int,
    signed_boundary,
    simplicial_reduced_betti,
)


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
    """Lead-first rows of the ids of a dense matrix's odd entries."""
    return [tuple(i for i in reversed(range(len(r))) if r[i] % 2) for r in rows]


def _int_rows(rows):
    """Lead-first rows of the ids of a dense matrix's nonzero entries, and their values."""
    ids = [tuple(i for i in reversed(range(len(r))) if r[i]) for r in rows]
    return ids, [tuple(r[i] for i in row) for r, row in zip(rows, ids)]


def _eager_gf2_rows(rows):
    return [{i for i, x in enumerate(r) if x % 2} for r in rows]


def _eager_int_rows(rows):
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
    assert rank_gf2([(), (1,)]) == {1}


def test_rank_int_basics():
    assert rank_int([], []) == set()
    assert len(rank_int(*_int_rows([[0, 0], [0, 0]]))) == 0
    assert len(rank_int(*_int_rows([[1, 2], [2, 4]]))) == 1
    assert rank_int(*_int_rows([[1, 2], [2, 5]])) == {0, 1}
    # rank 2 over Q but rank 1 over GF(2)
    assert len(rank_int(*_int_rows([[1, 1], [1, -1]]))) == 2
    assert len(rank_gf2(_gf2_rows([[1, 1], [1, -1]]))) == 1
    # non-unit pivots: the first needs division by the content
    assert len(rank_int(*_int_rows([[2, 4], [3, 6]]))) == 1
    assert len(rank_int(*_int_rows([[2, 3], [4, 5]]))) == 2
    # an all-zero row
    assert rank_int([(), (1,)], [(), (3,)]) == {1}


def test_rank_int_matches_fraction_elimination():
    # mostly zero matrices bring fill-in and non-unit pivots
    for rows in _random_matrices(20240817):
        pivots = rank_int(*_int_rows(rows))
        assert len(pivots) == _rank_fraction(rows)
        assert pivots == eager_rank_int(_eager_int_rows(rows))


def test_rank_gf2_matches_dense_mod2_elimination():
    for rows in _random_matrices(20261018):
        pivots = rank_gf2(_gf2_rows(rows))
        assert len(pivots) == _rank_mod2(rows)
        assert pivots == eager_rank_gf2(_eager_gf2_rows(rows))


@pytest.mark.parametrize("n", range(4, 10))
def test_chain_complex_pivots_match_the_eager_oracle(n):
    X = build(n)
    cc = chain_complex(X)
    for parent in (X, boundary_complex(X)):
        for R in [parent, *(restrict(parent, mask) for mask in range(1 << n))]:
            for field in Field:
                for k, ids in R.kept.items():
                    ids = list(ids)
                    pivots = cc._pivots(ids, field, ())
                    assert pivots == eager_pivots(cc, ids, field), (k, field)


def test_pentagon_boundary_rank():
    cc = chain_complex(build(5))
    assert len(eager_pivots(cc, cc.bases[1], Field.RATIONAL)) == 4
    assert len(eager_pivots(cc, cc.bases[0], Field.RATIONAL)) == 1


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


def test_interior_column_all_ones_over_gf2():
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


def _interior_signs_by_owner_lists(rows):
    """Signs over the flip graph from a list of owners per ridge, checked to be two."""
    owners = {}
    for pos, row in enumerate(rows):
        for i, ridge in enumerate(row):
            owners.setdefault(ridge, []).append((pos, (-1) ** i))
    adjacent = [[] for _ in rows]
    for pair in owners.values():
        assert len(pair) == 2
        (f1, s1), (f2, s2) = pair
        adjacent[f1].append((f2, s1 * s2))
        adjacent[f2].append((f1, s1 * s2))
    sign = [0] * len(rows)
    sign[0] = 1
    queue = [0]
    while queue:
        pos = queue.pop()
        for other, s in adjacent[pos]:
            if not sign[other]:
                sign[other] = -sign[pos] * s
                queue.append(other)
            assert sign[other] == -sign[pos] * s
    assert all(sign)
    return sign


@pytest.mark.parametrize("n", range(4, 11))
def test_interior_signs_match_the_owner_list_oracle(n):
    table = build(n).covers_below()
    rows = [table[g] for g in table[-1]]
    assert _interior_signs(rows) == _interior_signs_by_owner_lists(rows)


def test_interior_signs_reject_a_ridge_not_in_exactly_two_facets():
    table = build(6).covers_below()
    rows = [table[g] for g in table[-1]]
    with pytest.raises(RuntimeError, match=r"ridge shared by 3 facets; expected exactly 2"):
        _interior_signs(rows + rows[:1])
    with pytest.raises(RuntimeError, match=r"ridge shared by 4 facets; expected exactly 2"):
        _interior_signs(rows + rows[:1] + rows[:1])
    with pytest.raises(RuntimeError, match=r"ridge shared by 1 facets; expected exactly 2"):
        _interior_signs(rows[:-1])


def test_interior_signs_reject_an_unorientable_or_disconnected_flip_graph():
    # ridge 1 at indices 0 and 0, so the signs differ; ridges 2 and 3 at
    # indices 1 and 2, so the signs agree: no choice satisfies both
    with pytest.raises(RuntimeError, match="orientation propagation over the flip graph failed"):
        _interior_signs([(1, 2, 3), (1, 3, 2)])
    with pytest.raises(RuntimeError, match="flip graph is not connected"):
        _interior_signs([(1, 2), (1, 2), (3, 4), (3, 4)])


@pytest.mark.parametrize("n", range(4, 9))
def test_boundary_columns_match_the_facet_table(n):
    # homology reads each boundary from the facet table; derive the signed
    # simplicial ones from the diagonals alone and compare
    X = build(n)
    cc = chain_complex(X)
    assert list(cc.bases) == list(range(-1, n - 2))
    ids = {f.diagonals: g for g, f in enumerate(X.faces)}
    for k in range(n - 3):
        for g in cc.bases[k]:
            ds = X.faces[g].diagonals
            expected = {ids[ds[:i] + ds[i + 1 :]]: (-1) ** i for i in range(len(ds))}
            assert signed_boundary(cc, g) == expected, (k, ds)
    # the interior covers every triangulation once; its signs are checked
    # by test_interior_column_signs_cancel_over_rationals and dd = 0
    [interior] = cc.bases[n - 3]
    assert cc.table[interior] == tuple(reversed(cc.bases[n - 4]))


def test_chain_complex_reads_the_facet_table_in_place():
    # a full collection empties the interpreter's free lists, whose parked
    # tuples tracemalloc still counts as allocated where they were made
    tracemalloc.start()
    try:
        X = build(9)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        cc = chain_complex(X)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert cc.table is X.covers_below()
    assert held < built / 4, (held, built)


def test_restriction_homology():
    X = build(6)
    assert is_acyclic(restrict(X, 0b001111), Field.GF2)  # {1, 2, 3, 4}
    assert is_acyclic(restrict(X, 0b010101), Field.RATIONAL)  # {1, 3, 5}
    empty = restrict(X, 0b000011)  # {1, 2}
    assert empty.is_empty
    assert not is_acyclic(empty, Field.GF2)
    assert reduced_betti_numbers(empty, Field.GF2) == []


def test_fields_agree_on_all_hexagon_restrictions():
    X = build(6)
    for mask in range(64):
        sub = restrict(X, mask)
        assert reduced_betti_numbers(sub, Field.GF2) == reduced_betti_numbers(
            sub, Field.RATIONAL
        )


def test_chain_complex_ranks_match_fraction_elimination():
    X6, X7 = build(6), build(7)
    complexes = [restrict(X6, mask) for mask in range(64)]
    complexes += [X7, boundary_complex(X7)]
    for X in complexes:
        if X.is_empty:
            continue
        # a restriction ranks its parent's columns at its kept ids
        cc = chain_complex(X)
        kept = X.kept
        for k in range(max(kept) + 1):
            dense = dense_boundary(cc, k, Field.RATIONAL)
            columns = [cc.bases[k].index(g) for g in kept[k]]
            rank = len(cc._pivots(kept[k], Field.RATIONAL, ()))
            assert rank == _rank_fraction([[row[j] for j in columns] for row in dense])
            assert len(cc._pivots(kept[k], Field.GF2, ())) <= rank


def _betti_without_clearing(X, field):
    """Reduced Betti numbers with every column ranked in full, by the eager kernels."""
    cc = chain_complex(X)
    kept = X.kept
    ranks = [len(eager_pivots(cc, kept[k], field)) for k in range(max(kept) + 1)] + [0]
    return [len(kept[k]) - ranks[k] - ranks[k + 1] for k in range(max(kept) + 1)]


@pytest.mark.parametrize("n", range(4, 9))
def test_clearing_matches_ranks_without_clearing(n):
    X = build(n)
    for parent in (X, boundary_complex(X)):
        for field in Field:
            cc = chain_complex(parent)
            assert cc is chain_complex(X)
            expected = _betti_without_clearing(parent, field)
            assert cc.reduced_betti(field, parent.kept) == expected
            if parent is X:
                assert cc.reduced_betti(field) == expected
            for mask in range(1 << n):
                R = restrict(parent, mask)
                expected = _betti_without_clearing(R, field)
                assert cc.reduced_betti(field, R.kept) == expected, (parent is X, mask, field)


def _rebuilt(X, mask):
    """The restriction of X to mask as a new face list: full assembly and dd = 0 check."""
    return LabeledComplex(X.n, [X.dissections[g] for g in X.ids() if not X.labels[g] & ~mask])


@pytest.mark.parametrize("n", range(4, 9))
def test_restriction_verdicts_match_rebuilt_complexes(n):
    X = build(n)
    full = (1 << n) - 1
    for parent in (X, boundary_complex(X)):
        for mask in range(1 << n):
            fast, slow = restrict(parent, mask), _rebuilt(parent, mask)
            assert fast.parent is X and slow.parent is None
            for field in Field:
                verdict = is_acyclic(fast, field)
                assert verdict == is_acyclic(slow, field), (parent is X, mask, field)
                # only the sphere, the boundary complex itself, is not acyclic
                assert verdict == (not fast.is_empty and (parent is X or mask != full))
    sphere = [0] * (n - 4) + [1]
    for field in Field:
        assert reduced_betti_numbers(restrict(boundary_complex(X), full), field) == sphere


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


_SEGMENT = {-1: range(1), 0: range(1, 3), 1: range(3, 4)}
_SEGMENT_TABLE = [[], [0], [0], [2, 1]]


# hand-made complexes, each row in descending order: the hollow triangle;
# the pillow, two squares glued along their boundary (a 2-sphere), each
# with mixed signs; the hollow tetrahedron, whose triangle 11 is signed
# because its descending row is not in the simplicial order
_TRIANGLE = {-1: range(1), 0: range(1, 4), 1: range(4, 7)}
_TRIANGLE_TABLE = [(), (0,), (0,), (0,), (2, 1), (3, 2), (3, 1)]
_PILLOW = {-1: range(1), 0: range(1, 5), 1: range(5, 9), 2: range(9, 11)}
_PILLOW_TABLE = [(), *[(0,)] * 4, (2, 1), (3, 2), (4, 3), (4, 1), (8, 7, 6, 5), (8, 7, 6, 5)]
_PILLOW_SIGNS = {9: (-1, 1, 1, 1), 10: (1, -1, -1, -1)}
_TETRAHEDRON = {-1: range(1), 0: range(1, 5), 1: range(5, 11), 2: range(11, 15)}
_TETRAHEDRON_TABLE = [
    (),
    *[(0,)] * 4,
    *[(2, 1), (3, 2), (3, 1), (4, 1), (4, 2), (4, 3)],
    *[(7, 6, 5), (9, 8, 5), (10, 8, 7), (10, 9, 6)],
]
_TETRAHEDRON_SIGNS = {11: (-1, 1, 1)}


@pytest.mark.parametrize("field", Field)
def test_hand_made_complexes_rank_over_both_fields(field):
    triangle = ChainComplex(_TRIANGLE, _TRIANGLE_TABLE)
    assert len(eager_pivots(triangle, _TRIANGLE[1], field)) == 2
    assert triangle.reduced_betti(field) == [0, 1]
    pillow = ChainComplex(_PILLOW, _PILLOW_TABLE, _PILLOW_SIGNS)
    assert len(eager_pivots(pillow, _PILLOW[2], field)) == 1
    assert pillow.reduced_betti(field) == [0, 0, 1]
    tetrahedron = ChainComplex(_TETRAHEDRON, _TETRAHEDRON_TABLE, _TETRAHEDRON_SIGNS)
    # triangle 11 is signed: with alternating signs the four triangles
    # would have rank 4 over the rationals
    ranks = [len(eager_pivots(tetrahedron, _TETRAHEDRON[k], field)) for k in range(3)]
    assert ranks == [1, 3, 3]
    assert tetrahedron.reduced_betti(field) == [0, 0, 1]


def test_a_row_out_of_order_is_rejected():
    # ascending, repeated, or descending only after its first entry
    for g, row in ((4, (1, 2)), (5, (3, 3)), (6, (3, 1, 2))):
        table = list(_TRIANGLE_TABLE)
        table[g] = row
        with pytest.raises(ValueError, match=rf"cell {g}'s row \[.*\] does not strictly descend"):
            ChainComplex(_TRIANGLE, table)
    X = build(10)
    cc = chain_complex(X)
    block = max(X.kept.values(), key=len)
    start = block[_CHUNK]
    # a row past the first chunk of a block, named before a later one of its
    # chunk and before an earlier row of its chunk whose dd is nonzero
    table = list(cc.table)
    first, later = start + 5, start + 300
    for g in (first, later):
        table[g] = table[g][1::-1] + table[g][2:]
    table[start] = _replace_last(table[start], X.kept[len(table[start]) - 2])
    assert _first_nonzero_dd(table, cc.signs) == start
    with pytest.raises(ValueError, match=f"cell {first}'s row"):
        ChainComplex(X.kept, table, cc.signs)
    # a nonzero dd in an earlier chunk is raised first
    table[block[0]] = _replace_last(table[block[0]], X.kept[len(table[start]) - 2])
    with pytest.raises(RuntimeError, match=f"cell {block[0]} is nonzero"):
        ChainComplex(X.kept, table, cc.signs)


def test_ranking_leaves_the_shared_facet_table_as_built():
    # pivots are the facet table's own rows until a reduction copies them
    X = build(8)
    for field in Field:
        for mask in range(1 << 8):
            reduced_betti_numbers(restrict(X, mask), field)
        reduced_betti_numbers(boundary_complex(X), field)
    table = X.covers_below()
    assert table == build(8).covers_below()
    assert all(type(row) is tuple for row in table)


def test_boundary_squared_zero_is_checked():
    assert ChainComplex(_SEGMENT, _SEGMENT_TABLE).reduced_betti(Field.RATIONAL) == [0, 0]
    # the default signs are (1, -1); with (1, 1) dd vanishes mod 2 but not
    # over the integers, so no field may use it
    with pytest.raises(RuntimeError):
        ChainComplex(_SEGMENT, _SEGMENT_TABLE, {3: [1, 1]})
    # an unsigned row over a signed cell is summed, not paired by ids
    with pytest.raises(RuntimeError, match="cell 3 is nonzero"):
        ChainComplex(_SEGMENT, _SEGMENT_TABLE, {1: [-1]})


def _nonzero_dd(table, signs, g):
    """Whether cell g's boundary of boundary, summed over the integers, is nonzero."""
    acc = Counter()
    row = table[g]
    for lo, c in zip(row, signs.get(g) or [(-1) ** i for i in range(len(row))]):
        lower = table[lo]
        for lo2, c2 in zip(lower, signs.get(lo) or [(-1) ** i for i in range(len(lower))]):
            acc[lo2] += c * c2
    return any(acc.values())


def _first_nonzero_dd(table, signs):
    """The first cell whose boundary of boundary, summed over the integers, is nonzero."""
    return next((g for g in range(len(table)) if _nonzero_dd(table, signs, g)), None)


def _first_error(table, signs):
    """The error the constructor raises on a table of in-range ids, and the cell it names.

    Read chunk by chunk, in table order, each chunk up to ``_CHUNK``
    consecutive rows of one length: the first row of the first chunk
    holding one that does not strictly descend gives ValueError, unless
    an earlier chunk holds a cell whose dd is nonzero, which gives
    RuntimeError at the first such cell.
    """
    start = 0
    while start < len(table):
        k = len(table[start])
        end = start
        while end < len(table) and end - start < _CHUNK and len(table[end]) == k:
            end += 1
        for g in range(start, end):
            if any(a <= b for a, b in zip(table[g], table[g][1:])):
                return ValueError, g
        for g in range(start, end):
            if _nonzero_dd(table, signs, g):
                return RuntimeError, g
        start = end
    return None


def _replace_last(row, ids):
    """The row with its last id replaced by the first of ids it does not hold, in descending order."""
    new = next(g for g in ids if g not in row)
    return tuple(sorted((*row[:-1], new), reverse=True))


def _pairs_up(table, signs, row):
    """Whether the terms of dd on an unsigned row cancel in pairs by id, read one row at a time.

    The oracle of ``_run_pairs_up``: with k = len(row), each cell of the
    row unsigned and with a row of k - 1 entries, ``table[row[j]][i] ==
    table[row[i]][j - 1]`` for every i < j.  False when an index is out of
    range.
    """
    try:
        lower = [table[lo] for lo in row]
    except IndexError:
        return False
    k = len(row)
    if any(len(r) != k - 1 for r in lower) or any(lo in signs for lo in row):
        return False
    return all(lower[j][i] == lower[i][j - 1] for j in range(1, k) for i in range(j))


@pytest.mark.parametrize("n", range(4, 10))
def test_dd_pairing_passes_what_the_integer_sum_passes(n):
    cc = chain_complex(build(n))
    assert _first_nonzero_dd(cc.table, cc.signs) is None
    # every row but the signed interior cell's passes by pairing alone
    assert list(cc.signs) == [len(cc.table) - 1]
    assert all(_pairs_up(cc.table, cc.signs, row) for row in cc.table[:-1])


@pytest.mark.parametrize("n", range(4, 11))
def test_run_check_is_the_row_check_on_every_chunk(n):
    cc = chain_complex(build(n))
    table, signs = cc.table, cc.signs
    chunks = list(_chunks(table))
    # the chunks cover the table in order, each rows of one length
    assert [row for _, _, rows in chunks for row in rows] == table
    assert [start for start, _, _ in chunks] == [
        sum(len(rows) for _, _, rows in chunks[:i]) for i in range(len(chunks))
    ]
    assert all(0 < len(rows) <= _CHUNK and {*map(len, rows)} == {k} for _, k, rows in chunks)
    # from n = 10 on a dimension block holds more than one chunk
    assert any(len(rows) == _CHUNK for _, _, rows in chunks) == (n >= 10)
    for start, k, rows in chunks:
        entries = list(chain.from_iterable(rows))
        by_row = all(
            g not in signs and _pairs_up(table, signs, row) for g, row in enumerate(rows, start)
        )
        assert _run_pairs_up(table, signs, start, len(rows), k, entries) == by_row, (start, k)
        # every row of A_n, the interior cell's included, descends
        assert _descending(entries, k)
        assert all(list(row) == sorted(row, reverse=True) for row in rows)


def test_dd_check_names_a_broken_row_past_the_first_chunk_of_a_block():
    X = build(10)
    cc = chain_complex(X)
    block = max(X.kept.values(), key=len)
    assert len(block) > _CHUNK
    table = list(cc.table)
    # two broken rows in the block's second chunk, each still descending,
    # with its last id replaced by another cell of that dimension: the
    # check names the first
    first, later = block[_CHUNK + 5], block[_CHUNK + 300]
    lower = X.kept[len(table[first]) - 2]
    table[first] = _replace_last(table[first], lower)
    table[later] = _replace_last(table[later], reversed(lower))
    assert _first_nonzero_dd(table, cc.signs) == first
    with pytest.raises(RuntimeError, match=f"cell {first} is nonzero"):
        ChainComplex(X.kept, table, cc.signs)


def test_a_one_entry_row_over_a_nonempty_row_is_not_passed():
    # an "edge" with one endpoint: its row's one entry is a vertex, whose row is not empty
    table = [(), (0,), (1,)]
    assert not _run_pairs_up(table, {}, 2, 1, 1, [1])
    assert _run_pairs_up(table, {}, 1, 1, 1, [0])
    with pytest.raises(RuntimeError, match="cell 2 is nonzero"):
        ChainComplex({-1: range(1), 0: range(1, 2), 1: range(2, 3)}, table)


def test_a_signed_cell_inside_a_run_is_summed_row_by_row():
    X = build(7)
    cc = chain_complex(X)
    table = cc.table
    # an edge in the middle of its run, and the first 2-cell above it
    g = X.kept[1][len(X.kept[1]) // 2]
    above = next(h for h in X.kept[2] if g in table[h])
    [(start, rows)] = [(s, r) for s, _, r in _chunks(table) if s <= g < s + len(r)]
    entries = list(chain.from_iterable(rows))
    for values, broken in (((1, -1), None), ((-1, 1), above), ((1, 1), g)):
        signs = {**cc.signs, g: values}
        assert not _run_pairs_up(table, signs, start, len(rows), 2, entries)
        assert _first_nonzero_dd(table, signs) == broken
        if broken is None:
            ChainComplex(X.kept, table, signs)
        else:
            with pytest.raises(RuntimeError, match=f"cell {broken} is nonzero"):
                ChainComplex(X.kept, table, signs)


@pytest.mark.parametrize("seed", range(40))
def test_dd_check_agrees_with_the_integer_sum_on_broken_tables(seed):
    X = build(6)
    cc = chain_complex(X)
    rng = random.Random(seed)
    table = [list(row) for row in cc.table]
    for _ in range(rng.randrange(1, 4)):
        g = rng.randrange(1, len(table) - 1)
        row = table[g]
        if len(row) > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(len(row)), 2)
            row[i], row[j] = row[j], row[i]
        else:
            # another cell of the same dimension as the entry it replaces
            i = rng.randrange(len(row))
            dim = next(d for d, ids in X.kept.items() if row[i] in ids)
            row[i] = rng.choice(X.kept[dim])
    # most broken rows no longer descend; sorted, most reach the dd check
    for table in (table, [sorted(row, reverse=True) for row in table]):
        error = _first_error(table, cc.signs)
        if error is None:
            ChainComplex(X.kept, table, cc.signs)
        else:
            kind, g = error
            with pytest.raises(kind, match=rf"cell {g}\b"):
                ChainComplex(X.kept, table, cc.signs)


def test_a_row_of_the_wrong_dimension_is_rejected():
    # edge 5 "bounds" the edges 4 and 3, whose boundaries are equal, so dd = 0;
    # the complex would report reduced Betti numbers [-1, 1]
    table = [[], [0], [0], [2, 1], [2, 1], [4, 3]]
    message = r"cell 5's row \[4, 3\] holds 4, a cell of dimension 1, not 0"
    with pytest.raises(ValueError, match=message):
        ChainComplex({-1: range(1), 0: range(1, 3), 1: range(3, 6)}, table)
    # an edge over the empty face
    tri = [*_TRIANGLE_TABLE[:6], (3, 0)]
    with pytest.raises(ValueError, match=r"cell 6's row \[3, 0\] holds 0, a cell of dimension -1"):
        ChainComplex(_TRIANGLE, tri)


def test_a_row_of_the_wrong_dimension_is_named_past_the_first_chunk():
    X = build(10)
    cc = chain_complex(X)
    block = max(X.kept.values(), key=len)
    assert len(block) > _CHUNK
    # a later row's last id replaced by a vertex: still descending, and dd
    # of an earlier row of its chunk broken first
    table = list(cc.table)
    g = block[_CHUNK + 300]
    table[g] = (*table[g][:-1], X.kept[0][0])
    table[block[_CHUNK + 5]] = _replace_last(table[block[_CHUNK + 5]], X.kept[len(table[g]) - 2])
    with pytest.raises(ValueError, match=rf"cell {g}'s row .* a cell of dimension 0, not "):
        ChainComplex(X.kept, table, cc.signs)


@pytest.mark.parametrize("n", range(4, 11))
def test_dimension_check_is_the_row_check_on_every_chunk(n):
    X = build(n)
    cc = chain_complex(X)
    table = cc.table
    blocks = cc.bases
    assert blocks is X.kept
    dims = {g: k for k, ids in X.kept.items() for g in ids}
    for start, k, rows in _chunks(table):
        if not k:
            continue
        entries = list(chain.from_iterable(rows))
        assert _one_dimension_down(blocks, start, len(rows), k, entries)
        # each row's last id swapped for the least id of each dimension
        for d, ids in X.kept.items():
            broken = [*rows[-1][:-1], ids[0]]
            if len(rows[-1]) > 1 and broken[-2] <= ids[0]:
                continue  # it would not descend
            by_row = all(dims[lo] == dims[start + len(rows) - 1] - 1 for lo in broken)
            assert _one_dimension_down(
                blocks, start, len(rows), k, entries[:-k] + broken
            ) == by_row, (start, d)


def test_dd_check_reads_an_id_out_of_range_as_before():
    # a negative id would alias a row from the end of the table
    for row in ([4, 1], [2, -3]):
        table = [*_SEGMENT_TABLE[:3], row]
        with pytest.raises(ValueError, match=r"cell 3's row .* holds an id outside 0\.\.3"):
            ChainComplex(_SEGMENT, table)


@pytest.mark.parametrize("key", [-1, 4, 7])
def test_signs_are_keyed_by_ids(key):
    # -1 would be checked against the last row and then never read
    with pytest.raises(ValueError, match=rf"keyed by {key}, not an id 0\.\.3"):
        ChainComplex(_SEGMENT, _SEGMENT_TABLE, {key: [1, -1]})


_TILES = r"the bases must hold each id 0\.\.3 exactly once"
_SHAPE = r"the bases must be ranges of step 1 keyed -1, 0, 1, … in order"


@pytest.mark.parametrize(
    "bases, table, message",
    [
        ({-1: [0], 0: [1, 1], 1: [3]}, _SEGMENT_TABLE, _SHAPE),
        ({-1: range(1), 0: range(1, 3), 1: range(4, 5)}, _SEGMENT_TABLE, _TILES),
        ({-1: range(1), 0: range(1, 3), 1: range(2, 4)}, _SEGMENT_TABLE, _TILES),
        ({-1: range(1), 0: range(1, 3)}, _SEGMENT_TABLE, _TILES),
        # consecutive ids, but not as ranges
        ({-1: [0], 0: [1, 2], 1: [3]}, _SEGMENT_TABLE, _SHAPE),
        ({-1: range(1), 0: range(1, 3), 1: range(3, 5, 2)}, _SEGMENT_TABLE, _SHAPE),
        ({-1: range(1), 1: range(1, 4)}, _SEGMENT_TABLE, _SHAPE),
        ({0: range(1, 3), -1: range(1), 1: range(3, 4)}, _SEGMENT_TABLE, _SHAPE),
        # a gap between dimensions, which would otherwise fail only at the first rank
        ({-1: [0], 1: [1]}, [[], []], _SHAPE),
        ({-1: range(1), 1: range(1, 2)}, [[], []], _SHAPE),
    ],
    ids=[
        "repeated",
        "skipped",
        "repeated-across-dimensions",
        "missing",
        "list",
        "step-2",
        "dimension-gap",
        "keys-out-of-order",
        "list-dimension-gap",
        "range-dimension-gap",
    ],
)
def test_bases_must_hold_each_id_once(bases, table, message):
    with pytest.raises(ValueError, match=message):
        ChainComplex(bases, table)


@pytest.mark.parametrize("signs", [[1], [1, -1, 1], [], [2, -2], [1, 0], [-1, 3]])
def test_explicit_signs_must_be_one_unit_per_entry(signs):
    with pytest.raises(ValueError):
        ChainComplex(_SEGMENT, _SEGMENT_TABLE, {3: signs})


def test_default_signs_cover_any_row_length():
    # two 1-cells over 300 points, the short one the long one's first 128
    # entries: the long one must keep its signs past any fixed length, or
    # it would equal the short one
    points = 300
    bases = {-1: range(1), 0: range(1, points + 1), 1: range(points + 1, points + 3)}
    table = [[], *[[0]] * points, list(range(points, 0, -1)), list(range(points, 172, -1))]
    cc = ChainComplex(bases, table)
    for field in Field:
        assert cc.reduced_betti(field) == [points - 3, 0]


def test_chain_complex_dimensions_contiguous():
    cc = chain_complex(build(6))
    assert list(cc.bases) == [-1, 0, 1, 2, 3]
    assert [len(cc.bases[k]) for k in cc.bases] == [1, 9, 21, 14, 1]


def test_one_chain_complex_per_face_list():
    X = build(6)
    assert "_chains" not in vars(X)
    cc = chain_complex(X)
    assert chain_complex(X) is cc
    assert chain_complex(restrict(X, 0b010101)) is cc  # {1, 3, 5}
    assert chain_complex(restrict(X, 0b111111)) is cc
