import itertools
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import pytest

from cycleres import polygon
from cycleres.associahedron import build, f_formula
from cycleres.polygon import (
    Diagonal,
    _spans_tree,
    all_diagonals,
    crosses,
    diagonal,
    dissection,
    is_diagonal,
    iter_dissections,
    iter_noncrossing,
    rotate,
    size_counts,
    slice_counts,
    support,
    vertices,
)
from oracles import SupportClass, classify, count_by_class


def test_all_diagonals_hexagon():
    got = [(d.a, d.b) for d in all_diagonals(6)]
    assert got == [
        (1, 3), (1, 4), (1, 5),
        (2, 4), (2, 5), (2, 6),
        (3, 5), (3, 6), (4, 6),
    ]


def test_all_diagonals_counts():
    assert len(all_diagonals(4)) == 2
    assert len(all_diagonals(5)) == 5
    for n in range(4, 13):
        assert len(all_diagonals(n)) == n * (n - 3) // 2


def test_all_diagonals_rejects_small_n():
    with pytest.raises(ValueError):
        all_diagonals(3)


def test_is_diagonal_excludes_boundary():
    assert is_diagonal(1, 3, 6)
    assert not is_diagonal(1, 2, 6)
    assert not is_diagonal(1, 6, 6)
    assert not is_diagonal(5, 6, 6)
    assert is_diagonal(1, 6, 7)


def test_diagonal_constructor_normalizes_and_checks():
    assert diagonal(4, 1, 6) == Diagonal(1, 4)
    with pytest.raises(ValueError):
        diagonal(1, 2, 6)
    with pytest.raises(ValueError):
        diagonal(1, 6, 6)


def test_crosses_examples():
    assert crosses((1, 3), (2, 6))
    assert not crosses((1, 3), (3, 5))
    assert not crosses((1, 4), (2, 3))
    assert crosses((1, 4), (3, 6))
    assert not crosses((1, 3), (4, 6))


def test_crosses_symmetric_and_irreflexive():
    for n in (6, 8, 10):
        diags = all_diagonals(n)
        for d1, d2 in itertools.combinations(diags, 2):
            assert crosses(d1, d2) == crosses(d2, d1)
        for d in diags:
            assert not crosses(d, d)


def test_crosses_shared_endpoint_never_crosses():
    for d1, d2 in itertools.combinations(all_diagonals(9), 2):
        if set(d1) & set(d2):
            assert not crosses(d1, d2)


def test_support():
    assert support([(1, 3), (4, 6)]) == 0b101101
    assert vertices(support([(1, 3), (4, 6)])) == [1, 3, 4, 6]
    assert support([]) == 0


def test_support_vertices_round_trip():
    assert vertices(0) == []
    for n in range(4, 9):
        diags = all_diagonals(n)
        for ds in (dissection(mask, diags) for mask in iter_noncrossing(diags)):
            oracle = set()
            for a, b in ds:
                oracle |= {a, b}
            assert vertices(support(ds)) == sorted(oracle)


def test_rotate_matches_the_vertex_list_oracle():
    # vertex v goes to (v - 1 + k) % n + 1, for every k, negative and past n too
    for n in range(1, 9):
        for k in range(-2 * n, 2 * n + 1):
            for mask in range(1 << n):
                oracle = {(v - 1 + k) % n + 1 for v in vertices(mask)}
                assert vertices(rotate(mask, n, k)) == sorted(oracle), (n, k, mask)


def test_classify_examples():
    assert classify([(1, 3), (1, 4)]) == SupportClass.PROPER
    assert classify([(1, 3), (4, 6)]) == SupportClass.SUPERPROPER
    assert classify([(1, 3), (1, 5), (3, 5)]) == SupportClass.SUBPROPER
    assert classify([(1, 3)]) == SupportClass.PROPER


def test_classify_rejects_empty():
    with pytest.raises(ValueError):
        classify([])


def test_is_tree_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n, d in [(6, 3), (7, 3), (8, 4)]:
        for ds in iter_dissections(n, d):
            assert _spans_tree(ds, support(ds)) == nx.is_tree(nx.Graph(ds)), ds


def test_iter_noncrossing_yields_empty_first():
    first = next(iter_noncrossing(all_diagonals(6)))
    assert first == 0 and dissection(first, all_diagonals(6)) == ()


def _pairwise_noncrossing(ds):
    return not any(crosses(d1, d2) for d1, d2 in itertools.combinations(ds, 2))


@pytest.mark.parametrize("n", range(4, 9))
def test_iter_noncrossing_matches_filtered_combinations(n):
    # independent oracle: every k-subset, in combinations' lexicographic
    # order, kept when pairwise non-crossing; k runs one past the largest face
    diags = all_diagonals(n)
    oracle = [
        ds for k in range(n - 1) for ds in itertools.combinations(diags, k)
        if _pairwise_noncrossing(ds)
    ]
    masks = list(iter_noncrossing(diags))
    assert [dissection(mask, diags) for mask in masks] == oracle
    assert masks == [sum(1 << diags.index(d) for d in ds) for ds in oracle]
    assert max(len(ds) for ds in oracle) == n - 3


@pytest.mark.parametrize("n", range(4, 11))
def test_iter_noncrossing_is_canonical_with_formula_counts(n):
    diags = all_diagonals(n)
    faces = [dissection(mask, diags) for mask in iter_noncrossing(diags)]
    keys = [(len(ds), ds) for ds in faces]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    assert all(_pairwise_noncrossing(ds) for ds in faces)
    sizes = Counter(len(ds) for ds in faces)
    assert sizes == {d: f_formula(n, d) for d in range(n - 2)}


@pytest.mark.parametrize("n", range(4, 10))
def test_iter_dissections_is_the_size_d_slice(n):
    diags = all_diagonals(n)
    faces = [dissection(mask, diags) for mask in iter_noncrossing(diags)]
    for d in range(n - 2):
        assert list(iter_dissections(n, d)) == [ds for ds in faces if len(ds) == d]


class _CountingSequence(Sequence):
    """The diagonals, counting every item read."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


@pytest.mark.parametrize("n, d", [(6, 1), (8, 2), (9, 4)])
def test_iter_dissections_does_not_build_the_next_size(monkeypatch, n, d):
    # The enumerator makes each subset as it yields it; the slice needs the
    # subsets of sizes 0..d and the first one of size d + 1, which ends it.
    # Past the crossing table's m(m - 1) reads, only the decoding of the
    # slice reads diagonals, d per dissection.
    diagonals = _CountingSequence(all_diagonals(n))
    monkeypatch.setattr(polygon, "all_diagonals", lambda _: diagonals)
    enumerate_all, made = polygon.iter_noncrossing, []

    def counting(diags):
        for mask in enumerate_all(diags):
            made.append(mask)
            yield mask

    monkeypatch.setattr(polygon, "iter_noncrossing", counting)
    m = len(diagonals)
    assert sum(1 for _ in iter_dissections(n, d)) == f_formula(n, d)
    assert f_formula(n, d + 1) > 1
    assert len(made) == sum(f_formula(n, k) for k in range(d + 1)) + 1
    assert diagonals.reads == m * (m - 1) + d * f_formula(n, d)


def test_dissection_counts_small():
    assert sum(1 for _ in iter_dissections(6, 0)) == 1
    assert sum(1 for _ in iter_dissections(6, 1)) == 9
    assert sum(1 for _ in iter_dissections(6, 2)) == 21
    assert sum(1 for _ in iter_dissections(6, 3)) == 14
    assert sum(1 for _ in iter_dissections(7, 4)) == 42


def test_iter_dissections_range_check():
    with pytest.raises(ValueError):
        list(iter_dissections(6, 4))
    with pytest.raises(ValueError):
        list(iter_dissections(6, -1))


def test_size_counts_is_the_f_vector_of_the_built_complex():
    # the counter fvector prints against the face list it never builds
    for n in range(4, 11):
        counted = size_counts(n) + [1]
        assert counted == build(n).f_vector()
        assert counted == [f_formula(n, d) for d in range(n - 2)] + [1]


@pytest.mark.parametrize("n", range(4, 13))
def test_size_counts_walks_the_tree_that_iter_noncrossing_lists(n):
    by_size = Counter(map(int.bit_count, iter_noncrossing(all_diagonals(n))))
    assert size_counts(n) == [by_size[d] for d in range(n - 2)]


def test_size_counts_holds_one_path_not_a_level():
    # a level of A_11's enumeration holds up to 32,032 subsets, several MB
    tracemalloc.start()
    try:
        size_counts(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_count_by_support_refinements():
    assert slice_counts(6, 3)[0] == {3: 2, 4: 12}
    assert slice_counts(7, 4)[0] == {4: 14, 5: 28}
    assert slice_counts(8, 5)[0] == {4: 4, 5: 64, 6: 64}
    assert slice_counts(6, 0)[0] == {0: 1}


def test_count_by_support_sums_to_total():
    for n in range(4, 11):
        for d in range(0, n - 2):
            counts = slice_counts(n, d)[0]
            assert sum(counts.values()) == sum(1 for _ in iter_dissections(n, d))


def test_count_by_class():
    cls6 = count_by_class(6, 2)
    assert cls6[SupportClass.PROPER] == 18
    assert cls6[SupportClass.SUPERPROPER] == 3
    assert cls6[SupportClass.SUBPROPER] == 0
    cls7 = count_by_class(7, 3)
    assert cls7[SupportClass.SUBPROPER] == 7
    assert cls7[SupportClass.SUPERPROPER] == 14
    with pytest.raises(ValueError):
        count_by_class(6, 0)


def test_count_by_class_matches_support_buckets():
    for n in range(4, 10):
        for d in range(1, n - 2):
            by_class = count_by_class(n, d)
            by_support = slice_counts(n, d)[0]
            assert by_class[SupportClass.PROPER] == by_support.get(d + 1, 0)
            assert by_class[SupportClass.SUPERPROPER] == sum(
                c for s, c in by_support.items() if s > d + 1
            )
            assert by_class[SupportClass.SUBPROPER] == sum(
                c for s, c in by_support.items() if s < d + 1
            )


def test_count_trees_values():
    assert slice_counts(6, 1)[1] == 9
    assert slice_counts(6, 3)[1] == 12
    assert slice_counts(8, 4)[1] == 208
    assert slice_counts(6, 0)[1] == 0
    with pytest.raises(ValueError):
        slice_counts(3, 0)


def test_proper_iff_tree_through_heptagon():
    # d diagonals forming a tree touch d + 1 vertices, so every tree is
    # proper: as many trees as proper dissections makes them the same ones
    for n in (5, 6, 7):
        for d in range(1, n - 2):
            by_support, trees = slice_counts(n, d)
            assert trees == by_support.get(d + 1, 0), (n, d)


def test_octagon_has_proper_non_trees():
    # support-5 dissections with 4 diagonals that contain a cycle
    proper = slice_counts(8, 4)[0][5]
    assert proper == 216
    assert slice_counts(8, 4)[1] == proper - 8
