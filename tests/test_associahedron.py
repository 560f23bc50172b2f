import gc
import random
import re
import sys
import tracemalloc
import weakref
from itertools import combinations, groupby

import pytest

from cycleres.associahedron import Face, LabeledComplex, build, f_formula, restrict
from cycleres.homology import Field, chain_complex, is_acyclic
from cycleres.polygon import Diagonal, all_diagonals, crosses, dissection, support, vertices
from oracles import boundary_complex, faces_of_dim, maximal_faces


def test_f_formula_values():
    assert [f_formula(6, d) for d in range(4)] == [1, 9, 21, 14]
    assert [f_formula(7, d) for d in range(5)] == [1, 14, 56, 84, 42]
    assert [f_formula(8, d) for d in range(6)] == [1, 20, 120, 300, 330, 132]
    assert [f_formula(9, d) for d in range(7)] == [1, 27, 225, 825, 1485, 1287, 429]
    assert f_formula(5, 1) == 5


def test_f_formula_range_checks():
    with pytest.raises(ValueError):
        f_formula(6, 4)
    with pytest.raises(ValueError):
        f_formula(3, 0)


def test_build_matches_formula():
    for n in range(4, 10):
        X = build(n)
        assert X.f_vector() == [f_formula(n, d) for d in range(n - 2)] + [1]


def test_build_canonical_ids():
    X = build(6)
    assert X.faces[0].dim == -1
    assert X.faces[0].diagonals == ()
    assert X.faces[0].label == 0
    # vertices come next, in lexicographic diagonal order
    assert X.faces[1].diagonals == (Diagonal(1, 3),)
    assert all(X.face_id(X.faces[g].diagonals) == g for g in range(len(X.faces) - 1))
    interior = X.faces[-1]
    assert interior.is_interior
    assert interior.dim == 3
    assert interior.label == 0b111111
    assert vertices(interior.label) == [1, 2, 3, 4, 5, 6]


def test_labels_are_supports():
    X = build(7)
    for f in X.faces:
        if not f.is_interior:
            assert f.label == support(f.diagonals)


def test_label_monotone_on_covers():
    for n in (5, 6, 7):
        X = build(n)
        for lo, hi in X.covers:
            assert X.faces[lo].label & ~X.faces[hi].label == 0


def test_cover_counts():
    X = build(6)
    below = X.covers_below()
    # every vertex covers exactly the empty face
    for v in X.kept[0]:
        assert below[v] == (0,)
    # the interior cell covers all 14 triangulations
    assert [X.faces[g] for g in sorted(below[-1])] == faces_of_dim(X, X.n - 4)
    # a k-diagonal face covers exactly k subfaces
    for g, f in enumerate(X.faces):
        if not f.is_interior and f.dim >= 0:
            assert len(below[g]) == len(f.diagonals)


def test_facets_are_triangulations():
    for n in (5, 6, 7, 8):
        X = build(n)
        facets = faces_of_dim(X, n - 4)
        assert len(facets) == f_formula(n, n - 3)
        assert all(len(f.diagonals) == n - 3 for f in facets)


def test_interior_cell_only_at_top():
    X = build(4)
    assert X.f_vector() == [1, 2, 1]
    interior = X.faces[-1]
    assert interior.dim == 1
    assert len(faces_of_dim(X, X.n - 4)) == 2


def test_restrict_path_example():
    X = build(6)
    sub = restrict(X, 0b001111)  # {1, 2, 3, 4}
    verts = {f.diagonals[0] for f in faces_of_dim(sub, 0)}
    assert verts == {Diagonal(1, 3), Diagonal(1, 4), Diagonal(2, 4)}
    edges = {f.diagonals for f in faces_of_dim(sub, 1)}
    assert edges == {
        (Diagonal(1, 3), Diagonal(1, 4)),
        (Diagonal(1, 4), Diagonal(2, 4)),
    }
    assert faces_of_dim(sub, 2) == []
    assert not sub.has_interior
    maximal = {str(f) for f in maximal_faces(sub)}
    assert maximal == {"{1-3,1-4}", "{1-4,2-4}"}


def test_restrict_empty_and_full():
    X = build(6)
    assert restrict(X, 0b000011).is_empty  # {1, 2}
    assert restrict(X, 0).is_empty
    full = restrict(X, 0b111111)
    assert len(full) == len(X)
    assert full.has_interior
    for bad in (-1, 1 << 6, 0b100000001):  # the last is {1, 9}
        with pytest.raises(ValueError, match=r"sigma .* is not a subset of 1\.\.6"):
            restrict(X, bad)
    # a vertex list is not misread as a bitmask
    for sigma in ([1, 2, 3], {1, 2, 3}, range(1, 7)):
        with pytest.raises(TypeError):
            restrict(X, sigma)


@pytest.mark.parametrize("n", [6, 7])
def test_restrict_derives_covers_interior_and_f_vector(n):
    X = build(n)
    for mask in range(1 << n):
        R = restrict(X, mask)
        kept_ids = {g for g, f in enumerate(X.faces) if f.label & ~mask == 0}
        kept = [X.faces[g] for g in sorted(kept_ids)]
        expected = [(lo, hi) for lo, hi in X.covers if lo in kept_ids and hi in kept_ids]
        assert R.covers == expected
        assert R.has_interior == (mask == (1 << n) - 1)
        sizes = [0] * (max(len(f.diagonals) for f in kept if not f.is_interior) + 1)
        for f in kept:
            if not f.is_interior:
                sizes[len(f.diagonals)] += 1
        assert R.f_vector() == sizes + [1 for f in kept if f.is_interior]


def test_unclosed_face_list_rejected():
    X = build(5)
    g = X.face_id([(1, 3)])
    faces = X.dissections[:g] + X.dissections[g + 1 :]
    with pytest.raises(ValueError, match=r"lacks its subface \{1-3\}"):
        LabeledComplex(5, faces)


def test_interior_cell_without_its_boundary_rejected():
    # no subface is missing below a simplicial face in either list, but
    # the interior cell's boundary is not all five triangulations
    X = build(5)
    without_one = [*X.dissections[:-2], X.dissections[-1]]
    cases = [([0, None], 0), (without_one, 4)]
    for faces, found in cases:
        with pytest.raises(ValueError, match=f"needs all 5 triangulations, found {found}$"):
            LabeledComplex(5, faces)


def test_face_list_out_of_canonical_order_rejected():
    X = build(5)
    faces = X.dissections
    vertex, interior = faces[1], faces[-1]
    assert [X.faces[g].dim for g in (1, 6, -1)] == [0, 1, 2]
    vertex_late = [faces[0], *faces[2:7], vertex, *faces[7:]]
    interior_early = [*faces[:-2], interior, faces[-2]]
    three = 0b111  # {1-3,1-4,2-4}: bit j is all_diagonals(5)[j]
    simplicial_top = [*faces[:-1], three]
    duplicated = [*faces[:2], vertex, *faces[2:]]
    swapped = [faces[0], faces[2], vertex, *faces[3:]]
    cases = [
        (vertex_late, "face {1-3} of dimension 0 follows one of dimension 1"),
        (interior_early, "face <interior> of dimension 2 is not last at dimension 2"),
        (simplicial_top, "face {1-3,1-4,2-4} has dimension 2, which only the interior"),
        (duplicated, "face {1-3} does not follow {1-3} lexicographically"),
        (swapped, "face {1-3} does not follow {1-4} lexicographically"),
        ([*faces[:-1], 1 << 5, interior], "dissection 32 is not a set of the 5-gon's diagonals"),
        ([*faces[:-1], -1, interior], "dissection -1 is not a set of the 5-gon's diagonals"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledComplex(5, bad)
    assert LabeledComplex(5, list(faces)).covers == build(5).covers


def test_face_list_out_of_order_inside_an_edge_block_rejected():
    # the cases above break the order in dimension 0; these break it
    # between two faces of dimension 1
    X = build(6)
    faces = X.dissections
    g = X.kept[1].start + 1
    assert [str(X.faces[h]) for h in (g, g + 1)] == ["{1-3,1-5}", "{1-3,3-5}"]
    duplicated = [*faces[: g + 1], faces[g], *faces[g + 1 :]]
    swapped = [*faces[:g], faces[g + 1], faces[g], *faces[g + 2 :]]
    cases = [
        (duplicated, "face {1-3,1-5} does not follow {1-3,1-5} lexicographically"),
        (swapped, "face {1-3,1-5} does not follow {1-3,3-5} lexicographically"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledComplex(6, bad)


def test_face_of_crossing_diagonals_rejected():
    X = build(6)
    faces = X.dissections
    bit = {d: 1 << j for j, d in enumerate(all_diagonals(6))}
    pair = bit[Diagonal(1, 3)] | bit[Diagonal(2, 4)]
    triple = pair | bit[Diagonal(1, 4)]

    def with_face(mask):
        # mask inserted into its dimension block in canonical order
        block = X.kept[mask.bit_count() - 1]
        ordered = sorted(
            [*faces[block.start:block.stop], mask],
            key=lambda m: [j for j in range(len(bit)) if m >> j & 1],
        )
        return [*faces[:block.start], *ordered, *faces[block.stop:]]

    cases = [
        (with_face(pair), "face {1-3,2-4} has crossing diagonals"),
        (with_face(triple), "face {1-3,1-4,2-4} lacks its subface {1-3,2-4}"),
        # the order check still fires first
        ([*faces[:-1], pair, faces[-1]], "{1-3,2-4} of dimension 1 follows one of dimension 2"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledComplex(6, bad)


def _rows_by_dict(n, dissections):
    """The facet rows and labels by a dissection -> id dict: the oracle for the constructor.

    Each simplicial face looks up its dissection minus each diagonal, in
    order; the first lookup that fails raises the constructor's message.
    """
    diagonals = all_diagonals(n)
    name = lambda mask: str(Face(0, dissection(mask, diagonals), 0))  # noqa: E731
    index = dict(zip(dissections, range(len(dissections))))
    ends = [support([d]) for d in diagonals]
    below, labels = [], []
    for mask in dissections:
        if mask is None:
            # the triangulations, lead first: in descending id order
            ids = (g for g, m in enumerate(dissections) if m and m.bit_count() == n - 3)
            row = tuple(sorted(ids, reverse=True))
            if len(row) != f_formula(n, n - 3):
                want = f_formula(n, n - 3)
                raise ValueError(f"the interior cell needs all {want} triangulations, found {len(row)}")
            below.append(row)
            labels.append((1 << n) - 1)
            continue
        row, rest = [], mask
        while rest:
            low = rest & -rest
            if mask ^ low not in index:
                raise ValueError(f"face {name(mask)} lacks its subface {name(mask ^ low)}")
            row.append(index[mask ^ low])
            rest ^= low
        if len(row) == 2 and crosses(*dissection(mask, diagonals)):
            raise ValueError(f"face {name(mask)} has crossing diagonals")
        labels.append(labels[row[-1]] | ends[low.bit_length() - 1] if row else 0)
        below.append(tuple(row))
    return below, labels


@pytest.mark.parametrize("n", range(4, 11))
def test_facet_rows_and_labels_match_the_dict_oracle(n):
    X = build(n)
    assert (X.covers_below(), X.labels) == _rows_by_dict(n, X.dissections)


def _message(make):
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


def test_a_missing_subface_is_named_as_the_dict_oracle_names_it():
    X = build(7)
    faces = X.dissections
    bits = {d: 1 << j for j, d in enumerate(all_diagonals(7))}
    d13, d14, d15, d57 = (bits[Diagonal(a, b)] for a, b in ((1, 3), (1, 4), (1, 5), (5, 7)))
    # {1-3} is the parent of the first face above it; {5-7}, the last
    # diagonal, is the last one of every face that holds it, so it is
    # never a parent, and its first face above is {a, 5-7} with parent {a};
    # {1-3,1-4,1-5} lacks both its parent and, first, {1-4,1-5}
    for gone, message in (
        ({d13}, "face {1-3,1-4} lacks its subface {1-3}"),
        ({d57}, "face {1-3,5-7} lacks its subface {5-7}"),
        ({d13 | d14, d14 | d15}, "face {1-3,1-4,1-5} lacks its subface {1-4,1-5}"),
    ):
        bad = [m for m in faces if m not in gone]
        assert _message(lambda: LabeledComplex(7, bad)) == message
        assert _message(lambda: _rows_by_dict(7, bad)) == message
    # faces dropped at random: the same face and subface as the oracle
    rng = random.Random(7)
    simplicial = range(1, len(faces) - 1)
    for _ in range(200):
        gone = set(rng.sample(simplicial, rng.randint(1, 3)))
        bad = [m for g, m in enumerate(faces) if g not in gone]
        assert _message(lambda: LabeledComplex(7, bad)) == _message(
            lambda: _rows_by_dict(7, bad)
        ), sorted(gone)


def test_build_peaks_below_the_dict_it_no_longer_makes():
    # tracemalloc slows the constructor superlinearly: 0.3 s at n = 9, 2 s at n = 10
    dissections = build(9).dissections
    dict_size = sys.getsizeof(dict(zip(dissections, range(len(dissections)))))
    tracemalloc.start()
    try:
        X = LabeledComplex(9, dissections)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(X) == len(dissections)
    # the arrays of the two blocks being read are all it holds for a while
    assert peak - held < dict_size, (peak - held, dict_size)


@pytest.mark.parametrize("n", range(4, 10))
def test_faces_read_as_the_tuple_oracle(n):
    # every non-crossing tuple of diagonals, by size and then in
    # combinations' lexicographic order, labeled by its support
    diagonals = all_diagonals(n)
    oracle = [
        Face(k - 1, ds, support(ds))
        for k in range(n - 2)
        for ds in combinations(diagonals, k)
        if not any(crosses(d, e) for d, e in combinations(ds, 2))
    ]
    oracle.append(Face(n - 3, None, (1 << n) - 1))
    X = build(n)
    assert len(X.faces) == len(oracle)
    for g, face in enumerate(oracle):
        assert X.faces[g] == face, g
        assert X.labels[g] == face.label
        if not face.is_interior:
            assert X.face_id(face.diagonals) == g
    assert X.faces[-1] == oracle[-1] and [X.faces[1], X.faces[2]] == oracle[1:3]


def test_face_id_rejects_what_is_not_a_dissection_in_order():
    X = build(6)
    assert X.face_id([(1, 3), (1, 4)]) == X.face_id([Diagonal(1, 3), Diagonal(1, 4)]) is not None
    assert X.face_id([]) == 0
    for pairs in (
        [(1, 3), (1, 3)],  # repeated: OR-ing its bits would give {1-3}
        [(1, 3), (1, 3), (1, 4)],
        [(1, 2)],  # a side of the hexagon
        [(1, 6)],
        [(3, 1)],
        [(1, 3), (2, 7)],
        [(1, 4), (1, 3)],  # out of canonical order
    ):
        assert X.face_id(pairs) is None, pairs


@pytest.mark.parametrize("n", range(4, 9))
def test_face_id_matches_a_dict_oracle(n):
    X = build(n)
    diagonals = all_diagonals(n)
    oracle = {X.dissections[g]: g for g in X.ids() if X.dissections[g] is not None}
    for mask, g in oracle.items():
        assert X.face_id([d for j, d in enumerate(diagonals) if mask >> j & 1]) == g
    # non-faces: crossing pairs, sets of n - 2 diagonals, random sets, and
    # every face's diagonals reversed
    rng = random.Random(n)
    sets = [list(p) for p in combinations(diagonals, 2) if crosses(*p)]
    sets += [rng.sample(diagonals, n - 2) for _ in range(50)]
    sets += [rng.sample(diagonals, rng.randrange(1, len(diagonals) + 1)) for _ in range(200)]
    for ds in sets:
        ds.sort()
        mask = sum(1 << diagonals.index(d) for d in ds)
        assert X.face_id(ds) == oracle.get(mask), ds
    for mask in oracle:
        ds = [d for j, d in enumerate(diagonals) if mask >> j & 1]
        assert X.face_id(ds[::-1]) == (oracle[mask] if len(ds) < 2 else None)
    # a view answers for its kept faces only
    for Y in (boundary_complex(X), *(restrict(X, rng.randrange(1 << n)) for _ in range(8))):
        for mask, g in oracle.items():
            ds = [d for j, d in enumerate(diagonals) if mask >> j & 1]
            assert Y.face_id(ds) == (g if g in Y else None)


def test_a_face_list_keeps_no_dict_keyed_by_dissection():
    X = build(7)
    restrict(X, 0b1011011)
    # the label index is keyed by label, the blocks by dimension, _bits by diagonal
    assert {k for k, v in vars(X).items() if isinstance(v, dict)} == {"kept", "_bits", "_labels"}
    assert "_index" not in vars(X)
    assert all(type(row) is tuple for row in X.covers_below())


def test_a_complex_is_freed_by_reference_counting():
    gc.disable()
    try:
        X = build(8)
        assert is_acyclic(restrict(X, 0b110111), Field.RATIONAL)  # {1, 2, 3, 5, 6}
        faces, face = X.faces, X.faces[100]
        ref = weakref.ref(X)
        del X
        # a read Face and the face sequence hold the columns, not the complex
        assert ref() is None
        assert faces[100] == face
    finally:
        gc.enable()


def _complexes(n):
    """build(n), its boundary complex, and every restriction of each."""
    X = build(n)
    for parent in (X, boundary_complex(X)):
        yield parent
        for mask in range(1 << n):
            yield restrict(parent, mask)


def test_equal_label_covers_match_the_covers_oracle():
    for n in range(4, 10):
        X = build(n)
        for Y in (X, boundary_complex(X)):
            labels = [f.label for f in Y.faces]
            oracle = [(lo, hi) for lo, hi in Y.covers if labels[lo] == labels[hi]]
            assert list(Y.equal_label_covers()) == oracle, n
    for R in _complexes(6):
        labels = {g: R.faces[g].label for g in R.ids()}
        assert list(R.equal_label_covers()) == [
            (lo, hi) for lo, hi in R.covers if labels[lo] == labels[hi]
        ]



def test_an_empty_skip_mask_leaves_the_stream_as_it_is():
    for R in _complexes(6):
        skip = bytearray(len(R.labels))
        assert list(R.equal_label_covers(skip=skip)) == list(R.equal_label_covers())


def test_the_skip_mask_leaves_out_every_pair_with_a_marked_face():
    X = build(8)
    rng = random.Random(8)
    for Y in (X, boundary_complex(X), restrict(X, 0b10111011)):
        skip = bytearray(rng.random() < 0.3 for _ in Y.labels)
        assert list(Y.equal_label_covers(skip=skip)) == [
            (lo, hi) for lo, hi in Y.equal_label_covers() if not skip[lo] and not skip[hi]
        ]


def test_the_skip_mask_is_read_when_each_block_is_read():
    # marking each yielded upper face leaves it out of the next block's pairs,
    # where it is a lower face, but not out of its own block's pairs
    X = build(8)
    skip = bytearray(len(X.labels))
    got = []
    for pair in X.equal_label_covers(skip=skip):
        got.append(pair)
        skip[pair[1]] = 1
    marked: set[int] = set()
    want = []
    for _, block in groupby(X.equal_label_covers(), key=lambda pair: X.faces[pair[1]].dim):
        seen = set(marked)
        for lo, hi in block:
            if lo not in seen and hi not in seen:
                want.append((lo, hi))
                marked.add(hi)
    assert got == want
    assert len({hi for _, hi in got}) < len(got)  # an upper face in two pairs of its block


def test_equal_label_covers_hold_one_block_at_a_time():
    # streaming the pairs must cost well under the sorted list of them
    X = build(10)
    tracemalloc.start()
    try:
        count = sum(1 for _ in X.equal_label_covers())
        _, streamed = tracemalloc.get_traced_memory()
        pairs = sorted(X.equal_label_covers())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == len(pairs)
    assert streamed < held / 2, (streamed, held)

@pytest.mark.parametrize("n", [5, 6, 7])
def test_every_complex_has_kept_positions(n):
    for Y in _complexes(n):
        ids = list(Y.ids())
        assert ids == [g for block in Y.kept.values() for g in block]
        assert ids == sorted(set(ids)) and len(ids) == len(Y)
        faces = [Y.faces[g] for g in ids]
        dims = [f.dim for f in faces]
        assert Y.f_vector() == [dims.count(d) for d in range(-1, max(dims) + 1)]
        assert Y.has_interior == any(f.is_interior for f in faces)
        assert Y.diagonals() == [f.diagonals[0] for f in faces if f.dim == 0]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_restrictions_hold_their_parents_faces(n):
    for R in _complexes(n):
        if R.parent is None:
            continue
        # a view shares its face list's faces and facet table
        assert R.parent.parent is None
        assert R.faces is R.parent.faces
        assert R.covers_below() is R.parent.covers_below()


@pytest.mark.parametrize("n", [5, 6, 7])
def test_a_face_has_one_id_in_every_complex(n):
    X, *views = _complexes(n)
    for Y in (X, *views):
        kept = {g for ids in Y.kept.values() for g in ids}
        for g, f in enumerate(X.faces):
            if not f.is_interior:
                assert Y.face_id(f.diagonals) == (g if g in kept else None), (g, f)
    for Y in views:
        assert Y.faces is X.faces
        assert [g for g in range(len(X)) if g in Y] == list(Y.ids())


def test_restriction_ids_are_the_face_lists_ids():
    X = build(7)
    R = restrict(X, 0b110111)  # {1, 2, 3, 5, 6}
    g = R.kept[0][2]
    assert R.faces is X.faces and R.faces[g] == X.faces[g]
    assert (g, str(R.faces[g])) == (4, "{1-6}")
    fid = R.face_id([(1, 3), (1, 5)])
    assert fid in R.kept[1] and X.face_id([(1, 3), (1, 5)]) == fid
    assert R.to_json()["faces"] == [{"id": g, **X.faces[g].to_json()} for g in R.ids()]


def test_dimension_blocks_tile_the_face_list():
    for n in range(4, 9):
        X = build(n)
        by_dim: dict[int, list[int]] = {}
        for g, f in enumerate(X.faces):
            by_dim.setdefault(f.dim, []).append(g)
        # the boundary sphere keeps every block but the interior cell's
        for Y, top in ((X, n - 3), (boundary_complex(X), n - 4)):
            assert all(isinstance(block, range) for block in Y.kept.values())
            expected = {d: ids for d, ids in by_dim.items() if d <= top}
            assert {d: list(block) for d, block in Y.kept.items()} == expected
            assert list(Y.kept) == sorted(expected) == list(range(-1, Y.dim + 1))
            assert list(Y.ids()) == list(range(len(Y)))
            assert chain_complex(Y) is chain_complex(X)
            assert chain_complex(Y).bases == X.kept


def test_restrict_is_closed_under_subfaces():
    X = build(6)
    for sigma in [0b001111, 0b010101, 0b101010, 0b111011]:
        sub = restrict(X, sigma)
        present = {sub.faces[g].diagonals for g in sub.ids() if not sub.faces[g].is_interior}
        assert len(present) == len(sub)
        for ds in present:
            for i in range(len(ds)):
                assert ds[:i] + ds[i + 1 :] in present


def test_restriction_derives_faces_when_read():
    X = build(7)
    assert not {"_labels", "_chains"} & set(vars(X))
    R = restrict(X, 0b110111)  # {1, 2, 3, 5, 6}
    assert "_labels" in vars(X)
    assert R.parent is X
    kept = {d: [g for g in X.kept[d] if X.faces[g].label & ~0b0110111 == 0] for d in range(-1, 4)}
    assert R.kept == {d: ids for d, ids in kept.items() if ids}
    # a view owns its kept ids and nothing its face list derives
    assert not {"_labels", "_chains", "covers"} & set(vars(R))
    assert R.faces is X.faces and R._bits is X._bits
    assert R.dissections is X.dissections and R.labels is X.labels
    f_vector = [len(ids) for ids in R.kept.values()]
    assert (len(R), R.f_vector(), R.dim) == (sum(f_vector), f_vector, len(f_vector) - 2)
    assert not R.is_empty and not R.has_interior
    assert R.diagonals() == [
        f.diagonals[0] for f in faces_of_dim(X, 0) if f.label & ~0b0110111 == 0
    ]
    assert [R.faces[g] for g in R.ids()] == [X.faces[g] for ids in R.kept.values() for g in ids]
    assert R.faces[R.face_id([(1, 3), (1, 5)])].label == 0b10101
    assert R.diagonals() == [R.faces[g].diagonals[0] for g in R.kept[0]]


def test_restriction_of_a_restriction():
    X = build(7)
    R = restrict(restrict(X, 0b0101111), 0b1101101)  # {1, 2, 3, 4, 6}, then {1, 3, 4, 6, 7}
    direct = restrict(X, 0b0101101)  # {1, 3, 4, 6}
    assert R.faces == direct.faces
    assert R.covers == direct.covers
    # a label filter of a label filter is one of the face list
    assert R.parent is X and R.kept == direct.kept
    with pytest.raises(AttributeError):
        R.no_such_attribute


def _filtered(X, sigma):
    """The ids of X whose labels lie inside sigma, by brute force, grouped by dimension."""
    labels, kept = X.labels, {}
    for g in X.ids():
        if not labels[g] & ~sigma:
            kept.setdefault(X.faces[g].dim, []).append(g)
    return kept


@pytest.mark.parametrize("n", range(4, 10))
def test_restrict_keeps_exactly_the_labels_inside_sigma(n):
    X = build(n)
    B = boundary_complex(X)
    for sigma in range(1 << n):
        expected = _filtered(X, sigma)
        assert restrict(X, sigma).kept == expected, sigma
        expected.pop(n - 3, None)  # the boundary sphere has no interior cell
        assert restrict(B, sigma).kept == expected, sigma


def test_boundary_complex_drops_interior():
    X = build(6)
    B = boundary_complex(X)
    assert not B.has_interior
    assert B.parent is X and B.faces is X.faces
    assert B.covers_below() is X.covers_below()
    assert len(B) == len(X) - 1
    assert len(X) - 1 not in B and B.face_id(X.faces[-2].diagonals) == len(X) - 2
    assert len(B.covers) == len(X.covers) - len(faces_of_dim(X, X.n - 4))
    assert B.f_vector() == [1, 9, 21, 14]


def test_hasse_pairs_sorted_and_consistent():
    X = build(5)
    pairs = list(X.covers)
    assert pairs == sorted(pairs)
    for lo, hi in pairs:
        assert X.faces[hi].dim == X.faces[lo].dim + 1


def test_face_lookup():
    X = build(6)
    fid = X.face_id([(1, 3), (4, 6)])
    assert fid is not None and X.faces[fid].dim == 1
    assert X.face_id([(1, 3), (2, 6)]) is None


def test_json_round_shape():
    X = build(5)
    data = X.to_json()
    assert data["n"] == 5
    assert len(data["faces"]) == len(X)
    assert data["faces"][0] == {"id": 0, "dim": -1, "diagonals": [], "label": []}
    assert data["faces"][-1]["diagonals"] is None
    assert data["faces"][-1]["label"] == [1, 2, 3, 4, 5]
    assert all(len(c) == 2 for c in data["covers"])
