import gc
import re
import tracemalloc
import weakref
from itertools import combinations

import pytest

from cycleres.associahedron import (
    Face,
    LabeledComplex,
    boundary_complex,
    build,
    f_formula,
    restrict,
)
from cycleres.homology import Field, chain_complex, is_acyclic
from cycleres.polygon import Diagonal, all_diagonals, crosses, support, vertices


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
        assert below[v] == [0]
    # the interior cell covers all 14 triangulations
    assert [X.faces[g] for g in sorted(below[-1])] == X.faces_of_dim(X.n - 4)
    # a k-diagonal face covers exactly k subfaces
    for g, f in enumerate(X.faces):
        if not f.is_interior and f.dim >= 0:
            assert len(below[g]) == len(f.diagonals)


def test_facets_are_triangulations():
    for n in (5, 6, 7, 8):
        X = build(n)
        facets = X.faces_of_dim(n - 4)
        assert len(facets) == f_formula(n, n - 3)
        assert all(len(f.diagonals) == n - 3 for f in facets)


def test_interior_cell_only_at_top():
    X = build(4)
    assert X.f_vector() == [1, 2, 1]
    interior = X.faces[-1]
    assert interior.dim == 1
    assert len(X.faces_of_dim(X.n - 4)) == 2


def test_restrict_path_example():
    X = build(6)
    sub = restrict(X, 0b001111)  # {1, 2, 3, 4}
    verts = {f.diagonals[0] for f in sub.faces_of_dim(0)}
    assert verts == {Diagonal(1, 3), Diagonal(1, 4), Diagonal(2, 4)}
    edges = {f.diagonals for f in sub.faces_of_dim(1)}
    assert edges == {
        (Diagonal(1, 3), Diagonal(1, 4)),
        (Diagonal(1, 4), Diagonal(2, 4)),
    }
    assert sub.faces_of_dim(2) == []
    assert not sub.has_interior
    maximal = {str(f) for f in sub.maximal_faces()}
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
        # a view shares its face list's faces, facet table and lookup
        assert R.parent.parent is None
        assert R.faces is R.parent.faces
        assert R.covers_below() is R.parent.covers_below()


@pytest.mark.parametrize("n", [5, 6, 7])
def test_a_face_has_one_id_in_every_complex(n):
    X, *views = _complexes(n)
    for Y in (X, *views):
        for d in Y.kept:
            assert [Y.faces[g] for g in Y.kept[d]] == Y.faces_of_dim(d)
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
            assert all(Y.faces_of_dim(d) == [Y.faces[g] for g in b] for d, b in Y.kept.items())


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
    assert R.faces is X.faces and R._index is X._index
    assert R.dissections is X.dissections and R.labels is X.labels
    f_vector = [len(ids) for ids in R.kept.values()]
    assert (len(R), R.f_vector(), R.dim) == (sum(f_vector), f_vector, len(f_vector) - 2)
    assert not R.is_empty and not R.has_interior
    assert R.diagonals() == [
        f.diagonals[0] for f in X.faces_of_dim(0) if f.label & ~0b0110111 == 0
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


def test_boundary_complex_drops_interior():
    X = build(6)
    B = boundary_complex(X)
    assert not B.has_interior
    assert B.parent is X and B.faces is X.faces
    assert B.covers_below() is X.covers_below()
    assert len(B) == len(X) - 1
    assert len(X) - 1 not in B and B.face_id(X.faces[-2].diagonals) == len(X) - 2
    assert len(B.covers) == len(X.covers) - len(X.faces_of_dim(X.n - 4))
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
