import pytest

from cycleres.associahedron import (
    Face,
    LabeledComplex,
    boundary_complex,
    build,
    f_formula,
    restrict,
)
from cycleres.polygon import Diagonal, support


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
    assert X.faces[0].label == frozenset()
    # vertices come next, in lexicographic diagonal order
    assert X.faces[1].diagonals == (Diagonal(1, 3),)
    assert [f.id for f in X.faces] == list(range(len(X)))
    interior = X.faces[-1]
    assert interior.is_interior
    assert interior.dim == 3
    assert interior.label == frozenset(range(1, 7))


def test_labels_are_supports():
    X = build(7)
    for f in X.faces:
        if not f.is_interior:
            assert f.label == support(f.diagonals)


def test_label_monotone_on_covers():
    for n in (5, 6, 7):
        X = build(n)
        for lo, hi in X.covers:
            assert X.face(lo).label <= X.face(hi).label


def test_cover_counts():
    X = build(6)
    below = X.covers_below()
    # every vertex covers exactly the empty face
    for v in X.faces_of_dim(0):
        assert below[v.id] == [0]
    # the interior cell covers all 14 triangulations
    interior = X.faces[-1]
    assert sorted(below[interior.id]) == sorted(f.id for f in X.facets())
    # a k-diagonal face covers exactly k subfaces
    for f in X.faces:
        if not f.is_interior and f.dim >= 0:
            assert len(below[f.id]) == len(f.diagonals)


def test_facets_are_triangulations():
    for n in (5, 6, 7, 8):
        X = build(n)
        facets = X.facets()
        assert len(facets) == f_formula(n, n - 3)
        assert all(len(f.diagonals) == n - 3 for f in facets)


def test_interior_cell_only_at_top():
    X = build(4)
    assert X.f_vector() == [1, 2, 1]
    interior = X.faces[-1]
    assert interior.dim == 1
    assert len(X.facets()) == 2


def test_restrict_path_example():
    X = build(6)
    sub = restrict(X, {1, 2, 3, 4})
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
    assert restrict(X, {1, 2}).is_empty
    assert restrict(X, set()).is_empty
    full = restrict(X, range(1, 7))
    assert len(full) == len(X)
    assert full.has_interior
    with pytest.raises(ValueError):
        restrict(X, {1, 9})


@pytest.mark.parametrize("n", [6, 7])
def test_restrict_derives_covers_interior_and_f_vector(n):
    X = build(n)
    full = frozenset(range(1, n + 1))
    for mask in range(1 << n):
        sigma = frozenset(v for v in full if mask >> (v - 1) & 1)
        R = restrict(X, sigma)
        kept = [f for f in X.faces if f.label <= sigma]
        idmap = {f.id: i for i, f in enumerate(kept)}
        expected = [
            (idmap[lo], idmap[hi]) for lo, hi in X.covers if lo in idmap and hi in idmap
        ]
        assert R.covers == expected
        assert R.has_interior == (sigma == full)
        sizes = [0] * (max(len(f.diagonals) for f in kept if not f.is_interior) + 1)
        for f in kept:
            if not f.is_interior:
                sizes[len(f.diagonals)] += 1
        assert R.f_vector() == sizes + [1 for f in kept if f.is_interior]


def test_unclosed_face_list_rejected():
    faces = [f for f in build(5).faces if f.diagonals != (Diagonal(1, 3),)]
    faces = [Face(i, f.dim, f.diagonals, f.label) for i, f in enumerate(faces)]
    with pytest.raises(ValueError, match=r"lacks its subface \{1-3\}"):
        LabeledComplex(5, faces)


def test_restrict_is_closed_under_subfaces():
    X = build(6)
    for sigma in [{1, 2, 3, 4}, {1, 3, 5}, {2, 4, 6}, {1, 2, 4, 5, 6}]:
        sub = restrict(X, sigma)
        present = {f.diagonals for f in sub.faces if not f.is_interior}
        for ds in present:
            for i in range(len(ds)):
                assert ds[:i] + ds[i + 1 :] in present


def test_boundary_complex_drops_interior():
    X = build(6)
    B = boundary_complex(X)
    assert not B.has_interior
    assert len(B) == len(X) - 1
    assert len(B.covers) == len(X.covers) - len(X.facets())
    assert B.f_vector() == [1, 9, 21, 14]


def test_hasse_pairs_sorted_and_consistent():
    X = build(5)
    pairs = list(X.covers)
    assert pairs == sorted(pairs)
    for lo, hi in pairs:
        assert X.face(hi).dim == X.face(lo).dim + 1


def test_face_lookup():
    X = build(6)
    f = X.face_by_diagonals([(1, 3), (4, 6)])
    assert f is not None and f.dim == 1
    assert X.face_by_diagonals([(1, 3), (2, 6)]) is None


def test_json_round_shape():
    X = build(5)
    data = X.to_json()
    assert data["n"] == 5
    assert len(data["faces"]) == len(X)
    assert data["faces"][0] == {"id": 0, "dim": -1, "diagonals": [], "label": []}
    assert data["faces"][-1]["diagonals"] is None
    assert data["faces"][-1]["label"] == [1, 2, 3, 4, 5]
    assert all(len(c) == 2 for c in data["covers"])
