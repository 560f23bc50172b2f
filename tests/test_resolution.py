import pytest

from cycleres.associahedron import build
from cycleres.homology import Field
from cycleres.polygon import Diagonal
from cycleres.resolution import (
    cone_apex,
    cone_witness,
    minimality_witnesses,
    verify_supports_resolution,
)


def test_cone_witness_examples():
    assert cone_witness(6, {1, 2, 3, 4}) == Diagonal(1, 4)
    assert cone_witness(6, {1, 3}) == Diagonal(1, 3)
    assert cone_witness(6, {2, 3}) is None


def test_cone_witness_needs_rotation():
    # predecessor of 3 is outside, so 3 rotates to position 1
    assert cone_witness(6, {1, 3, 4, 5, 6}) == Diagonal(1, 3)
    # wrap-around adjacent runs
    assert cone_witness(7, {6, 7, 1}) == Diagonal(1, 6)
    assert cone_witness(6, {1, 6}) is None
    assert cone_witness(7, {2, 3}) is None


def test_cone_apex_validation():
    with pytest.raises(ValueError):
        cone_apex(6, {3})
    with pytest.raises(ValueError):
        cone_apex(6, {1, 2, 3, 4, 5, 6})
    with pytest.raises(ValueError):
        cone_apex(6, {0, 3})
    with pytest.raises(ValueError):
        cone_apex(6, set())


def test_cone_apex_skips_enumeration():
    # same answers as cone_witness on every proper subset of a heptagon
    for mask in range(1 << 7):
        sigma = {v for v in range(1, 8) if mask >> (v - 1) & 1}
        if not 2 <= len(sigma) < 7:
            continue
        assert cone_apex(7, sigma) == cone_witness(7, sigma)


def test_sweep_n5_gf2():
    rep = verify_supports_resolution(5, Field.GF2)
    assert rep.ok
    assert rep.checked == 32
    assert rep.failures == ()
    assert rep.cone_mismatches == ()
    # empty restrictions: the empty set, 5 singletons, 5 adjacent pairs
    assert rep.empty_restrictions == 11


def test_sweep_n6_rational():
    rep = verify_supports_resolution(6, Field.RATIONAL)
    assert rep.ok
    assert rep.checked == 64
    assert rep.empty_restrictions == 13


def test_sweep_accepts_field_names():
    assert verify_supports_resolution(4, "rational").ok
    assert verify_supports_resolution(4, "gf2").ok


def test_sweep_range_rejection():
    with pytest.raises(ValueError):
        verify_supports_resolution(3)
    with pytest.raises(ValueError):
        verify_supports_resolution(9)
    with pytest.raises(ValueError):
        verify_supports_resolution(9, max_n=8)
    with pytest.raises(ValueError):
        verify_supports_resolution(4, workers=0)


def test_sweep_parallel_matches_serial():
    serial = verify_supports_resolution(5, Field.GF2)
    parallel = verify_supports_resolution(5, Field.GF2, workers=2)
    assert serial == parallel


def test_progress_callback_monotone():
    for workers in (1, 2):
        seen = []
        verify_supports_resolution(
            4, workers=workers, progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(done, 16) for done in range(1, 17)], workers


def test_report_json():
    js = verify_supports_resolution(4).to_json()
    assert js["n"] == 4
    assert js["field"] == "gf2"
    assert js["checked"] == 16
    assert js["failures"] == []
    assert js["cone_mismatches"] == []
    assert js["ok"] is True


def test_minimality_n5_empty():
    assert minimality_witnesses(build(5)) == []


def test_minimality_n6_contains_known_pair():
    witnesses = minimality_witnesses(build(6))
    assert witnesses
    pairs = {(f.diagonals, g.diagonals) for f, g in witnesses}
    lower = (Diagonal(1, 3), Diagonal(4, 6))
    upper = (Diagonal(1, 3), Diagonal(3, 6), Diagonal(4, 6))
    assert (lower, upper) in pairs
    for f, g in witnesses:
        assert f.label == g.label


def test_minimality_empty_iff_n_at_most_5():
    for n in range(4, 10):
        witnesses = minimality_witnesses(build(n))
        assert bool(witnesses) == (n >= 6)
