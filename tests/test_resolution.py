import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycleres import resolution
from cycleres.associahedron import build, restrict
from cycleres.homology import Field
from cycleres.polygon import Diagonal, all_diagonals
from cycleres.resolution import (
    ResolutionReport,
    cone_apex,
    cone_witness,
    minimality_witnesses,
    verify_supports_resolution,
)


def test_cone_witness_examples():
    assert cone_witness(6, 0b001111) == Diagonal(1, 4)  # {1, 2, 3, 4}
    assert cone_witness(6, 0b000101) == Diagonal(1, 3)  # {1, 3}
    assert cone_witness(6, 0b000110) is None  # {2, 3}
    # two runs start at 1 and at 4: the apex comes from the least start
    assert cone_witness(6, 0b011011) == Diagonal(1, 5)  # {1, 2, 4, 5}


def test_cone_witness_needs_rotation():
    # predecessor of 3 is outside, so 3 rotates to position 1
    assert cone_witness(6, 0b111101) == Diagonal(1, 3)  # {1, 3, 4, 5, 6}
    # wrap-around adjacent runs
    assert cone_witness(7, 0b1100001) == Diagonal(1, 6)  # {6, 7, 1}
    assert cone_witness(6, 0b100001) is None  # {1, 6}
    assert cone_witness(7, 0b0000110) is None  # {2, 3}


def test_cone_apex_validation():
    with pytest.raises(ValueError):
        cone_apex(6, 0b000100)  # {3}
    with pytest.raises(ValueError):
        cone_apex(6, 0b111111)
    with pytest.raises(ValueError):
        cone_apex(6, 1 << 6 | 0b100)  # a vertex 7
    with pytest.raises(ValueError):
        cone_apex(6, -1)
    with pytest.raises(ValueError):
        cone_apex(6, 0)


def test_cone_functions_refuse_a_vertex_list():
    # a list is not misread as a set of vertices: only a bitmask is a vertex set
    for sigma in ([1, 3, 5], {1, 3, 5}, range(1, 4)):
        with pytest.raises(TypeError):
            cone_apex(6, sigma)
        with pytest.raises(TypeError):
            cone_witness(6, sigma)


def test_cone_apex_skips_enumeration():
    # same answers as cone_witness on every proper subset, so the apex's
    # wrap-around at both ends of the polygon is checked for each n
    for n in range(4, 10):
        for mask in range(1 << n):
            if 2 <= mask.bit_count() < n:
                assert cone_apex(n, mask) == cone_witness(n, mask), (n, mask)


@pytest.mark.parametrize("n", range(4, 9))
def test_cone_check_matches_maximal_faces(n, monkeypatch):
    # the vertex-bucket form against "apex in every maximal face", for the
    # cone apex and for every other diagonal standing in as the apex
    X = build(n)
    verdicts = set()
    for mask in range(1 << n):
        if not 2 <= mask.bit_count() < n:
            continue
        R = restrict(X, mask)
        maximal = R.maximal_faces()
        for apex in [cone_apex(n, mask), *all_diagonals(n)]:
            monkeypatch.setattr(resolution, "cone_apex", lambda n, sigma: apex)
            if R.is_empty:
                old = apex is None
            else:
                old = apex is not None and all(apex in f.diagonals for f in maximal)
            assert resolution._cone_agrees(n, mask, R) == old, (mask, apex)
            verdicts.add(old)
        monkeypatch.undo()
        assert resolution._cone_agrees(n, mask, R)
    assert verdicts == {True, False}


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


def test_workers_capped_at_cpu_count(monkeypatch):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    # the sweep imports the pool class when it needs one, so patch it where it lives
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(resolution, "_worker_check", None)
    monkeypatch.setattr(resolution.os, "cpu_count", lambda: 2)
    serial = verify_supports_resolution(4)
    assert verify_supports_resolution(4, workers=100_000) == serial
    assert verify_supports_resolution(4, workers=2) == serial
    assert pools == [2, 2]
    monkeypatch.setattr(resolution.os, "cpu_count", lambda: None)
    assert verify_supports_resolution(4, workers=3) == serial
    assert pools == [2, 2]


def test_no_command_loads_the_process_pool_on_import():
    # only verify-resolution --threads K > 1 runs a pool, and it imports one then
    src = str(Path(resolution.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    heavy = ("concurrent.futures", "multiprocessing", "logging", "socket")
    code = (
        "import sys; before = set(sys.modules); import cycleres.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules and m not in before])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_report_json_lists_failing_sigmas():
    report = ResolutionReport(6, Field.GF2, 64, 13, (0b000111,), (0b101000,))
    js = report.to_json()
    assert js["failures"] == [[1, 2, 3]]
    assert js["cone_mismatches"] == [[4, 6]]
    assert js["ok"] is False


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
