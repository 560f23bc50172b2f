"""Self-tests of the benchmark harness: python3 -m pytest bench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, betti_row, check, empty_restrictions, f_vector

BENCH = Path(__file__).resolve().parent

# `cycleres verify-resolution 6`, as printed in the README
SWEEP_6 = """n=6 field=gf2
checked: 64 restrictions (13 empty, 51 acyclic)
failures: none
cone agreement: ok
minimal: no (12 witnesses)
"""


def test_self_times_on_a_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
        ("c", 7.5, 8.0, 2),
        ("d", 3.0, 6.0, 0),  # overlaps a and b: only [4, 5] is new coverage
        ("e", 8.5, 9.5, 2),  # runs past its parent: clipped to [8.5, 9]
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 1.0, 0.5, 3.0, 1.0])
    metrics = tracing.layer_metrics(
        [("bench.self", 0.0, 10.0, -1), ("cli.self", 1.0, 9.0, 0),
         ("associahedron.build", 2.0, 5.0, 1), ("polygon.iter_noncrossing", 3.0, 4.0, 2)],
        {},
    )
    assert metrics["bench.self.s"] == pytest.approx(2.0)
    assert metrics["cli.self.s"] == pytest.approx(5.0)
    assert metrics["associahedron.build.s"] == pytest.approx(2.0)
    assert metrics["associahedron.build.calls"] == 1
    assert metrics["trace.solve_s"] == metrics["trace.self_sum_s"] == pytest.approx(10.0)


@pytest.mark.parametrize("n, empty", [(6, 13), (8, 17), (9, 19)])
def test_empty_restriction_count(n, empty):
    assert empty_restrictions(n) == empty


def test_closed_forms_match_the_readme():
    assert f_vector(7) == [1, 14, 56, 84, 42, 1]
    assert betti_row(7) == [1, 14, 35, 35, 14, 1]
    assert betti_row(11) == [1, 44, 231, 594, 924, 924, 594, 231, 44, 1]


def test_oracle_rejects_a_wrong_line():
    argv = ["verify-resolution", "6", "--field", "gf2"]
    assert check(argv, 0, SWEEP_6) == []
    wrong = SWEEP_6.replace("(13 empty, 51 acyclic)", "(12 empty, 52 acyclic)")
    assert check(argv, 0, wrong) == [
        "missing line 'checked: 64 restrictions (13 empty, 51 acyclic)'"
    ]
    assert check(argv, 1, SWEEP_6) == ["exit code 1"]


def test_traced_round_wraps_every_binding():
    request = json.dumps({"calls": [["verify-resolution", "5", "--field", "gf2"]], "trace": True})
    out = subprocess.run([sys.executable, str(BENCH / "worker.py"), request],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    result = json.loads(out)
    call = result["calls"][0]
    assert check(call["argv"], call["code"], call["stdout"]) == []
    metrics = tracing.layer_metrics([tuple(s) for s in result["spans"]], result["counts"])
    assert metrics["associahedron.build.calls"] == 2  # the sweep, then minimality
    assert metrics["associahedron.restrict.calls"] == 32
    assert metrics["resolution.homology_checks"] == 32 - empty_restrictions(5)
    assert metrics["polygon.dissections"] == 2 * sum(f_vector(5)[:-1])
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.solve_s"])
    assert metrics["trace.solve_s"] == pytest.approx(result["solve_s"], abs=1e-3)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
