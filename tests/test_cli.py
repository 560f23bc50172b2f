import json

import pytest

from cycleres.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_tables_contains_verbatim_heptagon_row(capsys):
    code, out, _ = run(capsys, ["tables"])
    assert code == 0
    assert "β^7_d: 1 14 35 35 14 1" in out
    assert out.count("β^7_d: 1 14 35 35 14 1") == 1


def test_tables_lists_all_four_eneagons(capsys):
    code, out, _ = run(capsys, ["tables"])
    assert code == 0
    for n in range(6, 10):
        assert f"n={n}" in out
        assert f"β^{n}_d:" in out
        assert f"f({n},d-1):" in out
    block6 = "n=6\nd: 0 1 2 3 4\nβ^6_d: 1 9 16 9 1\nf(6,d-1): 1 9 21 14 1"
    assert block6 in out


def test_tables_deterministic(capsys):
    _, first, _ = run(capsys, ["tables"])
    _, second, _ = run(capsys, ["tables"])
    assert first == second


def test_tables_json(capsys):
    code, data, _ = run_json(capsys, ["tables", "--json"])
    assert code == 0
    assert [r["n"] for r in data] == [6, 7, 8, 9]
    assert data[0] == {"n": 6, "betti": [1, 9, 16, 9, 1], "f": [1, 9, 21, 14, 1]}
    assert data[3]["betti"] == [1, 27, 105, 189, 189, 105, 27, 1]


def test_fvector_human(capsys):
    code, out, _ = run(capsys, ["fvector", "6"])
    assert code == 0
    assert out == "f(6,d-1): 1 9 21 14 1\nenumeration agrees with closed form\n"


def test_fvector_json(capsys):
    code, data, _ = run_json(capsys, ["fvector", "7", "--json"])
    assert code == 0
    assert data["fvector"] == [1, 14, 56, 84, 42, 1]
    assert data["formula"] == data["fvector"]
    assert data["agree"] is True


def test_betti_default_checks_all_methods(capsys):
    code, out, _ = run(capsys, ["betti", "6"])
    assert code == 0
    assert out == "β^6_d: 1 9 16 9 1\nagreement: hochster = closed = recursion\n"


def test_betti_single_method(capsys):
    code, out, _ = run(capsys, ["betti", "9", "--method", "recursion"])
    assert code == 0
    assert out == "β^9_d: 1 27 105 189 189 105 27 1\nmethod: recursion\n"


def test_betti_json(capsys):
    code, data, _ = run_json(capsys, ["betti", "8", "--json"])
    assert code == 0
    assert data == {"n": 8, "method": "all", "betti": [1, 20, 64, 90, 64, 20, 1]}


def test_dissections_by_support_hexagon(capsys):
    code, out, _ = run(capsys, ["dissections", "6", "3", "--by-support"])
    assert code == 0
    assert "dissections(6,3): 14" in out
    assert "\n3:2 4:12\n" in out


def test_dissections_by_support_heptagon(capsys):
    code, out, _ = run(capsys, ["dissections", "7", "4", "--by-support"])
    assert code == 0
    assert "dissections(7,4): 42" in out
    assert "\n4:14 5:28\n" in out


def test_dissections_by_support_octagon(capsys):
    code, out, _ = run(capsys, ["dissections", "8", "5", "--by-support"])
    assert code == 0
    assert "dissections(8,5): 132" in out
    assert "\n4:4 5:64 6:64\n" in out


def test_dissections_trees(capsys):
    code, out, _ = run(capsys, ["dissections", "6", "3", "--trees"])
    assert code == 0
    assert "trees: 12" in out


def test_dissections_json_uses_string_support_keys(capsys):
    code, data, _ = run_json(
        capsys, ["dissections", "6", "3", "--by-support", "--trees", "--json"]
    )
    assert code == 0
    assert data == {
        "n": 6,
        "d": 3,
        "count": 14,
        "by_support": {"3": 2, "4": 12},
        "trees": 12,
    }


def test_minimality_pentagon_is_minimal(capsys):
    code, out, _ = run(capsys, ["minimality", "5"])
    assert code == 0
    assert out == "n=5: minimal: yes (0 equal-label cover pairs)\n"


def test_minimality_hexagon_human(capsys):
    code, out, _ = run(capsys, ["minimality", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=6: minimal: no (12 equal-label cover pairs)"
    assert "{1-3,4-6} < {1-3,3-6,4-6}  label {1,3,4,6}" in lines[1:]
    assert len(lines) == 13


def test_minimality_hexagon_json(capsys):
    code, data, _ = run_json(capsys, ["minimality", "6", "--json"])
    assert code == 0
    assert data["minimal"] is False
    assert len(data["witnesses"]) == 12
    known = {
        "lower": [[1, 3], [4, 6]],
        "upper": [[1, 3], [3, 6], [4, 6]],
        "label": [1, 3, 4, 6],
    }
    assert known in data["witnesses"]


def test_verify_resolution_pentagon_human(capsys):
    code, out, _ = run(capsys, ["verify-resolution", "5"])
    assert code == 0
    assert out == (
        "n=5 field=gf2\n"
        "checked: 32 restrictions (11 empty, 21 acyclic)\n"
        "failures: none\n"
        "cone agreement: ok\n"
        "minimal: yes\n"
    )


def test_verify_resolution_hexagon_json_keys(capsys):
    code, data, _ = run_json(capsys, ["verify-resolution", "6", "--json"])
    assert code == 0
    assert set(data) == {
        "n", "field", "checked", "empty", "failures", "cone_mismatches", "ok",
        "minimal", "witnesses",
    }
    assert data["n"] == 6
    assert data["field"] == "gf2"
    assert data["checked"] == 64
    assert data["empty"] == 13
    assert data["failures"] == []
    assert data["cone_mismatches"] == []
    assert data["ok"] is True
    assert data["minimal"] is False
    assert len(data["witnesses"]) == 12


def test_verify_resolution_rational_field(capsys):
    code, data, _ = run_json(
        capsys, ["verify-resolution", "5", "--field", "rational", "--json"]
    )
    assert code == 0
    assert data["field"] == "rational"
    assert data["failures"] == []


def test_verify_resolution_threads_match_serial(capsys):
    _, serial, _ = run(capsys, ["verify-resolution", "5", "--json"])
    _, parallel, _ = run(capsys, ["verify-resolution", "5", "--threads", "2", "--json"])
    assert serial == parallel


def test_morse_hexagon_human(capsys):
    code, out, _ = run(capsys, ["morse", "6"])
    assert code == 0
    assert out == (
        "n=6: 5 matched pairs\n"
        "valid: yes\n"
        "critical (dim -1..3): 1 9 16 9 1\n"
        "critical edges: 16, β^6_2: 16, agree\n"
        "proper_d2: 18 inscribed_triangles: 2 critical_edges: 16\n"
    )


def test_morse_extend_heptagon_reaches_betti_row(capsys):
    code, out, _ = run(capsys, ["morse", "7", "--extend"])
    assert code == 0
    lines = out.splitlines()
    assert "extended: 49 matched pairs" in lines
    assert "extended valid: yes" in lines
    assert lines[-1] == "extended critical: 1 14 35 35 14 1"


def test_morse_json(capsys):
    code, data, _ = run_json(capsys, ["morse", "6", "--json"])
    assert code == 0
    assert data["n"] == 6
    assert data["valid"] is True
    assert data["problems"] == []
    assert data["critical"] == [1, 9, 16, 9, 1]
    assert len(data["pairs"]) == 5
    assert all(len(pair) == 2 for pair in data["pairs"])
    assert data["formulas"] == {
        "proper_d2": 18,
        "inscribed_triangles": 2,
        "critical_edges": 16,
    }


def test_morse_extend_json(capsys):
    code, data, _ = run_json(capsys, ["morse", "6", "--extend", "--json"])
    assert code == 0
    assert data["extended"]["valid"] is True
    assert data["extended"]["critical"] == [1, 9, 16, 9, 1]
    assert len(data["extended"]["pairs"]) >= len(data["pairs"])


def test_syt_shape_enumerate(capsys):
    code, out, _ = run(capsys, ["syt", "--shape", "2,2,1", "--enumerate"])
    assert code == 0
    assert out == (
        "shape (2,2,1)\n"
        "tableaux: 5 (conjugate (3,2) has the same count)\n"
        "12/34/5\n"
        "12/35/4\n"
        "13/24/5\n"
        "13/25/4\n"
        "14/25/3\n"
    )


def test_syt_family_agrees_with_betti(capsys):
    code, out, _ = run(capsys, ["syt", "--family", "syzygy", "--n", "7", "--d", "3"])
    assert code == 0
    assert out == (
        "family syzygy n=7 d=3: shape (4,2,1)\n"
        "tableaux: 35, β^7_3: 35, agree\n"
    )


def test_syt_family_json(capsys):
    code, data, _ = run_json(
        capsys, ["syt", "--family", "assoc", "--n", "6", "--d", "2", "--json"]
    )
    assert code == 0
    assert data["shape"] == [3, 3, 1]
    assert data["count"] == 21
    assert data["expected"] == 21
    assert data["agree"] is True


def test_involution_verify_human(capsys):
    code, out, _ = run(capsys, ["involution", "6", "2", "--verify"])
    assert code == 0
    assert out == (
        "family (6,2): 21 tableaux\n"
        "fixed: 16, β^6_2: 16, agree\n"
        "σ² = id: verified\n"
    )


def test_involution_verify_json(capsys):
    code, data, _ = run_json(capsys, ["involution", "7", "3", "--verify", "--json"])
    assert code == 0
    assert data["tableaux"] == 84
    assert data["fixed"] == 35
    assert data["agree"] is True
    assert data["verified"] is True
    assert data["problems"] == []


def test_complex_square_json(capsys):
    code, data, _ = run_json(capsys, ["complex", "4", "--json"])
    assert code == 0
    assert data["n"] == 4
    assert data["faces"][0] == {"id": 0, "dim": -1, "diagonals": [], "label": []}
    interior = data["faces"][-1]
    assert interior["dim"] == 1
    assert interior["diagonals"] is None
    assert interior["label"] == [1, 2, 3, 4]


def test_complex_pentagon_human(capsys):
    code, out, _ = run(capsys, ["complex", "5"])
    assert code == 0
    assert out == "n=5: 12 faces, 20 covers, dim 2\nf(5,d-1): 1 5 5 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fvector", "3"],
        ["verify-resolution", "9"],
        ["syt", "--shape", "2,2", "--family", "assoc", "--n", "6", "--d", "2"],
        ["syt"],
        ["syt", "--family", "assoc"],
        ["syt", "--shape", "2,3"],
        ["syt", "--shape", "2,x"],
        ["verify-resolution", "5", "--threads", "0"],
        ["betti", "3"],
        ["minimality", "3"],
        ["morse", "3"],
        ["involution", "5", "0"],
        ["dissections", "6", "4"],
        ["complex", "3"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_resolution_max_n_unlocks_larger_n(capsys):
    code, data, _ = run_json(
        capsys, ["verify-resolution", "9", "--max-n", "9", "--threads", "2", "--json"]
    )
    assert code == 0
    assert data["checked"] == 512
    assert data["failures"] == []
    assert data["minimal"] is False


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_progress_goes_to_stderr_not_stdout(capsys):
    code, out, err = run(capsys, ["verify-resolution", "7", "--json"])
    assert code == 0
    json.loads(out)
    assert "checked" in err
