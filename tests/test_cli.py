import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycleres import cli
from cycleres.cli import main
from cycleres.homology import Field
from cycleres.resolution import ResolutionReport


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


def test_verify_resolution_prints_failing_sigmas(capsys, monkeypatch):
    report = ResolutionReport(6, Field.GF2, 64, 13, (0b000111,), (0b101000,))
    monkeypatch.setattr(cli, "verify_supports_resolution", lambda *a, **k: report)
    code, out, _ = run(capsys, ["verify-resolution", "6"])
    assert code == 1
    assert "failures: [1, 2, 3]\n" in out
    assert "cone mismatches: [4, 6]\n" in out


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


def test_involution_verify_rejects_a_wrong_fixed_set(capsys, monkeypatch):
    # the fixed set keeps its size, 16, but restricts onto one of the 16
    # syzygy tableaux of shape (3,2,1) only
    first = cli.enumerate_syt((3, 2, 1))[0]
    monkeypatch.setattr(cli, "restrict_to_syzygy", lambda t: first)
    code, out, _ = run(capsys, ["involution", "6", "2", "--verify"])
    assert code == 1
    assert out == (
        "family (6,2): 21 tableaux\n"
        "fixed: 16, β^6_2: 16, agree\n"
        "σ² = id: FAILED\n"
        "problem: fixed tableaux do not restrict onto the (3,2,1) tableaux\n"
    )


def test_involution_verify_at_n4_has_no_syzygy_check(capsys, monkeypatch):
    def refuse(t):
        raise ValueError("tableau does not restrict")

    monkeypatch.setattr(cli, "restrict_to_syzygy", refuse)
    code, out, _ = run(capsys, ["involution", "4", "1", "--verify"])
    assert code == 0
    assert out.endswith("σ² = id: verified\n")


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
        ["syt", "--shape", "3,2", "--n", "5"],
        ["syt", "--shape", "3,2", "--d", "1"],
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


# sha256 of stdout, in text and in --json form for every subcommand: neither
# how a label is stored nor how a report is built may change a byte of what
# the CLI prints.
PINNED_STDOUT = {
    "complex 6 --json": "c47a11cc0a6eed1908cd120f6f6256cb4d38098a84900b68a728d7066cb31ce3",
    "complex 8 --json": "3f2f18c172349408ed45bad89a68357f794403fe1e069e9b9b3c632270d10fcf",
    "minimality 7": "2c58cf633683ae08cf2cef5971ede4bd2d3eb2baac8cc1e030eab6a6f055cfdb",
    "minimality 7 --json": "418b41c09e852d14b41acf40e0af2bb37361453616617a635b1bd0aa4db4e6cb",
    "verify-resolution 6 --json":
        "10b66ceedb9b7b968fe0015dae72db6143a962083bcb3f0cf50df9599fc2ddd0",
    "morse 8 --extend --json": "6cda9cafb24050bc2f03461b12109d7eaa8bcc301b910b137138857b50db7315",
    "fvector 8": "c29f5d3b777273d97d8ff16eed3961852e452537af15962065204a092dc5348f",
    "fvector 8 --json": "d2cebe1e70bfa243febb145f6ff55177624684c1edb22b8ca30819433ecbf5ec",
    "betti 9": "295da249945d1eae6cc9b92e86b741055e71cff954743010d3d5fdc53bd981e2",
    "betti 9 --method hochster --json":
        "e3eb8185b4f5b3d71c0c748c303d5d50534b35c936800ffc2c6782367aef97eb",
    "tables": "41694551312324969648dae05e5934774e78c2207344fb9dfcad0aed972e6c27",
    "tables --json": "648062c147ea5f5f8076f1053025b3cfdeb20c49148220df9464065711f57f21",
    "dissections 9 3 --by-support --trees --json":
        "71be1785a2951683d7293592a6e13c2f65cb1c68ad5fb2793bf198972d9ade76",
    "dissections 8 5 --by-support --trees":
        "7685a4a8b92d6c5ef11aa4bf78b77ab1e4d0b16b5a4f2401ce536d01cff899f6",
    "dissections 11 4 --by-support --trees":
        "044de82aa9266f58aeff80fc63a4b06ffbccd96523f10634b23b8015a4ccdf2b",
    "complex 5": "fcef92dfd720091c2a671d84c44487ca4c5d7ec67709e05d170706d5282b9a5e",
    "verify-resolution 6": "e3a395a3e735e115f41c8110400193534d11ea3a3964d3cc2015001952e10080",
    "verify-resolution 5 --field rational --json":
        "3aa942d0b930317736b521416a7338d7f481f37c40be2a5a4eae7079573d1936",
    "minimality 6": "2203b6c300ba82f2b0f211c1ec3676200d8aa784d49cfb178928d5aa045a06c6",
    "morse 7 --extend": "a1a528eef37a138e1a6665b12ebbce585f05868f0b23b2c19ba751d4f389a490",
    "morse 6 --json": "4a19ce4dd91b1543baddc6c89e91cdc89e0d77357e70869e769d33993d8a39e2",
    "syt --shape 3,3,1 --enumerate":
        "951e024f31dd22204f457457de8de4ca639f4e02787f3f9c9c27857fe924d45e",
    "syt --shape 10,1 --enumerate":
        "49212ae9655154a79832058ddb26a187070add76425e7cbb7fe30a24933fef1b",
    "syt --family assoc --n 6 --d 2 --json --enumerate":
        "b0f208d3541a51a9197a9c58f0609f3516cd695a505ef0e1519eae5323b3deff",
    "involution 7 3 --verify": "fc8ad57d6cfbff258e840e1f90ce79d4b8016f6bcb8d21b7de5dde25fdf9989b",
    "involution 7 3 --verify --json":
        "757bcb019070d4f71c3b048024910e2211e8fb2a3827d8c8a997b52e8e61b0b2",
    "morse 9 --extend --json": "db06c54ab0130bde8faad7a8ec0e0446c92d99fe2c9352f6a6ed0874e0f2a89d",
    "minimality 8 --json": "9f2df3c26d6c01d3360dbc51d696c05e43f47e6b0ed96e18731cf3faa42ebeac",
    "verify-resolution 8 --field rational":
        "b6398ae30fd2747982cfd007d9cd4517d475d3cc92ec696b9bd24aada7bd37cf",
    "verify-resolution 7 --json":
        "0dfcf971f9cf28beff2504f4f6544cee3ce8b0ec55846621ecd8d40aed24127c",
}


@pytest.mark.parametrize("command", PINNED_STDOUT, ids=lambda c: c.replace(" ", "_"))
def test_label_output_matches_pinned_hash(capsys, command):
    code, out, _ = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def test_fvector_builds_no_complex(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"fvector built A_{n}")

    monkeypatch.setattr(cli, "build", refuse)
    for command in ("fvector 8", "fvector 8 --json"):
        code, out, _ = run(capsys, command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def test_every_subcommand_is_pinned_in_text_and_json():
    sub = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    pinned = [command.split() for command in PINNED_STDOUT]
    text = {argv[0] for argv in pinned if "--json" not in argv}
    as_json = {argv[0] for argv in pinned if "--json" in argv}
    assert set(sub.choices) <= text
    assert set(sub.choices) <= as_json


def test_json_into_a_pipe_closed_early_is_quiet():
    # complex 8 --json prints about 390 kB, far more than a pipe buffers, so
    # the writer is still blocked when the reader closes its end
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycleres.cli", "complex", "8", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head == [b"{\n", b'  "n": 8,\n']
    assert err == b""
