"""The package promises exact arithmetic: no floats anywhere in its source."""

import ast
from pathlib import Path

import pytest

import cycleres
from cycleres.morse import MorseMatching
from cycleres.tableaux import Tableau, hook_count


def test_source_has_no_float_arithmetic():
    found = []
    for path in sorted(Path(cycleres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            true_division = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            )
            float_literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            float_call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if true_division or float_literal or float_call:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_non_int_input_is_rejected_not_truncated():
    # int() would read these as (1, 2)/(3,), shape (2, 1) and pair (1, 3)
    for rows in (((1.5, 2), (3,)), ((True, 2), (3,))):
        with pytest.raises(TypeError, match="entries must be ints"):
            Tableau(rows)
    for shape in ((2.5, 1), (2, True)):
        with pytest.raises(TypeError, match="shape parts must be ints"):
            hook_count(shape)
    for pair in ((1.7, 3.2), (1, True)):
        with pytest.raises(TypeError, match="not an int"):
            MorseMatching((pair,))
