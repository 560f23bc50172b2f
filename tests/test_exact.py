"""The package promises exact arithmetic: no floats anywhere in its source."""

import ast
from pathlib import Path

import cycleres


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
