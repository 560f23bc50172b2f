"""The package promises no dependencies: its source imports only the standard library."""

import ast
import sys
from pathlib import Path

import cycleres


def test_source_imports_only_the_standard_library():
    found = []
    for path in sorted(Path(cycleres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "cycleres" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert not found, found
