"""Checks on the package source: src uses all it defines, and each mutant is current."""

import ast
from pathlib import Path

from mutants import MUTANTS

import cycleres

PACKAGE = Path(cycleres.__file__).parent


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """The definitions that no module references, as ``module: name``.

    A top-level definition is referenced when a module imports it or
    names it outside the definition itself; a method or property, when an
    attribute of its name is read anywhere.  Dunder methods are exempt.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names, attributes = [], set()  # names: (module, name, node) read or imported
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((module, node.id, node))
            elif isinstance(node, ast.ImportFrom):
                names += [(module, alias.name, node) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            for name in defined:
                if not any(n == name and (m != module or id(x) not in inside) for m, n, x in names):
                    found.append(f"{module}: {name}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{module}: {node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and m.name not in attributes
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    return found


def test_src_references_every_definition_it_makes():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert _unreferenced(sources) == []


def test_the_reference_check_finds_what_only_its_own_definition_names():
    a = "def used():\n    return 1\n\ndef loop():\n    return loop()\n\nLIMIT = 3\n"
    b = "from a import used\n\nclass C:\n    def read(self):\n        return used()\n\n"
    b += "    def dead(self):\n        return self.read()\n"
    assert _unreferenced({"a": a, "b": b}) == ["a: loop", "a: LIMIT", "b: C", "b: C.dead"]


def test_each_mutant_snippet_occurs_once_in_src():
    for file, snippet, replacement, tests in MUTANTS:
        counts = {p.name: p.read_text().count(snippet) for p in PACKAGE.glob("*.py")}
        assert counts[file] == 1 and sum(counts.values()) == 1, (file, snippet)
        assert replacement != snippet and tests, (file, snippet)
