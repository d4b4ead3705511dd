"""The library keeps only what it runs: every function, class and method
defined in `src/kubolab` is named somewhere in `src/kubolab` besides its own
definition, or is exported from `kubolab/__init__.py`.  Code that only the
tests call belongs in `tests/reference.py`, and each of its public
definitions is named by some test module, so no reference outlives its
tests."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kubolab"


def _names(node) -> Counter:
    """Identifiers read anywhere under `node`: plain names and attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_src_definition_has_a_src_caller_or_is_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or name in exported:
                continue  # dunders are called by Python itself
            if everywhere[name] == _names(node)[name]:  # named only inside its own definition
                uncalled.append(f"{module}:{node.lineno} {name}")
    assert uncalled == []


def test_every_reference_definition_has_a_test_caller():
    reference = ast.parse((TESTS / "reference.py").read_text())
    named = set()
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        named |= set(_names(tree))
        named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = [
        node.name
        for node in reference.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert public
    assert [name for name in public if name not in named] == []
