"""The library keeps only what it runs: every function, class and method
defined in `src/kubolab` is named somewhere in `src/kubolab` besides its own
definition, or is exported from `kubolab/__init__.py`.  Code that only the
tests call belongs in `tests/reference.py`."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kubolab"


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
