"""Every public name resolves, and every name a demo imports from qtorus exists."""

import ast
from pathlib import Path

import qtorus

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_all_names_resolve():
    missing = [name for name in qtorus.__all__ if not hasattr(qtorus, name)]
    assert missing == []


def demo_imports():
    """(demo file, name) for each ``from qtorus import name`` in the demos."""
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "qtorus":
                for alias in node.names:
                    yield path.name, alias.name


def test_demo_imports_exist():
    found = list(demo_imports())
    assert found
    assert [(demo, name) for demo, name in found if not hasattr(qtorus, name)] == []
