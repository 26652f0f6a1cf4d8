"""No module of the package imports a name it never uses.

The project ships no linter, so this test is the check: it parses each
module under ``src/solvmaps`` with :mod:`ast` and compares the names its
imports bind with the names its code reads.  An import left behind by a
deletion fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "solvmaps"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order.

    A name counts as read where it is loaded (``json`` in ``json.dumps``
    too) or listed in ``__all__``.  ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom typing import NamedTuple, Sequence as Seq\n"
        "__all__ = ['Seq']\n"
        "def f(x: int) -> str:\n    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["os", "NamedTuple"]
