"""Every name a module of the package imports is used: read by some
expression of the module, or listed in its ``__all__``.  An unused import is
what a deletion leaves behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abrsim"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports that no expression reads and its
    ``__all__`` does not list, in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                  for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read and name not in exported]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os.path\nimport struct\n"
              "from operator import is_, itemgetter as get\n__all__ = ['is_']\nget(os)\n")
    assert unused_imports(source) == ["struct"]
