"""Every name a module of the package imports is used: read by some
expression of the module, or listed in its ``__all__``.  An unused import is
what a deletion leaves behind.  And Hypothesis's options for every test are
set in one place, the profile ``tests/conftest.py`` loads: a test's own
``settings`` only sets how many examples it runs, since a ``deadline`` there
would override the profile for that test alone."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "abrsim"


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


def deadline_lines(source: str) -> list[int]:
    """The lines of the ``settings(...)`` calls in ``source`` that pass a
    ``deadline``, named as ``settings`` or as an attribute of a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and "settings" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None))
            and any(keyword.arg == "deadline" for keyword in node.keywords)]


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py") if p.name != "conftest.py"))
def test_no_settings_call_passes_a_deadline(module):
    assert deadline_lines((TESTS / module).read_text()) == []


def test_a_deadline_is_found():
    source = ("import hypothesis\nfrom hypothesis import settings\n@settings(max_examples=5)\n"
              "@hypothesis.settings(deadline=None)\ndef f():\n    return settings(5, deadline=1)\n")
    assert deadline_lines(source) == [4, 6]
