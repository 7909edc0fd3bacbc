"""Leftovers from deletions: imports nothing uses, and exports that no longer exist."""

import ast
import pathlib

import pytest

import conmult

SRC = pathlib.Path(conmult.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_names_only_in_comments_and_strings_as_unused():
    source = "from x import a, b as c\nimport d.e\n# a\nprint('c', d)\n"
    assert unused_imports(source) == ["a", "c"]


def test_every_export_resolves():
    missing = [name for name in conmult.__all__ if not hasattr(conmult, name)]
    assert missing == []
