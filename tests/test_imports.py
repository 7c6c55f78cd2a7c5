"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "abcat"


def unused_imports(source: str) -> list:
    """Names bound by imports in ``source`` that nothing reads, except
    ``from __future__`` imports and names listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from .intmat import IntMatrix, hstack\n"
              "__all__ = ['hstack']\n"
              "system.exit(os.sep)\n")
    assert unused_imports(source) == [(3, "IntMatrix")]


def test_library_modules_use_every_import():
    leftovers = {path.name: unused_imports(path.read_text())
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: found for name, found in leftovers.items() if found} == {}
