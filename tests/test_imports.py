"""Every name a library module imports is used in that module, and every
private helper of the library is used somewhere in it."""

import ast
from collections import Counter
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


def _references(node) -> Counter:
    """Names read, attributes accessed and names imported under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unreferenced_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level function or class, and
    each method of a module-level class, whose name starts with ``_``
    (dunders aside) and that nothing in ``sources`` refers to outside its
    own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    functions = ast.FunctionDef, ast.AsyncFunctionDef
    found = []
    for module, tree in trees.items():
        candidates = [node for node in tree.body
                      if isinstance(node, functions + (ast.ClassDef,))]
        candidates += [item for node in tree.body if isinstance(node, ast.ClassDef)
                       for item in node.body if isinstance(item, functions)]
        for node in candidates:
            name = node.name
            if (name.startswith("_") and not name.endswith("__")
                    and everywhere[name] == _references(node)[name]):
                found.append((module, node.lineno, name))
    return sorted(found)


def test_checker_flags_an_unreferenced_private_helper():
    sources = {"a.py": ("def _used():\n    return _recursive()\n"
                        "def _recursive():\n    return _recursive()\n"
                        "class _Box:\n"
                        "    def __init__(self):\n        self._fill()\n"
                        "    def _fill(self):\n        pass\n"
                        "    def _spare(self):\n        pass\n"),
               "b.py": "from .a import _Box, _used\n"}
    assert unreferenced_private_names(sources) == [("a.py", 10, "_spare")]
    sources["a.py"] = sources["a.py"].replace("return _recursive()\n", "return 0\n", 1)
    assert unreferenced_private_names(sources) == [("a.py", 3, "_recursive"),
                                                  ("a.py", 10, "_spare")]


def test_library_uses_every_private_helper():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def imported_modules(source: str) -> set:
    """The last dotted part of each module ``source`` imports; ``from . import
    x`` imports x."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update([alias.name for alias in node.names] if node.module in (None, "abcat")
                         else [node.module.rsplit(".", 1)[-1]])
    return found


def test_checker_names_relative_and_absolute_imports():
    source = ("from . import sampling\nfrom .documents import Document\n"
              "import abcat.cli\nfrom abcat import fincat\n")
    assert imported_modules(source) == {"sampling", "documents", "cli", "fincat"}


def test_the_library_never_imports_documents_or_the_command_line():
    for name in ("intmat", "fincat", "setdiag", "abgrp", "abdiag", "harting", "sampling",
                 "verify"):
        found = imported_modules((PACKAGE / f"{name}.py").read_text())
        assert not found & {"documents", "cli"}, name
