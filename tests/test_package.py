"""The package's export list names exactly what ``__init__.py`` imports."""
from __future__ import annotations

import ast
from pathlib import Path

import halting_cascade

INIT = Path(halting_cascade.__file__)


def _imported_names() -> set[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_all_lists_exactly_the_imported_names():
    assert len(halting_cascade.__all__) == len(set(halting_cascade.__all__))
    assert set(halting_cascade.__all__) == _imported_names()


def test_every_exported_name_resolves():
    for name in halting_cascade.__all__:
        assert getattr(halting_cascade, name) is not None
