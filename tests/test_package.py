"""The export list names exactly what `__init__.py` imports, and no module
imports a name it never uses."""
from __future__ import annotations

import ast
from pathlib import Path

import halting_cascade

INIT = Path(halting_cascade.__file__)
ROOT = Path(__file__).resolve().parents[1]


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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; ``__all__`` counts as a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "src" / "halting_cascade").glob("*.py"))
    modules += sorted((ROOT / "scripts").glob("*.py"))
    assert {path.parent.name for path in modules} == {"halting_cascade", "scripts"}
    assert [unused for path in modules for unused in _unused_imports(path)] == []


def _calls_to(name: str) -> list[str]:
    """The scopes in ``src/`` that call ``name``, as ``module.function``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.append(scope)
            visit(child, inner)

    for path in sorted((ROOT / "src" / "halting_cascade").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_the_two_engines_build_cascade_results():
    """Every outcome comes from ``run_cascade`` or ``run_chain``: a system
    that states its outcome fields by hand would be a second engine."""
    assert sorted(_calls_to("CascadeResult")) == ["cascade.run_cascade", "cascade.run_chain"]
