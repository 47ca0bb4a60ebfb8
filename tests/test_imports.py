"""Every name the package imports is used in the module that imports it."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kbonacci"


def _imported(tree: ast.Module):
    """(name bound, line) of each import in the module; from __future__
    imports bind nothing that the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set:
    """The names a module's __all__ lists: its re-exports."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert unused == []
