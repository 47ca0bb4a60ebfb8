"""Every name the package imports is used in the module that imports it,
and every private name it defines is read somewhere in the package."""

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


def _private_definitions(tree: ast.Module):
    """(name, line) of each private function, class or constant at module
    level, and of each private method of a module-level class.  A class's
    other private attributes may be hooks its base reads (namedtuple's
    _make), and dunder names are the interpreter's hooks."""
    methods = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in [tree.body, *methods]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif body is tree.body and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield name, node.lineno


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in _private_definitions(tree)
        if private not in read
    ]
    assert unread == []
