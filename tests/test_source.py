"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

import lrhmm

_MODULES = sorted(p for p in Path(lrhmm.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def _bound_names(node):
    """The names that ``node`` binds other than by import: a def, a class,
    an assignment target or an argument."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.arg):
        return [node.arg]
    return []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
    # a name bound again shadows the import, so a use of it may not be the
    # import's: binding an imported name fails too
    rebound = sorted(f"{name} (line {node.lineno})" for node in ast.walk(tree)
                     for name in _bound_names(node) if name in imported)
    assert not rebound, f"{path.name} binds imported names again: {rebound}"


def _private_definitions(tree):
    """Names of the module-level functions, classes and assignments of
    ``tree`` that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in Path(lrhmm.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in used)
    assert not dead, f"private module-level names that nothing reads: {dead}"
