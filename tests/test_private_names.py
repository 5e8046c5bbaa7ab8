"""Every private module-level name of the package is read somewhere in it.

A module-level ``_name`` (dunders aside) that no module of the package reads
is dead code: a constant or helper left behind when its last use went.  A
test may read a private name too, but a name that only a test reads does
nothing in the package, so only the package's own source counts.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gathersim"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree):
    """The names a module's top-level statements bind by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name))


def _read(tree):
    """The names a module reads: bare names, attributes and names imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_level_name_is_read():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(trees) >= 7
    private = {(module, name) for module, tree in trees.items() for name in _defined(tree) if _is_private(name)}
    assert private
    read = {name for tree in trees.values() for name in _read(tree)}
    assert sorted((module, name) for module, name in private if name not in read) == []
