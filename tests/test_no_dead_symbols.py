"""No dead symbols: every public module-level function or class of the package,
and every public method of its public classes, is used.

A public symbol of `src/nilnov/<m>.py` is used when it is called or otherwise
referenced in its own module, when another module of the package imports it
(`from .m import name`) or reads it as `m.name`, or when it is listed in
`nilnov.__all__`.  A public method (not a dunder) is used when an attribute
of that name is referenced anywhere in the package.  Symbols that only tests
call belong in the tests.  The check reads the source with `ast`, so names
inside strings and comments do not count.
"""

import ast
import pathlib

import nilnov

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "nilnov"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_in_module(tree, name):
    """Whether `name` is read in its module, outside its own definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load):
                return True
    return False


def _imported_elsewhere(modules):
    """(module, name) pairs that some other module of the package uses."""
    used = set()
    for importer, tree in modules.items():
        if importer == "__init__":
            continue  # its imports are the public API, checked through __all__
        aliases = {}  # local name -> package module, from `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases.update((a.asname or a.name, a.name) for a in node.names)
                else:
                    used.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
    return used


def test_every_public_symbol_is_used():
    modules = _modules()
    imported = _imported_elsewhere(modules)
    exported = set(nilnov.__all__)
    dead = [f"{module}.{node.name}"
            for module, tree in modules.items()
            for node in _public_definitions(tree)
            if not (_referenced_in_module(tree, node.name)
                    or (module, node.name) in imported
                    or node.name in exported)]
    assert dead == []


def test_every_public_method_is_used():
    modules = _modules()
    attributes = {node.attr for tree in modules.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    dead = [f"{module}.{cls.name}.{node.name}"
            for module, tree in modules.items()
            for cls in _public_definitions(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in attributes]
    assert dead == []
