"""No dead symbols: every public module-level function or class of the package,
and every public method of its public classes, is used, and every parameter of
every function is read.

A public symbol of `src/nilnov/<m>.py` is used when it is called or otherwise
referenced in its own module, when another module of the package imports it
(`from .m import name`) or reads it as `m.name`, or when a demo or a script
under `bench/` (not a test there) references it.  Being listed in
`nilnov.__all__` does not count: the public API is what the CLI, the demos and
the benchmark call, and a symbol that only tests call belongs in the tests.  A
public method (not a dunder) is used when an attribute of that name is
referenced anywhere in the package.  A named parameter other than `self`,
`cls` or a `_`-prefixed one is read when its name is loaded somewhere in the
function's body.  The check reads the source with `ast`, so names inside
strings and comments do not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "nilnov"


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
            continue  # re-exporting a name does not use it
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


def _referenced_by_scripts():
    """Every name that a demo or a benchmark script imports or reads."""
    scripts = sorted((ROOT / "demos").glob("*.py")) + \
        [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    names = set()
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return names


def test_every_public_symbol_is_used():
    modules = _modules()
    imported = _imported_elsewhere(modules)
    scripted = _referenced_by_scripts()
    dead = [f"{module}.{node.name}"
            for module, tree in modules.items()
            for node in _public_definitions(tree)
            if not (_referenced_in_module(tree, node.name)
                    or (module, node.name) in imported
                    or node.name in scripted)]
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


def _parameters(func):
    args = func.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
    return [a.arg for a in named if a.arg not in ("self", "cls") and not a.arg.startswith("_")]


def test_every_parameter_is_read():
    # a parameter that the body never reads is dead: its callers pass it for
    # nothing.  A read inside a nested function counts; lambdas are checked too
    unread = []
    for module, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(func, "name", "<lambda>")
            unread += [f"{module}.{name}({p})" for p in _parameters(func) if p not in read]
    assert unread == []
