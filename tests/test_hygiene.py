"""Source hygiene of the package: no import goes unused, no local name is
bound and never read, and no private module-level name is left without a
reference, so a change that folds one implementation into another cannot
leave its orphans behind; no module imports another module's private
name; and every client imports a name from the module that defines it,
so no second path to a name (a re-exporting facade) can grow back."""

import ast
from pathlib import Path

import pytest

from conftest import readme_python_blocks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopfforge"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree: ast.Module) -> set:
    """Every identifier read in ``tree``: names, attributes, and names
    imported by ``from ... import``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - used) == []


def _definitions(tree: ast.Module) -> set:
    """The names a module defines at top level: def, class, assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> set:
    return {n for n in _definitions(tree)
            if n.startswith("_") and not n.startswith("__")}


def test_every_private_module_name_is_referenced():
    trees = {p.name: _tree(p) for p in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    orphans = sorted(f"{mod}:{name}" for mod, tree in trees.items()
                     for name in _private_definitions(tree)
                     if name not in referenced)
    assert orphans == []


def test_no_module_imports_a_private_name():
    wrong = [f"{p.name}: from {'.' * node.level}{node.module or ''} "
             f"import {a.name}"
             for p in MODULES for node in ast.walk(_tree(p))
             if isinstance(node, ast.ImportFrom)
             for a in node.names
             if a.name.startswith("_") and not a.name.startswith("__")]
    assert wrong == []


def _client_sources():
    """(where, source) of every test, every demo and every README block."""
    for path in sorted((ROOT / "tests").glob("*.py")) + \
            sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    for k, block in enumerate(readme_python_blocks()):
        yield f"README.md block {k}", block


def test_every_import_names_the_defining_module():
    defined = {"hopfforge" + ("" if p.stem == "__init__" else f".{p.stem}"):
               _definitions(_tree(p)) for p in MODULES}
    defined["hopfforge"] |= {p.stem for p in MODULES
                             if p.stem != "__init__"}   # the submodules
    wrong = [f"{where}: from {node.module} import {a.name}"
             for where, source in _client_sources()
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] == "hopfforge"
             for a in node.names
             if a.name not in defined.get(node.module, ())]
    assert wrong == []


def _unread_locals(tree: ast.Module) -> list:
    """(function, name) for each local name a function binds and never
    reads, names with a leading "_" aside.  Reads inside nested functions
    count, and ``del``, ``global``, ``nonlocal`` and ``x += ...`` read."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, read = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                (bound if isinstance(node.ctx, ast.Store) else read).add(
                    node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign):
                read.update(n.id for n in ast.walk(node.target)
                            if isinstance(n, ast.Name))
        out.extend((fn.name, name) for name in sorted(bound - read)
                   if not name.startswith("_"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_name_is_read(path):
    assert _unread_locals(_tree(path)) == []
