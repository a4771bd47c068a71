"""Dead code in ``src/netcov`` fails the suite: an import that nothing
uses, a module-level private name that nothing references, and a
module-level UPPER_CASE constant that no module reads.  All are read from
the syntax tree, so no linter is needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "netcov"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names an import binds that the module never reads, lists in
    ``__all__`` or marks ``# noqa`` on the name's line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(name)
    return unused


def definitions(source):
    """Names a module binds at module level by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def private_definitions(source):
    """Module-level ``_private`` names a module defines (dunders aside)."""
    return [n for n in definitions(source)
            if n.startswith("_") and not n.endswith("__")]


def constant_definitions(source):
    """Module-level public UPPER_CASE names a module defines."""
    return [n for n in definitions(source)
            if n.isupper() and not n.startswith("_")]


def references(source):
    """Every name a module reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_the_checks_see_dead_code():
    source = ("import os\n"
              "from dataclasses import dataclass, field\n"
              "import csv  # noqa: F401\n"
              "__all__ = ['os']\n"
              "_SIZE = 3\n"
              "ZERO_GRAD_TOL = 1e-10\n"
              "Config = dict\n"
              "def _helper():\n"
              "    return dataclass\n")
    assert unused_imports(source) == ["field"]
    assert private_definitions(source) == ["_SIZE", "_helper"]
    assert constant_definitions(source) == ["ZERO_GRAD_TOL"]
    assert references(source) == {"dataclass", "field", "dict"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced(defined):
    """``module: name`` for each name ``defined`` finds that no module
    reads."""
    sources = {path.name: path.read_text() for path in MODULES}
    refs = set().union(*(references(source) for source in sources.values()))
    return [f"{module}: {name}" for module, source in sources.items()
            for name in defined(source) if name not in refs]


def test_every_private_name_is_referenced():
    assert unreferenced(private_definitions) == []


def test_every_constant_is_read():
    assert unreferenced(constant_definitions) == []
