"""Dead code in ``src/netcov`` fails the suite: an import that nothing
uses, a module-level private name that nothing references, a
module-level UPPER_CASE constant that no module reads, a public function
or class that nothing names and a public method or property that nothing
reads as an attribute.  Public names count as used when the package, its
tests, its demos or its benchmark use them.  Only ``files.py`` imports
``csv``, and only it and ``data.py`` write files with ``open`` or
``np.savetxt``, so one module lists every output file.  All are read from
the syntax tree, so no linter is needed.  The C sweep kernel must compile without a
warning under the solver's own flags."""

import ast
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "netcov"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = sorted(path for top in ("src", "tests", "demos", "benchmarks")
                 for path in (ROOT / top).rglob("*.py"))


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


def public_definitions(source):
    """Module-level public functions and classes a module defines."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_methods(source):
    """``Class.name`` for each public method or property of a module's
    classes."""
    return [f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def attribute_reads(source):
    """Every name a module reads as an attribute."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


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
              "    return dataclass\n"
              "class Path:\n"
              "    @property\n"
              "    def betas(self):\n"
              "        return self.entries\n"
              "    def _stack(self):\n"
              "        return self.betas\n"
              "    def norms(self):\n"
              "        self.size = 0\n")
    assert unused_imports(source) == ["field"]
    assert private_definitions(source) == ["_SIZE", "_helper"]
    assert constant_definitions(source) == ["ZERO_GRAD_TOL"]
    assert references(source) == {"dataclass", "field", "dict", "property",
                                  "entries", "betas", "size", "self"}
    assert public_definitions(source) == ["Path"]
    assert public_methods(source) == ["Path.betas", "Path.norms"]
    # a store is not a read, and ``norms`` is never read as an attribute
    assert attribute_reads(source) == {"entries", "betas"}


def imports_csv(source):
    return any(isinstance(node, ast.Import)
               and any(alias.name == "csv" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "csv"
               for node in ast.walk(ast.parse(source)))


def file_writes(source):
    """The line of each ``savetxt`` call and of each ``open`` call whose
    mode writes, or is not a literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        modes = node.args[1:2] + [k.value for k in node.keywords
                                  if k.arg == "mode"]
        writes = any(not isinstance(mode, ast.Constant)
                     or set(str(mode.value)) & set("wax+") for mode in modes)
        if name == "savetxt" or name == "open" and writes:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_checks_see_csv_and_file_writes():
    source = ("from csv import writer\n"
              "open(path, 'w')\n"
              "open(path)\n"
              "open(path, mode='a')\n"
              "open(path, 'rb')\n"
              "open(path, mode)\n"
              "np.savetxt(path, values)\n")
    assert imports_csv(source) and imports_csv("import os, csv\n")
    assert not imports_csv("import csvkit\n")
    assert file_writes(source) == [2, 4, 6, 7]


def test_only_files_imports_csv():
    assert [path.name for path in MODULES if imports_csv(path.read_text())
            and path.name != "files.py"] == []


def test_only_files_and_data_write_files():
    assert [f"{path.name}:{line}" for path in MODULES
            if path.name not in ("files.py", "data.py")
            for line in file_writes(path.read_text())] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced(defined, reads=references, callers=MODULES):
    """``module: name`` for each name ``defined`` finds in ``src/netcov``
    that ``reads`` finds in none of ``callers`` (a method counts by its
    own name)."""
    used = set().union(*(reads(path.read_text()) for path in callers))
    return [f"{path.name}: {name}" for path in MODULES
            for name in defined(path.read_text())
            if name.rsplit(".", 1)[-1] not in used]


def test_every_private_name_is_referenced():
    assert unreferenced(private_definitions) == []


def test_every_constant_is_read():
    assert unreferenced(constant_definitions) == []


def test_every_public_definition_is_named():
    assert unreferenced(public_definitions, callers=CALLERS) == []


def test_every_public_method_is_read():
    assert unreferenced(public_methods, attribute_reads, CALLERS) == []


def test_sweep_kernel_compiles_without_warnings():
    from netcov import solver

    proc = subprocess.run(
        [solver._CC, *solver._CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-fsyntax-only", solver._SOURCE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
