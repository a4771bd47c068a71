"""The benchmark's workloads call netcov through module attributes.

``benchmarks/workloads.py`` calls ``solver.fit_path(...)``,
``pipeline.prepare(...)`` and the like, and reads constants such as
``solver.DEFAULT_KKT_TOL``.  A change to one of those signatures would
only show in a benchmark run.  These tests read the workloads' syntax
tree and check every such call and read against netcov as it is now.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS_PATH = (Path(__file__).resolve().parents[1] / "benchmarks"
                  / "workloads.py")
MODULES = ("cli", "data", "groups", "pipeline", "simulate", "solver")


def netcov_reads(source):
    """(attribute node, call node or None) for each ``<module>.<name>``
    the source reads, where ``<module>`` is one of MODULES."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in MODULES]
    reads.sort(key=lambda node: (node.lineno, node.col_offset))
    return [(node, calls.get(id(node))) for node in reads]


def resolve(node):
    return getattr(importlib.import_module(f"netcov.{node.value.id}"),
                   node.attr, None)


def unbound_calls(source):
    """``module.name(...)`` for each call whose name does not resolve or
    whose positional count and keyword names the signature refuses."""
    bad = []
    for node, call in netcov_reads(source):
        if call is None:
            continue
        label = f"line {node.lineno}: {node.value.id}.{node.attr}"
        target = resolve(node)
        if not callable(target):
            bad.append(f"{label} does not resolve")
            continue
        try:
            inspect.signature(target).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            bad.append(f"{label}: {exc}")
    return bad


def unresolved_constants(source):
    """``module.NAME`` for each UPPER_CASE read that does not resolve."""
    return [f"line {node.lineno}: {node.value.id}.{node.attr}"
            for node, call in netcov_reads(source)
            if call is None and node.attr.isupper() and resolve(node) is None]


def test_the_checks_see_broken_calls():
    source = ("solver.fit_path(a, b, c, lambdas=grid)\n"
              "solver.fit_path(a, b, c, lambdas=grid, grid_size=20)\n"
              "solver.fit_path(a, b, c)\n"
              "data.no_such_function(x)\n"
              "tol = solver.DEFAULT_KKT_TOL + solver.NO_SUCH_TOL\n"
              "other.fit_path(a)\n")
    bad = unbound_calls(source)
    assert len(bad) == 3
    assert bad[0].startswith("line 2: solver.fit_path: ")
    assert "grid_size" in bad[0]
    assert bad[1].startswith("line 3: solver.fit_path: ")
    assert "lambdas" in bad[1]
    assert bad[2] == "line 4: data.no_such_function does not resolve"
    assert unresolved_constants(source) == ["line 5: solver.NO_SUCH_TOL"]


def test_every_workload_call_binds():
    assert unbound_calls(WORKLOADS_PATH.read_text()) == []


def test_every_workload_constant_resolves():
    assert unresolved_constants(WORKLOADS_PATH.read_text()) == []
