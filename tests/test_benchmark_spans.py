"""The benchmark's traced run wraps netcov functions by module attribute.

``benchmarks/spans.py`` looks each traced name up with ``getattr``; a
refactor that renames or drops one of them would only show in a traced
benchmark run.  These tests load the tracer read-only and check the
contract in the ordinary test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("netcov_bench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attributes(spans):
    return [(m, a) for m, a, _ in spans.SPANS] + [("netcov.solver",
                                                   "fit_at_lambda")]


def test_every_traced_attribute_resolves(spans):
    missing = [f"{m}.{a}" for m, a in traced_attributes(spans)
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []


def test_install_then_uninstall_restores_attributes(spans):
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a in traced_attributes(spans)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [key for key, fn in before.items()
                   if getattr(importlib.import_module(key[0]), key[1]) is fn]
    finally:
        tracer.uninstall()
    assert wrapped == []
    after = {(m, a): getattr(importlib.import_module(m), a)
             for m, a in traced_attributes(spans)}
    assert all(after[key] is fn for key, fn in before.items())
