"""The benchmark tracer (``perfbench/spans.py``) wraps coxclusters functions
and ``LaurentPoly`` methods by name.  Every name it lists must still exist,
or a traced benchmark run breaks; these tests read the tracer without
changing anything under ``perfbench/``."""

import importlib
import importlib.util
import inspect
import sys
import typing
from pathlib import Path

import pytest

from coxclusters import checks
from coxclusters.poly import LaurentPoly

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_bound(spans):
    assert spans.FUNCTIONS
    for home, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"coxclusters.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"coxclusters.{home}.{name}"


def test_traced_poly_methods_are_defined(spans):
    assert spans.POLY_METHODS
    for meth in spans.POLY_METHODS:
        assert callable(LaurentPoly.__dict__.get(meth)), f"LaurentPoly.{meth}"


def test_tracer_times_every_check_suite(spans):
    """The suites are the public functions of ``checks`` that return a list
    of ``CheckResult``; the tracer must time each of them and nothing else."""
    suites = {
        name
        for name, fn in inspect.getmembers(checks, inspect.isfunction)
        if fn.__module__ == checks.__name__
        and not name.startswith("_")
        and typing.get_type_hints(fn).get("return") == list[checks.CheckResult]
    }
    assert suites == set(spans.SUITES)
    assert len(spans.SUITES) == len(suites)
