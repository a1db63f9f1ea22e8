"""The benchmark tracer wraps package functions by module attribute name, so
a rename or a move in the package breaks only a traced bench run; this holds
the names it looks up."""

import importlib
from pathlib import Path

import pytest

from landauzb import FieldConfig, oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.skipif(not (BENCH / "tracing.py").exists(), reason="bench/tracing.py absent")
def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for module, attr, name in tracing.TRACED:
        assert callable(getattr(module, attr, None)), name
    # the tracer's oracle.build record reads the matrix dimension
    assert oracle.build(2, FieldConfig.from_magnetic_length(1.0)).dimension == 12
