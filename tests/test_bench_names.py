"""The benchmark's tracer finds posetlab's layer functions by name; a rename
must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve_to_plain_functions():
    spans = _spans()
    assert spans.LAYER_FUNCTIONS
    for module, attr, _ in spans.LAYER_FUNCTIONS:
        fn = getattr(importlib.import_module(f"posetlab.{module}"), attr, None)
        assert isinstance(fn, types.FunctionType), f"posetlab.{module}.{attr}"
    # the check span wraps every check_* function of inequalities
    inequalities = importlib.import_module("posetlab.inequalities")
    assert any(
        name.startswith("check_") and isinstance(fn, types.FunctionType)
        for name, fn in vars(inequalities).items()
    )
