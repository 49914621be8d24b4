"""The examples run end to end.

``examples/custom_benchmark.py`` is the one example that calls the curve
chain (:func:`repro.core.batch_opt.analytical_curves_batch`) directly, so
a change to that entry point's signature must keep it running.
"""

from __future__ import annotations

import importlib.util
import os

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(EXAMPLES, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_custom_benchmark_runs(capsys):
    _load("custom_benchmark").main()
    out = capsys.readouterr().out
    assert "what the RMA would see and decide for the lookup phase" in out
    assert "f* (GHz)" in out
