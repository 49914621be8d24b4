"""Per-object interval violation statistics: the reference of the columnar
:func:`repro.simulation.metrics.interval_violation_stats`.

This is the statistics loop as it ran over one sample object at a time,
before run results stored their samples as columns.  The production
function computes the same elementwise IEEE operations over whole
columns; ``tests/test_run_columns.py`` compares the two with ``==`` on
scenario runs and on E14-style pooled samples.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.metrics import NEGLIGIBLE_VIOLATION


def interval_violation_stats(samples) -> dict[str, float]:
    """Probability, expected value and standard deviation of per-interval
    violations (percent), one sample row at a time."""
    samples = list(samples)
    if not samples:
        return {"probability": 0.0, "expected_value": 0.0, "std": 0.0, "n": 0}
    over = []
    nviol = 0
    for s in samples:
        allowed = s.baseline_ns * (1.0 + s.slack)
        excess = (s.duration_ns / allowed - 1.0) * 100.0
        if excess > NEGLIGIBLE_VIOLATION * 100.0:
            nviol += 1
            over.append(excess)
    prob = nviol / len(samples) * 100.0
    vals = np.array(over, dtype=float)
    return {
        "probability": prob,
        "expected_value": float(vals.mean()) if len(vals) else 0.0,
        "std": float(vals.std()) if len(vals) else 0.0,
        "n": len(samples),
    }
