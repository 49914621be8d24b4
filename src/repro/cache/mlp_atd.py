"""MLP-aware ATD: Paper II's hardware extension.

While the original ATD counts total misses per way allocation, Paper II adds
a heuristic unit that *detects and ignores overlapping cache misses* for a
range of core sizes and cache allocations, so the RMA can predict memory
stall time as ``leading_misses * latency`` instead of ``misses * latency``.

We realise the same design: the miss streams are run through the
leading-miss grouping of :func:`repro.mem.mlp.mlp_grid` for every
``(core size, way allocation)`` pair, and the resulting MLP factors are
stored in a small fixed-point table (``PhaseRecord.mlp_sampled``, built in
:mod:`repro.simulation.detailed`).  The fixed-point quantisation (4
fractional bits) models the paper's "< 300 bytes per core" hardware budget:
``ncore_sizes * ways`` entries of one byte each, plus the stock ATD counters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QUANT_STEPS", "quantize"]

#: Fixed-point resolution of the hardware MLP counters (1/16 steps).
QUANT_STEPS = 16


def quantize(values: np.ndarray) -> np.ndarray:
    """Round MLP factors to the hardware's fixed-point grid (>= 1.0)."""
    return np.maximum(np.round(values * QUANT_STEPS) / QUANT_STEPS, 1.0)
