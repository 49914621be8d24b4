"""The RMA's analytical performance model: ``T_hat(c, f, w)`` from counters.

Implements the paper's prediction step: using the last interval's hardware
counters and the ATD miss curve, predict the time-per-instruction for *every*
candidate configuration:

``T_hat(c,f,w) = exec_cpi_hat(c) / f + mpki_hat(w)/1000 * L_hat / MLP_hat(c,w)``

Estimation structure (all inputs are online-observable):

* ``exec_cpi_hat`` -- total CPI minus the *measured* memory-stall CPI (a
  standard hardware counter: cycles with no retirement due to a pending
  last-level miss), rescaled across core sizes with the calibrated ILP
  factor at the counter-estimated ILP index (an index outside ``[0, 1]``
  is a corrupt snapshot and is rejected) and floored at ``1 / width``.
  All three memory-stall models share this decomposition; they differ
  only in how they predict stalls at *candidate* configurations;
* ``mpki_hat(w)`` -- the sampled ATD miss curve;
* ``L_hat`` -- the observed average memory latency (held constant across
  ``w``; ignoring the queueing change with allocation is a deliberate,
  realistic model simplification);
* ``MLP_hat`` -- per the chosen model (:mod:`repro.core.models`).

The grid is computed by the compiled ``curve_chain`` (``_minplus.c``,
driven by :mod:`repro.core.batch_opt`), one IEEE operation at a time in
this order: ``x = (exec_cpi * factor(c)) / factor(current)``, then
``max(x, 1 / width)`` (a NaN stays), then ``x / f + (mpi / mlp) * L``
with ``mpi = mpki / 1000``, where ``factor(c) = floor + (speedup - floor)
* ilp``.  ``predict_tpi_grid`` in ``tests/oracles/model_chain.py`` is its
NumPy reference; this module derives the per-system constants it reads.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig

__all__ = ["tpi_constants"]


def tpi_constants(system: SystemConfig) -> list[np.ndarray]:
    """The performance model's per-system constants, in ``curve_chain``'s
    order: the VF frequencies (GHz, ``F``), then per core size (``C``)
    ``1 / width``, the ILP-factor floor and ``speedup - floor``."""
    cores = system.core_sizes
    floors = np.array([c.ilp_floor for c in cores])
    return [
        system.vf.freqs_array(),
        1.0 / np.array([c.width for c in cores]),
        floors,
        np.array([c.ilp_speedup for c in cores]) - floors,
    ]
