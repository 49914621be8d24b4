"""The RMA's analytical performance model: ``T_hat(c, f, w)`` from counters.

Implements the paper's prediction step: using the last interval's hardware
counters and the ATD miss curve, predict the time-per-instruction for *every*
candidate configuration:

``T_hat(c,f,w) = exec_cpi_hat(c) / f + mpki_hat(w)/1000 * L_hat / MLP_hat(c,w)``

Estimation structure (all inputs are online-observable):

* ``exec_cpi_hat`` -- total CPI minus the *measured* memory-stall CPI (a
  standard hardware counter: cycles with no retirement due to a pending
  last-level miss), rescaled across core sizes with the calibrated ILP
  factor at the counter-estimated ILP index.  All three memory-stall models
  share this decomposition; they differ only in how they predict stalls at
  *candidate* configurations;
* ``mpki_hat(w)`` -- the sampled ATD miss curve;
* ``L_hat`` -- the observed average memory latency (held constant across
  ``w``; ignoring the queueing change with allocation is a deliberate,
  realistic model simplification);
* ``MLP_hat`` -- per the chosen model (:mod:`repro.core.models`).
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.cpu.counters import CounterSnapshot
from repro.util.identity_memo import identity_memo
from repro.util.validation import require

__all__ = ["predict_tpi_grid_batch", "exec_cpi_estimate_batch"]


def exec_cpi_estimate_batch(
    system: SystemConfig,
    snapshots: list[CounterSnapshot],
) -> np.ndarray:
    """Estimated execution CPI per snapshot and core size, ``shape (N, C)``.

    Uses the measured stall-cycle counter for the compute/memory split (all
    models share it) and rescales across core sizes via the calibrated ILP
    factor (:func:`~repro.cpu.microarch.ilp_cpi_factor`) at the
    counter-estimated ILP index, floored at ``1 / width``.
    """
    floors = np.array([c.ilp_floor for c in system.core_sizes])
    speedups = np.array([c.ilp_speedup for c in system.core_sizes])
    inv_width = 1.0 / np.array([c.width for c in system.core_sizes])
    ilp = np.array([s.ilp_index_est for s in snapshots])
    # The guard ilp_cpi_factor applies: an ILP index outside [0, 1] is a
    # corrupt snapshot, not a value to extrapolate from.
    require(
        bool(np.all((ilp >= 0.0) & (ilp <= 1.0))),
        "ilp_sensitivity must be in [0, 1]",
    )
    cur_index = np.array([s.core_index for s in snapshots], dtype=int)
    exec_cpi = np.array([s.exec_cpi for s in snapshots])
    factors = floors[None, :] + (speedups - floors)[None, :] * ilp[:, None]
    cur_factor = factors[np.arange(len(snapshots)), cur_index]
    out = exec_cpi[:, None] * factors / cur_factor[:, None]
    return np.maximum(out, inv_width[None, :])


#: Per-system frequency vector, memoised by object identity (pure function
#: of the immutable SystemConfig, rebuilt on every grid prediction
#: otherwise).
_FREQS: dict[int, tuple] = {}


def _freqs_of(system: SystemConfig) -> np.ndarray:
    return identity_memo(_FREQS, system, lambda s: s.vf.freqs_array())


def predict_tpi_grid_batch(
    system: SystemConfig,
    snapshots: list[CounterSnapshot],
    mpki_batch: np.ndarray,
    mlp_batch: np.ndarray,
) -> np.ndarray:
    """Predicted ``TPI[n, c, f, w]`` (ns/instr) of ``N`` cores' next interval.

    One vectorised pass over the stacked ``(N, W)`` miss curves and
    ``(N, C, W)`` MLP estimates; the batch axis is a leading dimension
    only, so a core's slice does not depend on the rest of the batch.
    """
    freqs = _freqs_of(system)
    exec_cpi = exec_cpi_estimate_batch(system, snapshots)  # (N, C)
    mpi = np.asarray(mpki_batch, dtype=float) / 1000.0  # (N, W)
    latency = np.array([s.avg_mem_latency_ns for s in snapshots])
    mem_tpi = (mpi[:, None, :] / mlp_batch) * latency[:, None, None]  # (N, C, W)
    return exec_cpi[:, :, None, None] / freqs[None, None, :, None] + mem_tpi[:, :, None, :]
