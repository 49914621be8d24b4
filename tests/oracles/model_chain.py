"""The per-core model chain: the reference of the compiled curve chain.

The production managers build every energy curve through
:func:`repro.core.batch_opt.analytical_curves_batch` and
:func:`~repro.core.batch_opt.oracle_curves_batch`, one compiled
``curve_chain`` call per batch (``src/repro/_kernels.c``).  These
functions are the same chain one core at a time, in NumPy, with their own
system constants and their own local optimisation, so a drift in
production cannot leak into its reference:

* :func:`exec_cpi_estimate` -- execution CPI per core size from one
  counter snapshot;
* :func:`predict_tpi_grid` / :func:`predict_epi_grid` -- the analytical
  performance and energy models' ``(C, F, W)`` grids;
* :func:`qos_target_tpi` -- the baseline-anchored QoS target;
* :func:`local_optimize` -- one core's QoS-pruned local optimisation;
* :func:`analytical_curve` -- the chain composed, exactly as the
  coordinated manager evaluated it per core before batching.

``tests/test_batch_opt.py`` compares the compiled call's grids, targets
and curves with these per-core calls with ``==``, and the reference
pipeline (``tests/oracles/reference_manager.py``) replays whole runs
through :func:`analytical_curve`.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.local_opt import DimSpec
from repro.core.overhead_meter import OverheadMeter
from repro.core.qos import QOS_TOLERANCE
from repro.cpu.counters import CounterSnapshot
from repro.cpu.dvfs import voltage_ratio, voltage_ratio_sq
from repro.cpu.microarch import ilp_cpi_factor
from repro.util.validation import require

__all__ = [
    "analytical_curve",
    "exec_cpi_estimate",
    "local_optimize",
    "predict_epi_grid",
    "predict_tpi_grid",
    "qos_target_tpi",
]


def exec_cpi_estimate(
    system: SystemConfig,
    snapshot: CounterSnapshot,
) -> np.ndarray:
    """Estimated execution CPI per core size, ``shape (C,)``.

    Uses the measured stall-cycle counter for the compute/memory split (all
    models share it) and rescales across core sizes via the calibrated ILP
    factor at the counter-estimated ILP index.
    """
    cur_core = system.core_sizes[snapshot.core_index]
    cur_factor = ilp_cpi_factor(cur_core, snapshot.ilp_index_est)
    out = np.empty(system.ncore_sizes, dtype=float)
    for ci, core in enumerate(system.core_sizes):
        factor = ilp_cpi_factor(core, snapshot.ilp_index_est)
        exec_cpi = snapshot.exec_cpi * factor / cur_factor
        out[ci] = np.maximum(exec_cpi, 1.0 / core.width)
    return out


def predict_tpi_grid(
    system: SystemConfig,
    snapshot: CounterSnapshot,
    mpki_hat: np.ndarray,
    mlp_hat: np.ndarray,
) -> np.ndarray:
    """Predicted ``TPI[c, f, w]`` (ns/instr) for the next interval."""
    freqs = system.vf.freqs_array()
    exec_cpi = exec_cpi_estimate(system, snapshot)  # (C,)
    mpi = np.asarray(mpki_hat, dtype=float) / 1000.0  # (W,)
    mem_tpi = (mpi[None, :] / mlp_hat) * snapshot.avg_mem_latency_ns  # (C, W)
    return exec_cpi[:, None, None] / freqs[None, :, None] + mem_tpi[:, None, :]


def predict_epi_grid(
    system: SystemConfig,
    snapshot: CounterSnapshot,
    mpki_hat: np.ndarray,
    tpi_hat: np.ndarray,
) -> np.ndarray:
    """Predicted ``EPI[c, f, w]`` (nJ/instr) for the next interval."""
    freqs = system.vf.freqs_array()
    vr, vr2 = voltage_ratio(system.vf, freqs), voltage_ratio_sq(system.vf, freqs)
    epi_factors = np.array([c.epi_factor for c in system.core_sizes])
    leak_factors = np.array([c.leak_factor for c in system.core_sizes])
    ways = np.arange(1, len(mpki_hat) + 1, dtype=float)
    mpi = np.asarray(mpki_hat, dtype=float) / 1000.0
    api = snapshot.llc_accesses / snapshot.instructions

    core_dyn = snapshot.epi_dyn_est_nj * epi_factors[:, None, None] * vr2[None, :, None]
    leak_w = system.core_leak_w * leak_factors[:, None, None] * vr[None, :, None]
    core_static = leak_w * tpi_hat
    llc = (
        system.llc_access_energy_nj * api
        + system.llc_way_static_w * ways[None, None, :] * tpi_hat
    )
    dram = (
        system.mem.energy_per_access_nj * mpi[None, None, :]
        + (system.mem.background_power_w / system.ncores) * tpi_hat
    )
    return core_dyn + core_static + llc + dram


def qos_target_tpi(
    system: SystemConfig,
    tpi_grid: np.ndarray,
    slack: float,
    tolerance: float = QOS_TOLERANCE,
) -> float:
    """Maximum admissible predicted TPI: baseline prediction times (1+slack).

    ``tpi_grid`` is the predictor's ``(C, F, W)`` output; the baseline point
    is the paper's anchor (medium core, nominal VF, equal LLC share).
    """
    require(slack >= 0.0, "slack must be non-negative")
    base = tpi_grid[
        system.baseline_core_index,
        system.baseline_freq_index,
        system.baseline_ways - 1,
    ]
    return float(base) * (1.0 + slack) * (1.0 + tolerance)


def local_optimize(
    system: SystemConfig,
    tpi_grid: np.ndarray,
    epi_grid: np.ndarray,
    target_tpi: float,
    dims: DimSpec,
    meter: OverheadMeter | None = None,
) -> EnergyCurve:
    """Collapse ``(C, F, W)`` grids into an :class:`EnergyCurve` over ``w``.

    Per way count, ``np.argmin`` over the flattened ``(c, f)`` choices in
    index order: the first minimum (the first NaN if there is one), index 0
    for an all-infeasible column.  Charges the meter the grid points
    evaluated.
    """
    require(tpi_grid.shape == epi_grid.shape, "grid shape mismatch")
    require(tpi_grid.ndim == 3, "grids must be (C, F, W)")
    n_w = tpi_grid.shape[2]
    cores = np.asarray(dims.cores(system), dtype=int)
    freqs = np.asarray(dims.freqs(system), dtype=int)
    if meter is not None:
        meter.charge_grid(len(cores) * len(freqs) * n_w)

    sub_tpi = tpi_grid[np.ix_(cores, freqs, np.arange(n_w))]
    sub_epi = epi_grid[np.ix_(cores, freqs, np.arange(n_w))]
    masked = np.where(sub_tpi <= target_tpi, sub_epi, np.inf)
    if dims.pin_ways is not None:
        keep = np.zeros(n_w, dtype=bool)
        keep[dims.pin_ways - 1] = True
        masked = np.where(keep[None, None, :], masked, np.inf)

    flat = masked.reshape(-1, n_w)  # (C'*F', W)
    best = np.argmin(flat, axis=0)  # (W,)
    return EnergyCurve(
        epi=flat[best, np.arange(n_w)],
        freq_idx=freqs[best % len(freqs)],
        core_idx=cores[best // len(freqs)],
    )


def analytical_curve(
    system: SystemConfig,
    model,
    snapshot: CounterSnapshot,
    mpki_sampled: np.ndarray,
    mlp_sampled: np.ndarray,
    slack: float,
    dims: DimSpec,
    meter: OverheadMeter | None = None,
) -> EnergyCurve:
    """One core's curve through the per-core chain: model, grids, target,
    local optimisation."""
    mlp_hat = model.mlp_hat(system, snapshot, mlp_sampled)
    tpi = predict_tpi_grid(system, snapshot, mpki_sampled, mlp_hat)
    epi = predict_epi_grid(system, snapshot, mpki_sampled, tpi)
    target = qos_target_tpi(system, tpi, slack)
    return local_optimize(system, tpi, epi, target, dims, meter)
