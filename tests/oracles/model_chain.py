"""The per-core model chain: the reference of the batched curve builders.

The production managers build every energy curve through
:func:`repro.core.batch_opt.analytical_curves_batch` and
:func:`~repro.core.batch_opt.oracle_curves_batch`, which stack ``N``
cores' inputs into ``(N, C, F, W)`` tensors (the realistic path passes a
batch of one).  These functions are the same chain one core at a time:

* :func:`exec_cpi_estimate` -- execution CPI per core size from one
  counter snapshot;
* :func:`predict_tpi_grid` / :func:`predict_epi_grid` -- the analytical
  performance and energy models' ``(C, F, W)`` grids;
* :func:`qos_target_tpi` -- the baseline-anchored QoS target;
* :func:`local_optimize` -- one core's QoS-pruned local optimisation;
* :func:`analytical_curve` -- the chain composed, exactly as the
  coordinated manager evaluated it per core before batching.

``tests/test_batch_opt.py`` compares every ``[n]`` slice of the batched
functions with these per-core calls with ``==``, and the reference
pipeline (``tests/oracles/reference_manager.py``) replays whole runs
through :func:`analytical_curve`.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.energy_model import _system_constants
from repro.core.local_opt import DimSpec, local_optimize_batch
from repro.core.overhead_meter import OverheadMeter
from repro.core.perf_model import _freqs_of
from repro.core.qos import QOS_TOLERANCE
from repro.cpu.counters import CounterSnapshot
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
        out[ci] = max(exec_cpi, 1.0 / core.width)
    return out


def predict_tpi_grid(
    system: SystemConfig,
    snapshot: CounterSnapshot,
    mpki_hat: np.ndarray,
    mlp_hat: np.ndarray,
) -> np.ndarray:
    """Predicted ``TPI[c, f, w]`` (ns/instr) for the next interval."""
    freqs = _freqs_of(system)
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
    vr, vr2, epi_factors, leak_factors = _system_constants(system)
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
    core_id: int,
    tpi_grid: np.ndarray,
    epi_grid: np.ndarray,
    target_tpi: float,
    dims: DimSpec,
    meter: OverheadMeter | None = None,
) -> EnergyCurve:
    """Collapse ``(C, F, W)`` grids into an :class:`EnergyCurve` over ``w``.

    Thin wrapper over :func:`local_optimize_batch` with a batch of one, so
    the single-core and batched paths can never drift apart.
    """
    require(tpi_grid.ndim == 3, "grids must be (C, F, W)")
    return local_optimize_batch(
        system,
        [core_id],
        tpi_grid[None, ...],
        epi_grid[None, ...],
        np.asarray([target_tpi], dtype=float),
        dims,
        meter,
    )[0]


def analytical_curve(
    system: SystemConfig,
    model,
    core_id: int,
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
    return local_optimize(system, core_id, tpi, epi, target, dims, meter)
