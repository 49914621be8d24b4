"""The RMA's analytical energy model: ``E_hat(c, f, w)`` from counters.

Mirrors the platform's energy structure (:mod:`repro.cpu.power`) but is fed
exclusively with online-observable estimates: the counter-calibrated dynamic
EPI, the sampled ATD miss curve, and the performance model's predicted TPI
(for the time-integrated static terms).  It captures "the energy consumption
of the core and main memory accesses" as the paper specifies.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.cpu.counters import CounterSnapshot
from repro.cpu.dvfs import voltage_ratio, voltage_ratio_sq
from repro.util.identity_memo import identity_memo

__all__ = ["predict_epi_grid_batch"]

#: Per-system model constants (voltage ratios, core-size factors), memoised
#: by object identity: they are pure functions of the immutable
#: SystemConfig and were rebuilt on every grid prediction.
_CONSTS: dict[int, tuple] = {}


def _build_constants(system: SystemConfig) -> tuple:
    freqs = system.vf.freqs_array()
    vr = voltage_ratio(system.vf, freqs)
    vr2 = voltage_ratio_sq(system.vf, freqs)
    epi_factors = np.array([c.epi_factor for c in system.core_sizes])
    leak_factors = np.array([c.leak_factor for c in system.core_sizes])
    return vr, vr2, epi_factors, leak_factors


def _system_constants(system: SystemConfig) -> tuple:
    return identity_memo(_CONSTS, system, _build_constants)


def predict_epi_grid_batch(
    system: SystemConfig,
    snapshots: list[CounterSnapshot],
    mpki_batch: np.ndarray,
    tpi_batch: np.ndarray,
) -> np.ndarray:
    """Predicted ``EPI[n, c, f, w]`` (nJ/instr) of ``N`` cores' next interval.

    Core dynamic and static energy, LLC access and way-leakage energy, and
    DRAM access and background energy, with the batch axis a leading
    dimension only, so a core's slice does not depend on the rest of the
    batch.
    """
    vr, vr2, epi_factors, leak_factors = _system_constants(system)
    ways = np.arange(1, mpki_batch.shape[1] + 1, dtype=float)
    mpi = np.asarray(mpki_batch, dtype=float) / 1000.0  # (N, W)
    epi_dyn = np.array([s.epi_dyn_est_nj for s in snapshots])
    api = np.array([s.llc_accesses for s in snapshots]) / np.array(
        [s.instructions for s in snapshots]
    )

    core_dyn = (
        epi_dyn[:, None, None, None]
        * epi_factors[None, :, None, None]
        * vr2[None, None, :, None]
    )
    leak_w = system.core_leak_w * leak_factors[None, :, None, None] * vr[None, None, :, None]
    core_static = leak_w * tpi_batch
    llc = (
        (system.llc_access_energy_nj * api)[:, None, None, None]
        + system.llc_way_static_w * ways[None, None, None, :] * tpi_batch
    )
    dram = (
        system.mem.energy_per_access_nj * mpi[:, None, None, :]
        + (system.mem.background_power_w / system.ncores) * tpi_batch
    )
    return core_dyn + core_static + llc + dram
