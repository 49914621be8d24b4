"""The RMA's analytical energy model: ``E_hat(c, f, w)`` from counters.

Mirrors the platform's energy structure (:mod:`repro.cpu.power`) but is fed
exclusively with online-observable estimates: the counter-calibrated dynamic
EPI, the sampled ATD miss curve, and the performance model's predicted TPI
(for the time-integrated static terms).  It captures "the energy consumption
of the core and main memory accesses" as the paper specifies.

Per grid point, with ``t`` the predicted TPI, the compiled ``curve_chain``
(``_kernels.c``, driven by :mod:`repro.core.batch_opt`) computes, in this
order::

    ((dyn + leak * t) + (llc_access * api + way_static(w) * t))
        + (mem_access * mpi + background * t)

where ``dyn = (epi_dyn * epi_factor(c)) * vr2(f)``, ``leak = (core_leak
* leak_factor(c)) * vr(f)``, ``api = llc_accesses / instructions``,
``way_static(w) = llc_way_static * w``, ``mpi = mpki(w) / 1000`` and
``background`` is the DRAM background power per core.
``predict_epi_grid`` in ``tests/oracles/model_chain.py`` is its NumPy
reference; this module derives the per-system constants it reads.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.cpu.dvfs import voltage_ratio, voltage_ratio_sq

__all__ = ["epi_constants"]


def epi_constants(system: SystemConfig) -> list[np.ndarray]:
    """The energy model's per-system constants, in ``curve_chain``'s order:
    per core size the EPI factor (``C``), per VF point ``vr2`` (``F``), the
    leakage power ``leak`` (``C * F``), per way count ``way_static``
    (``W``), then the LLC access, DRAM access and DRAM background
    coefficients."""
    freqs = system.vf.freqs_array()
    leak_factors = np.array([c.leak_factor for c in system.core_sizes])
    ways = np.arange(1, system.llc.ways + 1, dtype=float)
    leak = system.core_leak_w * leak_factors[:, None] * voltage_ratio(system.vf, freqs)[None, :]
    background = system.mem.background_power_w / system.ncores
    return [
        np.array([c.epi_factor for c in system.core_sizes]),
        voltage_ratio_sq(system.vf, freqs),
        leak.ravel(),
        system.llc_way_static_w * ways,
        np.array([system.llc_access_energy_nj, system.mem.energy_per_access_nj, background]),
    ]
