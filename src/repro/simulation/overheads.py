"""Reconfiguration overheads charged by the RMA simulator.

The paper: "After applying the new resource settings, the corresponding
overheads are added to the simulation results for each core depending on the
change in their resource allocations."  Three costs apply:

* a **DVFS transition** stalls the core while the PLL/regulator relocks;
* a **core resize** stalls while in-flight instructions drain and sections
  are power-gated/ungated;
* **gained cache ways** arrive cold: the warm-up refill causes extra DRAM
  fetches, costing both time and DRAM energy.

Stall time burns leakage and background power but retires no instructions.

:func:`transition_cost` is a pure function of ``(system, old, new)``, so
the simulation kernel evaluates it once per distinct (old, new) pair of a
run and charges every later move between the same settings from its memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import Allocation, SystemConfig
from repro.cpu.dvfs import dvfs_transition_cost_ns, voltage_ratio

__all__ = ["TransitionCost", "transition_cost"]

#: Warm-up misses overlap like regular demand misses; a modest factor.
WARMUP_MLP = 2.0


@dataclass(frozen=True)
class TransitionCost:
    """Time and energy charged to one core for one reconfiguration."""

    stall_ns: float
    energy_nj: float


def transition_cost(system: SystemConfig, old: Allocation, new: Allocation) -> TransitionCost:
    """Cost of moving one core from ``old`` to ``new``."""
    ov = system.overheads
    stall = dvfs_transition_cost_ns(ov.dvfs_transition_us, old.freq, new.freq)
    if old.core != new.core:
        stall += ov.resize_transition_us * 1000.0

    extra_misses = ov.warmup_extra_misses(new.ways - old.ways)
    warmup_ns = extra_misses * system.mem.latency_ns / WARMUP_MLP
    warmup_energy = extra_misses * system.mem.energy_per_access_nj

    # Leakage + background power burn during the stall (no instructions retire).
    f_new = system.vf.freqs_ghz[new.freq]
    vr = float(voltage_ratio(system.vf, f_new))
    leak_w = system.core_leak_w * system.core_sizes[new.core].leak_factor * vr
    idle_power_w = leak_w + system.mem.background_power_w / system.ncores
    total_stall = stall + warmup_ns
    return TransitionCost(
        stall_ns=total_stall,
        energy_nj=total_stall * idle_power_w + warmup_energy,
    )
