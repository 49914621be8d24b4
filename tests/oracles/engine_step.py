"""The scalar engine step: the reference of the kernel's fused step.

The kernel finds the next interval completion, advances every core and
retires the completing one with one call into the compiled library over
:class:`~repro.simulation.engine.core_state.CoreArrays` (``engine_step``
in ``src/repro/_kernels.c``, the step's only implementation).  These
two functions are the same arithmetic one core at a time, exactly as the
frozen ``tests/oracles/legacy_sim.py`` loop performs it:

* :func:`next_completion_scalar` -- the remaining-time formula
  ``pending_stall_ns + (interval_instructions - instr_done) * tpi`` over
  the active cores, ties broken to the lowest core id;
* :func:`advance_core` -- serve pending stall first, then retire
  ``dt / tpi`` instructions and charge their energy.

:func:`tpi`, :func:`remaining_ns` and :func:`is_valid` read one core's
entry of a :class:`~repro.simulation.engine.scheduler.CompletionScheduler`
at a time (refreshing a stale entry first, as the scalar loop did).

:func:`lanes_step` composes the first two into one whole event over plain
lanes, the reference of :meth:`CoreArrays.step`, and :func:`scalar_step`
into one event over a live
:class:`~repro.simulation.engine.kernel.SimulationKernel`;
``tests/test_engine_vector.py`` drives both against the production step
and compares every number with ``==``.
"""

from __future__ import annotations

import math

__all__ = [
    "advance_core",
    "is_valid",
    "lanes_step",
    "next_completion_scalar",
    "remaining_ns",
    "scalar_step",
    "tpi",
]


def is_valid(scheduler, core_id: int) -> bool:
    """Whether the scheduler's cached entry for the core is current."""
    return core_id not in scheduler._stale


def tpi(scheduler, core_id: int) -> float:
    """Cached time-per-instruction of the core's slice at its allocation."""
    if core_id in scheduler._stale:
        scheduler._refresh(core_id)
    return float(scheduler.arrays.tpi[core_id])


def remaining_ns(scheduler, core_id: int) -> float:
    """Wall-clock span until the core completes its current interval."""
    core = scheduler.cores[core_id]
    if not core.active:
        return math.inf
    left = scheduler.system.interval_instructions - core.instr_done
    return core.pending_stall_ns + left * tpi(scheduler, core_id)


def advance_core(core, dt: float, tpi: float, epi: float) -> None:
    """Advance one core by ``dt`` ns at the cached ``tpi``/``epi`` rates.

    The scalar reference of the advance in :meth:`CoreArrays.step`: pending
    reconfiguration stall is served before any instructions retire; a core
    that spends the whole span stalled makes no progress.  ``core`` is
    anything exposing mutable ``instr_done`` / ``pending_stall_ns`` /
    ``energy_nj`` / ``active`` fields (a :class:`CoreRun` view or a plain
    test double).
    """
    if dt <= 0.0 or not core.active:
        return
    if core.pending_stall_ns > 0.0:
        served = min(core.pending_stall_ns, dt)
        core.pending_stall_ns -= served
        dt -= served
        if dt <= 0.0:
            return
    instr = dt / tpi
    core.instr_done += instr
    core.energy_nj += instr * epi


def lanes_step(cores, rates, interval_instructions: float) -> tuple[int, float]:
    """One event over plain lanes, the scalar reference of
    :meth:`CoreArrays.step`: ``(j, dt)`` of the earliest completion over
    the active ``cores`` (``rates[k]`` is lane ``k``'s ``(tpi, epi)``;
    ``(0, inf)`` when none is active), every other lane advanced by
    ``dt``, and lane ``j`` retired: its remaining instructions charged at
    its epi and its pending stall cleared.  Lane ``j``'s ``instr_done`` is
    left as it was (the production step leaves it advanced; the kernel
    resets it either way)."""
    best = math.inf
    j = 0
    for k, core in enumerate(cores):
        if not core.active:
            continue
        r = core.pending_stall_ns + (interval_instructions - core.instr_done) * rates[k][0]
        if r < best:
            best = r
            j = k
    for k, core in enumerate(cores):
        if k != j:
            advance_core(core, best, *rates[k])
    core = cores[j]
    core.energy_nj += (interval_instructions - core.instr_done) * rates[j][1]
    core.pending_stall_ns = 0.0
    return j, best


def next_completion_scalar(self) -> tuple[int, float]:
    """Scalar reference of the completion :meth:`CoreArrays.step` finds
    after :meth:`CompletionScheduler.refresh_stale` (``self`` is the
    scheduler; identical arithmetic, one lane at a time)."""
    interval_instr = self.system.interval_instructions
    best = math.inf
    best_j = 0
    for j, core in enumerate(self.cores):
        if not core.active:
            continue
        left = interval_instr - core.instr_done
        r = core.pending_stall_ns + left * tpi(self, j)
        if r < best:
            best = r
            best_j = j
    return best_j, best


def scalar_step(kernel) -> tuple[int, float]:
    """One event of the scalar kernel step: every active core but the
    completing one advances by ``dt``, the completing core retires its
    interval's remaining instructions exactly.  Returns ``(j, dt)``; the
    kernel's completion bookkeeping follows as in production."""
    scheduler = kernel.scheduler
    arrays = kernel.arrays
    j, dt = next_completion_scalar(scheduler)
    for core in kernel.cores:
        k = core.core_id
        if k != j and core.active:
            # tpi refreshes a stale entry, so the epi read after it is fresh.
            advance_core(core, dt, tpi(scheduler, k), float(arrays.epi[k]))
    left = kernel.system.interval_instructions - arrays.instr_done[j]
    arrays.energy_nj[j] += left * arrays.epi[j]
    arrays.pending_stall_ns[j] = 0.0
    return j, dt
