"""Layered RMA simulation kernel.

The monolithic replay loop of the original :mod:`repro.simulation.rma_sim`
is decomposed into four components with one orchestrator:

* :mod:`~repro.simulation.engine.core_state` -- :class:`CoreArrays`, the
  struct-of-arrays hot-path state (one row of a float64 lane buffer per
  field) behind the engine's one per-event step -- a padded
  next-completion argmin, an advance of every active lane and the
  completing lane's retire, one call into the compiled library of
  :mod:`repro.kernels` (the step's one implementation: a working C
  compiler is required) -- and :class:`CoreRun`, the thin per-core view
  the slow path works with;
* :mod:`~repro.simulation.engine.scheduler` --
  :class:`CompletionScheduler`, which owns the per-core completion-time
  computation and caches each core's (record, tpi, epi) triple,
  invalidating a core's entry only when its allocation, tenancy or phase
  slice changes instead of re-reading the database grids for every core on
  every event;
* :mod:`~repro.simulation.engine.tenancy` -- :class:`TenancyModel`, which
  owns the pending scenario-event queues and applies swap/depart/slack
  requests at interval boundaries;
* :mod:`~repro.simulation.engine.bridge` -- :class:`ManagerBridge`, the
  narrow manager-facing API (``slack``, ``current_alloc``, ``is_active``,
  ``completed_snapshot``, ``completed_record``, ``active_core_ids``,
  ``upcoming_records``) that keeps :mod:`repro.core.managers` unchanged;
* :mod:`~repro.simulation.engine.kernel` -- :class:`SimulationKernel`, the
  event loop tying the components together.

Every accounting decision is bit-identical to the frozen reference
implementation in ``tests/oracles/legacy_sim.py``, and the step's lane
arithmetic to the scalar reference step in ``tests/oracles/engine_step.py``;
the golden equivalence and engine identity suites enforce both.
"""

from repro.simulation.engine.bridge import ManagerBridge
from repro.simulation.engine.core_state import CoreArrays, CoreRun
from repro.simulation.engine.kernel import MAX_EVENTS, SimulationKernel
from repro.simulation.engine.scheduler import CompletionScheduler
from repro.simulation.engine.tenancy import TenancyModel

__all__ = [
    "CoreArrays",
    "CoreRun",
    "CompletionScheduler",
    "TenancyModel",
    "ManagerBridge",
    "SimulationKernel",
    "MAX_EVENTS",
]
