"""Dynamic scenario engine: time-varying multi-tenant workloads.

The papers evaluate the coordinated RMA on static workloads -- one app per
core for the whole run.  Production systems are not static: applications
arrive and depart, QoS contracts tighten and relax, and load ramps up and
down.  This package describes such time-varying executions as *scenarios*:

* a :class:`~repro.scenarios.events.Scenario` is an initial workload plus a
  time-ordered stream of :class:`~repro.scenarios.events.ScenarioEvent`\\ s
  (app swap, departure, QoS-slack change) and a total-interval horizon;
* :mod:`repro.scenarios.generators` builds scenarios from stochastic
  processes -- Poisson and trace-driven arrivals, application churn, QoS
  ramps, load bursts, whole-cluster churn and skewed hot/cold loads -- all
  seeded through :mod:`repro.util.rng` so the event streams are
  bit-reproducible across processes and platforms;
* the simulation kernel applies the events at interval boundaries (the
  tenancy component, :mod:`repro.simulation.engine.tenancy`) and runs to
  the horizon.

Scenario experiments S1..S7 (:mod:`repro.experiments.scenarios`) drive the
engine end-to-end and are registered alongside the paper experiments; the
many-core shapes S5 (cluster churn) and S6 (skewed load) exercise the
hierarchical cluster tier of :class:`repro.core.managers.CoordinatedManager`
(its ``cluster_size``), and S7 sweeps flat vs clustered across system sizes.
"""

from repro.scenarios.events import Scenario, ScenarioEvent
from repro.scenarios.generators import (
    DEFAULT_INTERVAL_NS,
    burst_load,
    churn,
    cluster_churn,
    poisson_arrivals,
    qos_ramp,
    skewed_load,
    trace_arrivals,
)

__all__ = [
    "Scenario",
    "ScenarioEvent",
    "DEFAULT_INTERVAL_NS",
    "poisson_arrivals",
    "trace_arrivals",
    "churn",
    "qos_ramp",
    "burst_load",
    "cluster_churn",
    "skewed_load",
]
