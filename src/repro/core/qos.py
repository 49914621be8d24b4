"""QoS targets: performance constraints anchored at the baseline allocation.

The paper's QoS definition: every application must perform at least as well
as it would under the baseline resource allocation; the relaxation
experiments allow a bounded slowdown (``slack``) against that anchor.

The target is always computed *with the same predictor* used for candidate
configurations, so systematic model biases partially cancel -- the mechanism
that keeps even the naive Model 1 serviceable (and which the model-accuracy
experiment quantifies).
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.util.validation import require

__all__ = ["qos_targets_from_grids", "QOS_TOLERANCE"]

#: Predicted slowdowns below this are treated as meeting the constraint.
#: The paper treats end-to-end slowdowns below 1% as negligible; the manager
#: budgets only half of that, leaving headroom for model error, so that
#: steady-state configurations do not sit exactly on the negligibility edge.
#: Without any tolerance, a donor whose miss curve is flat to within
#: measurement noise could never give up a single way.
QOS_TOLERANCE = 0.005


def qos_targets_from_grids(
    system: SystemConfig,
    tpi_batch: np.ndarray,
    slacks: list[float],
) -> np.ndarray:
    """Maximum admissible predicted TPI per core, from stacked grids.

    ``tpi_batch`` is the predictor's ``(N, C, F, W)`` output.  Each core's
    target is its baseline prediction -- the paper's anchor: medium core,
    nominal VF, equal LLC share -- times ``(1 + slack)`` and the
    ``QOS_TOLERANCE`` headroom, one vectorised read and one elementwise
    multiply chain for all ``N`` cores.
    """
    slack_arr = np.asarray(slacks, dtype=float)
    require(bool(np.all(slack_arr >= 0.0)), "slack must be non-negative")
    base = tpi_batch[
        :,
        system.baseline_core_index,
        system.baseline_freq_index,
        system.baseline_ways - 1,
    ]
    return base * (1.0 + slack_arr) * (1.0 + QOS_TOLERANCE)
