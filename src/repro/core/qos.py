"""QoS targets: performance constraints anchored at the baseline allocation.

The paper's QoS definition: every application must perform at least as well
as it would under the baseline resource allocation; the relaxation
experiments allow a bounded slowdown (``slack``) against that anchor.

Each core's target is its predicted TPI at the baseline point -- medium
core, nominal VF, equal LLC share -- times ``(1 + slack)`` and then
``(1 + QOS_TOLERANCE)``, in that order.  The compiled ``curve_chain``
(:func:`repro.core.local_opt.local_optimize_batch`) computes it beside
the local optimisation, with :data:`QOS_TOLERANCE` passed in, and rejects
a negative slack; ``qos_target_tpi`` in ``tests/oracles/model_chain.py``
is its NumPy reference.

The target is always computed *with the same predictor* used for candidate
configurations, so systematic model biases partially cancel -- the mechanism
that keeps even the naive Model 1 serviceable (and which the model-accuracy
experiment quantifies).
"""

from __future__ import annotations

__all__ = ["QOS_TOLERANCE"]

#: Predicted slowdowns below this are treated as meeting the constraint.
#: The paper treats end-to-end slowdowns below 1% as negligible; the manager
#: budgets only half of that, leaving headroom for model error, so that
#: steady-state configurations do not sit exactly on the negligibility edge.
#: Without any tolerance, a donor whose miss curve is flat to within
#: measurement noise could never give up a single way.
QOS_TOLERANCE = 0.005
