"""Curve construction: the managers' one model chain.

Every manager builds its per-core energy curves
(:class:`~repro.core.curves.EnergyCurve`) here, in one compiled call per
batch: :func:`~repro.core.local_opt.local_optimize_batch` runs
``curve_chain`` (``_minplus.c``) over one input row per core.  For the
analytical managers a row is a :data:`MODEL_FIELDS` row -- the QoS slack,
the way pin, the counter-snapshot fields, the sampled ATD miss curve and
the MLP model's ``(C, W)`` estimate -- and the call computes the
execution-CPI rescale, the TPI grid (:mod:`repro.core.perf_model`), the
EPI grid (:mod:`repro.core.energy_model`), the baseline-anchored QoS
target (:mod:`repro.core.qos`) and the local optimisation
(:mod:`repro.core.local_opt`).  The oracle path hands the call the
records' exact grids instead and runs the same target and local
optimisation.  The realistic coordinated managers pass a batch of one
(the invoking core); oracle mode and the UCP+DVFS strawman pass every
core they decide.

Curves carry no core label: each comes back in its row's position, and
the caller places it by leaf slot.

Bit-identity contract: a core's curve depends on its own row only, and
each produced curve -- and every metered grid-point charge -- equals the
per-core NumPy chain kept in ``tests/oracles/model_chain.py`` with ``==``
on every number.  ``tests/test_batch_opt.py`` enforces this.

Thread safety: the model constants and the :class:`~repro.core.local_opt.Plan`
are read-only once built; the rows, the grids and the outputs belong to
the call, so concurrent replays share no mutable buffer.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.local_opt import ROW_FIELDS, DimSpec, local_optimize_batch, plan_of
from repro.core.overhead_meter import OverheadMeter
from repro.util.validation import require

__all__ = ["MODEL_FIELDS", "model_rows", "analytical_curves_batch", "oracle_curves_batch"]

#: The scalar fields of a model row, in ``curve_chain``'s order:
#: :data:`~repro.core.local_opt.ROW_FIELDS`, then the counter snapshot's.
#: The sampled miss curve (``W``) and the MLP estimate (``C * W``) follow.
MODEL_FIELDS = ROW_FIELDS + (
    "ilp_index_est",
    "core_index",
    "exec_cpi",
    "avg_mem_latency_ns",
    "epi_dyn_est_nj",
    "llc_accesses",
    "instructions",
)


def model_rows(
    system: SystemConfig,
    model,
    snapshots: list,
    mpki_sampled: list,
    mlp_sampled: list,
    slacks: list[float],
    pin_ways_per_core: list[int] | None = None,
) -> np.ndarray:
    """One model row per core: :data:`MODEL_FIELDS` (target 0 until the
    call writes it), the sampled miss curve, then ``model.mlp_hat``'s
    ``(C, W)`` estimate, row-major."""
    n_c, n_w = system.ncore_sizes, system.llc.ways
    k = len(MODEL_FIELDS)
    rows = np.empty((len(snapshots), k + n_w + n_c * n_w))
    pins = (0,) * len(snapshots) if pin_ways_per_core is None else pin_ways_per_core
    for row, snap, mpki, mlp, slack, pin in zip(
        rows, snapshots, mpki_sampled, mlp_sampled, slacks, pins
    ):
        row[:k] = (
            slack,
            pin,
            0.0,
            snap.ilp_index_est,
            snap.core_index,
            snap.exec_cpi,
            snap.avg_mem_latency_ns,
            snap.epi_dyn_est_nj,
            snap.llc_accesses,
            snap.instructions,
        )
        row[k : k + n_w] = mpki
        row[k + n_w :].reshape(n_c, n_w)[...] = model.mlp_hat(system, snap, mlp)
    return rows


def analytical_curves_batch(
    system: SystemConfig,
    model,
    snapshots: list,
    mpki_sampled: list,
    mlp_sampled: list,
    slacks: list[float],
    dims: DimSpec,
    meter: OverheadMeter | None = None,
    pin_ways_per_core: list[int] | None = None,
) -> list[EnergyCurve]:
    """Analytical-model curves for ``N`` cores in one compiled call.

    Counter snapshots and sampled ATD miss curves in, QoS-pruned energy
    curves out (``CoordinatedManager._analytical_curve`` is a batch of
    one).  ``pin_ways_per_core`` restricts each core to a fixed partition
    (the uncoordinated UCP+DVFS manager's protocol).
    """
    n = len(snapshots)
    require(
        n == len(mpki_sampled) == len(mlp_sampled) == len(slacks),
        "batched inputs must be parallel lists",
    )
    if pin_ways_per_core is not None:
        require(len(pin_ways_per_core) == n, "one pinned way count per core")
        require(
            all(1 <= p <= system.llc.ways for p in pin_ways_per_core),
            "pinned way count out of range",
        )
    rows = model_rows(
        system, model, snapshots, mpki_sampled, mlp_sampled, slacks, pin_ways_per_core
    )
    grids = np.empty((2, n, *plan_of(system, dims).shape))
    return local_optimize_batch(system, rows, grids, dims, meter)


def oracle_curves_batch(
    system: SystemConfig,
    records: list,
    slacks: list[float],
    dims: DimSpec,
    meter: OverheadMeter | None = None,
) -> list[EnergyCurve]:
    """Oracle ("perfect models") curves for ``N`` cores in one compiled call.

    The oracle path reads each core's *upcoming* record's exact ``(C, F, W)``
    grids, so batching is a stack plus the target and local optimisation.
    """
    n = len(records)
    require(n == len(slacks), "batched inputs must be parallel lists")
    shape = plan_of(system, dims).shape
    require(
        all(np.shape(r.tpi) == shape == np.shape(r.epi) for r in records),
        "grid shape mismatch",
    )
    grids = np.empty((2, n, *shape))
    for i, rec in enumerate(records):
        grids[0, i] = rec.tpi
        grids[1, i] = rec.epi
    rows = np.zeros((n, len(ROW_FIELDS)))
    rows[:, 0] = slacks
    return local_optimize_batch(system, rows, grids, dims, meter)
