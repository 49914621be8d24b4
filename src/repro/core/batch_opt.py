"""Curve construction: the managers' one model chain.

Every manager builds its per-core energy curves
(:class:`~repro.core.curves.EnergyCurve`) here: counter snapshots and ATD
miss curves are stacked into ``(N, C, F, W)`` tensors, then the performance
and energy models, the QoS targets and the local optimisation each run once
over the whole batch.  The realistic coordinated managers pass a batch of
one (the invoking core); oracle mode and the UCP+DVFS strawman pass every
core they decide.

Bit-identity contract: the batch axis is purely a leading dimension, so
each produced curve -- and every metered grid-point charge -- equals the
per-core chain kept in ``tests/oracles/model_chain.py`` with ``==`` on
every number.  ``tests/test_batch_opt.py`` enforces this.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.energy_model import predict_epi_grid_batch
from repro.core.local_opt import DimSpec, local_optimize_batch
from repro.core.overhead_meter import OverheadMeter
from repro.core.perf_model import predict_tpi_grid_batch
from repro.core.qos import qos_targets_from_grids
from repro.util.validation import require

__all__ = ["stack_mlp_hats", "analytical_curves_batch", "oracle_curves_batch"]


def stack_mlp_hats(
    system: SystemConfig,
    model,
    snapshots: list,
    mlp_sampled: list,
) -> np.ndarray:
    """``(N, C, W)`` MLP estimates: the model's per-core outputs, stacked.

    Model evaluation itself is cheap (a fill or a cast); stacking keeps the
    exact per-core arrays so downstream slices stay bit-identical.
    """
    return np.stack([model.mlp_hat(system, s, m) for s, m in zip(snapshots, mlp_sampled)])


def analytical_curves_batch(
    system: SystemConfig,
    model,
    core_ids: list[int],
    snapshots: list,
    mpki_sampled: list,
    mlp_sampled: list,
    slacks: list[float],
    dims: DimSpec,
    meter: OverheadMeter | None = None,
    pin_ways_per_core: list[int] | None = None,
) -> list[EnergyCurve]:
    """Analytical-model curves for ``N`` cores in one vectorised pass.

    Counter snapshots and sampled ATD miss curves in, QoS-pruned energy
    curves out (``CoordinatedManager._analytical_curve`` is a batch of
    one).  ``pin_ways_per_core`` restricts each core to a fixed partition
    (the uncoordinated UCP+DVFS manager's protocol).
    """
    require(
        len(core_ids) == len(snapshots) == len(mpki_sampled) == len(mlp_sampled) == len(slacks),
        "batched inputs must be parallel lists",
    )
    mpki_batch = np.stack([np.asarray(m, dtype=float) for m in mpki_sampled])
    mlp_batch = stack_mlp_hats(system, model, snapshots, mlp_sampled)
    tpi_batch = predict_tpi_grid_batch(system, snapshots, mpki_batch, mlp_batch)
    epi_batch = predict_epi_grid_batch(system, snapshots, mpki_batch, tpi_batch)
    targets = qos_targets_from_grids(system, tpi_batch, slacks)
    return local_optimize_batch(
        system,
        core_ids,
        tpi_batch,
        epi_batch,
        targets,
        dims,
        meter,
        pin_ways_per_core=pin_ways_per_core,
    )


def oracle_curves_batch(
    system: SystemConfig,
    core_ids: list[int],
    records: list,
    slacks: list[float],
    dims: DimSpec,
    meter: OverheadMeter | None = None,
) -> list[EnergyCurve]:
    """Oracle ("perfect models") curves for ``N`` cores in one pass.

    The oracle path reads each core's *upcoming* record's exact ``(C, F, W)``
    grids, so batching is a stack plus one ``local_optimize_batch`` call.
    """
    require(
        len(core_ids) == len(records) == len(slacks),
        "batched inputs must be parallel lists",
    )
    tpi_batch = np.stack([np.asarray(r.tpi, dtype=float) for r in records])
    epi_batch = np.stack([np.asarray(r.epi, dtype=float) for r in records])
    targets = qos_targets_from_grids(system, tpi_batch, slacks)
    return local_optimize_batch(system, core_ids, tpi_batch, epi_batch, targets, dims, meter)
