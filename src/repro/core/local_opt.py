"""Local optimisation: QoS-prune the per-core configuration space.

For every way allocation ``w``, find the cheapest QoS-feasible setting:

* Paper I (core size fixed): ``fmin(w)`` -- the minimum frequency whose
  predicted performance meets the target -- then the energy at
  ``(fmin(w), w)``;
* Paper II: the ``(c*(w), f*(w))`` pair minimising predicted energy among
  all QoS-feasible combinations.

Both collapse to the same computation over the ``(C, F, W)`` grids,
restricted to the dimensions the manager controls (:class:`DimSpec`): per
way count, the first minimum of the QoS-masked EPI over the chosen
``(c, f)`` pairs in index order.  The result is one
:class:`EnergyCurve` per input row, handed to the global optimiser, which
places it by leaf slot.

:func:`local_optimize_batch` is the one implementation: one call to the
compiled ``curve_chain`` (``_kernels.c``, loaded through
:func:`repro.kernels.shared`) computes every core's QoS target
(:mod:`repro.core.qos`) and its curve, after the performance and energy
models' grids (:mod:`repro.core.perf_model`,
:mod:`repro.core.energy_model`) when handed model rows
(:mod:`repro.core.batch_opt`).  Its NumPy reference is ``local_optimize``
in ``tests/oracles/model_chain.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.config import SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.energy_model import epi_constants
from repro.core.overhead_meter import OverheadMeter
from repro.core.perf_model import tpi_constants
from repro.core.qos import QOS_TOLERANCE
from repro.util.identity_memo import identity_memo
from repro.util.validation import require

__all__ = ["DimSpec", "ROW_FIELDS", "Plan", "plan_of", "local_optimize_batch"]

_kernel = kernels.shared()

#: The fields of an input row the target and the local optimisation read,
#: in ``curve_chain``'s order: the QoS slack, the core's own way pin (0:
#: the :class:`DimSpec`'s) and the QoS target, which the call writes.
ROW_FIELDS = ("slack", "pin", "target")

#: ``curve_chain``'s failed checks, by its return value.
_ERRORS = (
    None,
    "ilp_sensitivity must be in [0, 1]",
    "slack must be non-negative",
    "counter snapshot core index out of range",
    "input rows do not match the grids",
)


@dataclass(frozen=True)
class DimSpec:
    """Which dimensions of the configuration space a manager may move.

    ``None`` means the full range; a tuple restricts to those indices.
    ``pin_ways`` restricts way allocations (e.g. the DVFS-only manager pins
    every core at its baseline share).
    """

    core_indices: tuple[int, ...] | None = None
    freq_indices: tuple[int, ...] | None = None
    pin_ways: int | None = None

    def cores(self, system: SystemConfig) -> tuple[int, ...]:
        """The core-size indices the manager may choose from."""
        return (
            self.core_indices
            if self.core_indices is not None
            else tuple(range(system.ncore_sizes))
        )

    def freqs(self, system: SystemConfig) -> tuple[int, ...]:
        """The VF operating-point indices the manager may choose from."""
        return (
            self.freq_indices
            if self.freq_indices is not None
            else tuple(range(system.vf.nlevels))
        )


class Plan:
    """A :class:`DimSpec` packed for ``curve_chain`` on one system.

    ``plan`` is the int64 array the call reads: the grid shape ``(C, F,
    W)``, the baseline point, the chosen core-size and VF counts, the way
    pin (0: none), then the chosen indices.  Read-only once built.
    """

    __slots__ = ("shape", "points", "plan", "addr")

    def __init__(self, system: SystemConfig, dims: DimSpec) -> None:
        shape = (system.ncore_sizes, system.vf.nlevels, system.llc.ways)
        cores, freqs = dims.cores(system), dims.freqs(system)
        require(all(0 <= c < shape[0] for c in cores), "core-size index out of range")
        require(all(0 <= f < shape[1] for f in freqs), "VF index out of range")
        pin = 0 if dims.pin_ways is None else dims.pin_ways
        require(0 <= pin <= shape[2], "pinned way count out of range")
        self.shape = shape
        #: Grid points one core's local optimisation evaluates (metered).
        self.points = len(cores) * len(freqs) * shape[2]
        head = (*shape, system.baseline_core_index, system.baseline_freq_index)
        self.plan = np.array(
            [*head, system.baseline_ways - 1, len(cores), len(freqs), pin, *cores, *freqs],
            dtype=np.int64,
        )
        self.addr = self.plan.ctypes.data


#: Per-system tables of :class:`Plan` by :class:`DimSpec`, memoised by the
#: system's identity (each plan is read-only once built).
_PLANS: dict[int, tuple] = {}


def plan_of(system: SystemConfig, dims: DimSpec) -> Plan:
    """The :class:`Plan` of ``dims`` on ``system``, built once per pair."""
    plans = identity_memo(_PLANS, system, lambda s: {})
    plan = plans.get(dims)
    if plan is None:
        plan = plans[dims] = Plan(system, dims)
    return plan


#: Per-system model constants (one read-only float64 buffer and its
#: address), memoised by the system's identity.
_CONSTANTS: dict[int, tuple] = {}


def _build_constants(system: SystemConfig) -> tuple:
    buf = np.concatenate(tpi_constants(system) + epi_constants(system))
    return buf, buf.ctypes.data


def local_optimize_batch(
    system: SystemConfig,
    rows: np.ndarray,
    grids: np.ndarray,
    dims: DimSpec,
    meter: OverheadMeter | None = None,
) -> list[EnergyCurve]:
    """QoS targets and local optimisation of ``N`` rows in one compiled call.

    ``rows`` holds one input row per core: :data:`ROW_FIELDS` rows, or the
    model rows of :func:`repro.core.batch_opt.model_rows`, from which the
    call first writes the performance and energy models' grids (over the
    system's constants, built once per system).  ``grids`` is the call's
    ``(2, N, C, F, W)`` float64 scratch, TPI then EPI: the grids it
    optimises over, written by the call from model rows or else by the
    caller.  Each core's target is written to its row's ``target`` field.

    Per way count, the argmin runs over the chosen ``(c, f)`` pairs in
    index order, so ties resolve to the lowest index exactly as
    ``np.argmin`` over the flattened axis would, and the meter is charged
    the same grid-point count per core.  A core's way pin (its row's
    ``pin``, the uncoordinated UCP+DVFS manager's fixed partition)
    overrides ``dims.pin_ways``.  The curves hold row views of one
    ``(N, W)`` EPI buffer and one ``(2, N, W)`` int64 index buffer,
    freshly allocated and owned only by these (frozen, never-mutated)
    curves, one per row in row order.
    """
    plan = plan_of(system, dims)
    require(rows.ndim == 2 and rows.dtype == np.float64, "input rows must be 2-D float64")
    n = len(rows)
    require(
        grids.shape == (2, n, *plan.shape) and grids.dtype == np.float64, "grid shape mismatch"
    )
    require(rows.flags.c_contiguous and grids.flags.c_contiguous, "buffers must be contiguous")
    constants = None
    if rows.shape[1] != len(ROW_FIELDS):
        constants = identity_memo(_CONSTANTS, system, _build_constants)[1]
    ways = plan.shape[2]
    epi = np.empty((n, ways))
    idx = np.empty((2, n, ways), dtype=np.int64)
    buffers = (rows.ctypes.data, rows.shape[1], grids.ctypes.data, epi.ctypes.data, idx.ctypes.data)
    err = _kernel.curve_chain(plan.addr, constants, n, *buffers, QOS_TOLERANCE)
    if err:
        raise ValueError(_ERRORS[err])
    if meter is not None:
        meter.charge_grid(n * plan.points)
    freq_idx, core_idx = idx
    return [EnergyCurve(epi=epi[i], freq_idx=freq_idx[i], core_idx=core_idx[i]) for i in range(n)]
