"""Local optimisation: QoS-prune the per-core configuration space.

For every way allocation ``w``, find the cheapest QoS-feasible setting:

* Paper I (core size fixed): ``fmin(w)`` -- the minimum frequency whose
  predicted performance meets the target -- then the energy at
  ``(fmin(w), w)``;
* Paper II: the ``(c*(w), f*(w))`` pair minimising predicted energy among
  all QoS-feasible combinations.

Both collapse to the same vectorised computation over the ``(C, F, W)``
grids, restricted to the dimensions the manager controls
(:class:`DimSpec`).  The result is the per-core :class:`EnergyCurve` handed
to the global optimiser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.overhead_meter import OverheadMeter
from repro.util.validation import require

__all__ = ["DimSpec", "local_optimize_batch"]


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


def local_optimize_batch(
    system: SystemConfig,
    core_ids: list[int],
    tpi_batch: np.ndarray,
    epi_batch: np.ndarray,
    targets: np.ndarray,
    dims: DimSpec,
    meter: OverheadMeter | None = None,
    pin_ways_per_core: list[int] | None = None,
) -> list[EnergyCurve]:
    """Collapse stacked ``(N, C, F, W)`` grids into one curve per core.

    One vectorised pass over all ``N`` cores' grids; a single core is a
    batch of one.  Each slice's argmin runs over the flattened ``(c, f)``
    axis in index order, so ties resolve to the lowest index exactly as a
    per-core loop would (``tests/oracles/model_chain.py``), and the meter is
    charged the same grid-point count per core.

    ``pin_ways_per_core`` restricts each core to its own single way count
    (the uncoordinated UCP+DVFS manager hands every core a fixed partition);
    it composes with -- and overrides -- ``dims.pin_ways``.
    """
    require(tpi_batch.shape == epi_batch.shape, "grid shape mismatch")
    require(tpi_batch.ndim == 4, "batched grids must be (N, C, F, W)")
    n, n_c, n_f, n_w = tpi_batch.shape
    require(len(core_ids) == n, "one core id per batched grid")

    cores = np.asarray(dims.cores(system), dtype=int)
    freqs = np.asarray(dims.freqs(system), dtype=int)
    if meter is not None:
        meter.charge_grid(n * len(cores) * len(freqs) * n_w)

    idx = np.ix_(np.arange(n), cores, freqs, np.arange(n_w))
    sub_tpi = tpi_batch[idx]
    sub_epi = epi_batch[idx]
    feasible = sub_tpi <= np.asarray(targets, dtype=float)[:, None, None, None]
    masked = np.where(feasible, sub_epi, np.inf)

    if pin_ways_per_core is not None:
        keep = np.zeros((n, n_w), dtype=bool)
        keep[np.arange(n), np.asarray(pin_ways_per_core, dtype=int) - 1] = True
        masked = np.where(keep[:, None, None, :], masked, np.inf)
    elif dims.pin_ways is not None:
        keep = np.zeros(n_w, dtype=bool)
        keep[dims.pin_ways - 1] = True
        masked = np.where(keep[None, None, None, :], masked, np.inf)

    flat = masked.reshape(n, -1, n_w)  # (N, C'*F', W)
    best = np.argmin(flat, axis=1)  # (N, W)
    epi = np.take_along_axis(flat, best[:, None, :], axis=1)[:, 0, :]
    c_sel = cores[best // len(freqs)]
    f_sel = freqs[best % len(freqs)]
    # Infeasible columns keep inf epi; their (c, f) entries are meaningless
    # but harmless because the global optimiser never selects them.
    # Curves hold row views of the batch outputs: the arrays above are
    # freshly allocated, owned only by these (frozen, never-mutated)
    # curves, so per-row copies would buy nothing.
    return [
        EnergyCurve(
            core_id=core_id,
            epi=epi[i],
            freq_idx=f_sel[i],
            core_idx=c_sel[i],
        )
        for i, core_id in enumerate(core_ids)
    ]
