"""Accounting of the RMA's own execution cost.

The paper reports the overhead of a C implementation of the RMA in executed
instructions (< 40 K for a 4-core Paper I system; 18 K / 40 K / 67 K for
2/4/8-core Paper II systems -- under 0.1 % of a 100 M-instruction interval).

We meter the same quantity by charging an instruction-cost constant for each
elementary operation the algorithm performs: one per evaluated configuration
grid point (the analytical models are a handful of multiplies/divides per
point), one per dynamic-programming cell in the curve reduction, plus a fixed
per-invocation cost for counter collection and bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OverheadMeter", "COST_GRID_POINT", "COST_DP_CELL", "COST_FIXED"]

#: Instructions per evaluated (c, f, w) model point (flops + loads + branch).
COST_GRID_POINT = 26
#: Instructions per DP cell in the pairwise curve reduction.
COST_DP_CELL = 9
#: Fixed instructions per invocation (counter reads, ATD readout, apply).
COST_FIXED = 900


@dataclass
class OverheadMeter:
    """Accumulates the RMA's instruction-equivalent execution cost."""

    instructions: float = 0.0
    invocations: int = 0
    grid_points: int = 0
    dp_cells: int = 0

    def begin_invocation(self) -> None:
        """Open a new invocation and charge its fixed bookkeeping cost."""
        self.invocations += 1
        self.instructions += COST_FIXED

    def charge_grid(self, points: int) -> None:
        """Charge ``points`` evaluated (c, f, w) model grid points."""
        self.grid_points += points
        self.instructions += points * COST_GRID_POINT

    def charge_replay(self, grid_points: int = 0, dp_cells: int = 0) -> None:
        """Re-charge cached costs for work the simulator skipped.

        The meter models the *paper's* RMA, which recomputes its models and
        curve reductions on every invocation.  Simulator-side shortcuts --
        curve memoization, the persistent reduction tree -- skip the Python
        work but must replay the modelled instruction cost so the metered
        overhead stays bit-identical to the recomputing reference path.
        """
        if grid_points:
            self.charge_grid(grid_points)
        if dp_cells:
            self.charge_dp(dp_cells)

    def charge_dp(self, cells: int) -> None:
        """Charge ``cells`` dynamic-programming cells of curve reduction."""
        self.dp_cells += cells
        self.instructions += cells * COST_DP_CELL
