"""Phase-history extension of the coordinated RMA (thesis future work #1).

The papers' RMAs "have a short term optimization scope ... no memory of the
past events or any speculations about the future"; the thesis asks how
collecting such information could improve the schemes.  This module
implements that extension:

* every completed interval is summarised into a quantised **phase
  signature** (counter-space fingerprint, no oracle phase ids);
* a per-core **phase table** stores exponentially smoothed statistics (ATD
  curve, MLP table, counter snapshot) for each signature, cutting sampling
  noise on revisits;
* a first-order **Markov transition table** between signatures predicts the
  next interval's phase; when the predictor is confident, the RMA models the
  *predicted* phase instead of assuming "next interval = last interval" --
  attacking the phase-lag error at segment boundaries directly.

``rm2_history`` / ``rm3_history`` are drop-in variants of the Paper I / II
managers; ablation A4 quantifies what the history buys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch_opt import analytical_curves_batch
from repro.core.curves import EnergyCurve
from repro.core.managers import CoordinatedManager

__all__ = ["HistoryAwareManager", "PhaseEntry", "rm2_history", "rm3_history"]

#: EWMA weight of the newest observation when updating a phase entry.
SMOOTHING = 0.5

#: Minimum observations of a transition before the predictor trusts it more
#: than "next = current".
MIN_TRANSITIONS = 3


def signature(snapshot) -> tuple:
    """Quantised counter fingerprint of an interval (no oracle phase ids)."""
    return (
        round(float(np.log10(snapshot.mpki + 1.0)), 1),
        round(snapshot.exec_cpi, 1),
        round(snapshot.mlp_observed * 2.0) / 2.0,
    )


@dataclass
class PhaseEntry:
    """Smoothed per-phase statistics accumulated across revisits."""

    snapshot: object
    mpki_sampled: np.ndarray
    mlp_sampled: np.ndarray
    visits: int = 1

    def update(self, snapshot, mpki_sampled: np.ndarray, mlp_sampled: np.ndarray) -> None:
        """Fold a new observation of this phase into the smoothed entry."""
        a = SMOOTHING
        self.snapshot = snapshot  # counters are exact; keep the freshest
        self.mpki_sampled = (1 - a) * self.mpki_sampled + a * np.asarray(mpki_sampled)
        self.mlp_sampled = np.maximum((1 - a) * self.mlp_sampled + a * np.asarray(mlp_sampled), 1.0)
        self.visits += 1


@dataclass
class CoreHistory:
    """One core's phase table and Markov transition counts."""

    table: dict[tuple, PhaseEntry] = field(default_factory=dict)
    transitions: dict[tuple, Counter] = field(default_factory=dict)
    last_sig: tuple | None = None

    def observe(self, sig: tuple, snapshot, mpki_sampled, mlp_sampled) -> None:
        """Record one completed interval under signature ``sig``."""
        entry = self.table.get(sig)
        if entry is None:
            self.table[sig] = PhaseEntry(
                snapshot=snapshot,
                mpki_sampled=np.asarray(mpki_sampled, dtype=float).copy(),
                mlp_sampled=np.asarray(mlp_sampled, dtype=float).copy(),
            )
        else:
            entry.update(snapshot, mpki_sampled, mlp_sampled)
        if self.last_sig is not None:
            self.transitions.setdefault(self.last_sig, Counter())[sig] += 1
        self.last_sig = sig

    def predict_next(self, sig: tuple) -> tuple:
        """Most likely next signature; falls back to "stay in phase"."""
        counts = self.transitions.get(sig)
        if not counts:
            return sig
        best, n = counts.most_common(1)[0]
        if best != sig and n < MIN_TRANSITIONS:
            return sig
        return best


class HistoryAwareManager(CoordinatedManager):
    """Coordinated RMA with a phase table and Markov next-phase prediction."""

    def __init__(self, name: str = "rm2-history", **kwargs) -> None:
        kwargs.setdefault("control_dvfs", True)
        kwargs.setdefault("control_partitioning", True)
        super().__init__(name=name, **kwargs)
        self.history: dict[int, CoreHistory] = {}

    def attach(self, sim) -> None:
        """Reset the per-core phase tables for a fresh run."""
        super().attach(sim)
        self.history = {}

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """Drop the phase table too: it fingerprints the departed tenant."""
        super().on_scenario_event(core_id, kind)
        self.history.pop(core_id, None)

    def _analytical_curve_memo(self, core_id: int) -> EnergyCurve:
        """No memo: the curve also depends on the accumulated phase tables,
        which every invocation updates."""
        return self._analytical_curve(core_id)

    def _analytical_curve(self, core_id: int) -> EnergyCurve:
        sim, system = self.sim, self.sim.system
        snap = sim.completed_snapshot(core_id)
        rec = sim.completed_record(core_id)

        hist = self.history.setdefault(core_id, CoreHistory())
        sig = signature(snap)
        hist.observe(sig, snap, rec.mpki_sampled, rec.mlp_sampled)

        target_sig = hist.predict_next(sig)
        entry = hist.table.get(target_sig)
        if entry is None:
            entry = hist.table[sig]

        return analytical_curves_batch(
            system,
            self.model,
            [entry.snapshot],
            [entry.mpki_sampled],
            [entry.mlp_sampled],
            [sim.slack(core_id)],
            self._dimspec,
            self.meter,
        )[0]


def rm2_history(mlp_model: str = "model2") -> HistoryAwareManager:
    """Paper I's combined RMA plus phase history/prediction."""
    return HistoryAwareManager(name="rm2-history", mlp_model=mlp_model)


def rm3_history(mlp_model: str = "model3") -> HistoryAwareManager:
    """Paper II's RM3 plus phase history/prediction."""
    return HistoryAwareManager(name="rm3-history", control_core_size=True, mlp_model=mlp_model)
