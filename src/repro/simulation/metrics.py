"""Result accounting: energy, execution time, QoS violations.

The paper's metrics:

* **system energy savings** -- relative to the static-baseline run of the
  same workload (all apps at the baseline allocation);
* **QoS violation** -- an app's full execution taking longer than its
  (slack-adjusted) baseline execution, with violations below 1 % considered
  negligible;
* **interval-level violation statistics** (Paper II's model-accuracy
  analysis) -- probability / expected value / standard deviation of
  per-interval slowdowns versus the baseline interval time.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.util.validation import require

__all__ = [
    "AppResult",
    "IntervalSample",
    "IntervalSamples",
    "RunResult",
    "SAMPLE_DTYPE",
    "WorkloadComparison",
    "compare_runs",
    "energy_savings_pct",
    "interval_violation_stats",
    "run_result_digest",
    "NEGLIGIBLE_VIOLATION",
]

#: "Values below 1% are considered negligible" (thesis, §3.1).
NEGLIGIBLE_VIOLATION = 0.01


@dataclass(frozen=True)
class AppResult:
    """One application's first full execution round under a policy."""

    app: str
    core: int
    time_ns: float
    energy_nj: float
    intervals: int
    slack: float = 0.0


class IntervalSample(NamedTuple):
    """One interval of the model-accuracy analysis (E14): a row of
    :class:`IntervalSamples`."""

    core: int
    phase_key: int
    duration_ns: float
    baseline_ns: float
    slack: float


#: Builds an :class:`IntervalSample` from a 5-tuple in C, without the
#: Python-level call per row that ``IntervalSample._make`` makes.
_new_row = partial(tuple.__new__, IntervalSample)

#: Per-interval sample row layout: the column names of
#: :class:`IntervalSamples`, and the packed buffer the run digest hashes.
SAMPLE_DTYPE = np.dtype(
    [
        ("core", "<i8"),
        ("phase_key", "<i8"),
        ("duration_ns", "<f8"),
        ("baseline_ns", "<f8"),
        ("slack", "<f8"),
    ]
)
_SAMPLE_COLUMNS = SAMPLE_DTYPE.names


class IntervalSamples:
    """A run's per-interval samples as five read-only NumPy columns.

    ``core``, ``phase_key``, ``duration_ns``, ``baseline_ns`` and
    ``slack`` are each one contiguous array (``<i8`` or ``<f8``), so the
    statistics, ``/stream`` and the results store read whole columns
    instead of thousands of objects.  Iterating yields :class:`IntervalSample`
    rows; an integer index returns one row, a slice another container.
    Equality compares column bytes, so two containers are equal exactly
    when they hold the same numbers.
    """

    __slots__ = _SAMPLE_COLUMNS

    def __init__(self, rows: Iterable = ()) -> None:
        """Pack an iterable of ``(core, phase_key, duration_ns,
        baseline_ns, slack)`` rows (tuples or :class:`IntervalSample`)."""
        self._seal(list(zip(*rows)) or [()] * len(_SAMPLE_COLUMNS))

    def _seal(self, columns) -> None:
        for name, col in zip(_SAMPLE_COLUMNS, columns, strict=True):
            col = np.ascontiguousarray(col, dtype=SAMPLE_DTYPE[name]).view()
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def from_columns(cls, *columns) -> "IntervalSamples":
        """A container over existing columns, in :data:`SAMPLE_DTYPE` order
        (arrays of the column's dtype are shared, not copied)."""
        self = cls.__new__(cls)
        self._seal(columns)
        return self

    @classmethod
    def concat(cls, parts: Iterable["IntervalSamples"]) -> "IntervalSamples":
        """Every part's rows, in order, as one container."""
        parts = list(parts)
        if not parts:
            return cls()
        return cls.from_columns(
            *(np.concatenate([getattr(p, name) for p in parts]) for name in _SAMPLE_COLUMNS)
        )

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns, in :data:`SAMPLE_DTYPE` order."""
        return tuple(getattr(self, name) for name in _SAMPLE_COLUMNS)

    def packed(self) -> bytes:
        """The rows as one packed :data:`SAMPLE_DTYPE` buffer."""
        buf = np.empty(len(self), dtype=SAMPLE_DTYPE)
        for name in _SAMPLE_COLUMNS:
            buf[name] = getattr(self, name)
        return buf.tobytes()

    def __len__(self) -> int:
        return len(self.core)

    def __iter__(self) -> Iterator[IntervalSample]:
        return map(_new_row, zip(*(col.tolist() for col in self.columns())))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IntervalSamples.from_columns(*(col[index] for col in self.columns()))
        return IntervalSample._make(col[index].item() for col in self.columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSamples):
            return NotImplemented
        return all(a.tobytes() == b.tobytes() for a, b in zip(self.columns(), other.columns()))

    __hash__ = None

    def __setattr__(self, name, value) -> None:
        raise AttributeError("IntervalSamples is read-only")

    def __reduce__(self):
        return (IntervalSamples.from_columns, self.columns())

    def __repr__(self) -> str:
        return f"IntervalSamples(n={len(self)})"


@dataclass
class RunResult:
    """Complete outcome of one workload under one resource manager."""

    workload: str
    manager: str
    apps: list[AppResult]
    interval_samples: IntervalSamples = field(default_factory=IntervalSamples)
    rma_invocations: int = 0
    rma_instructions: float = 0.0
    sim_wall_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.interval_samples, IntervalSamples):
            self.interval_samples = IntervalSamples(self.interval_samples)

    @property
    def total_energy_nj(self) -> float:
        return float(sum(a.energy_nj for a in self.apps))

    @property
    def max_time_ns(self) -> float:
        return float(max(a.time_ns for a in self.apps))


@dataclass(frozen=True)
class AppViolation:
    """QoS outcome of one app: positive ``violation_pct`` = QoS missed."""

    app: str
    core: int
    slowdown_pct: float      # time vs baseline, minus allowed slack
    violated: bool


@dataclass(frozen=True)
class WorkloadComparison:
    """A policy run scored against its static-baseline run."""

    workload: str
    manager: str
    savings_pct: float
    violations: tuple[AppViolation, ...]

    @property
    def n_violations(self) -> int:
        return sum(1 for v in self.violations if v.violated)

    def violation_values_pct(self) -> list[float]:
        return [v.slowdown_pct for v in self.violations if v.violated]


#: Per-app row layout hashed by :func:`run_result_digest`.
_APP_DTYPE = np.dtype(
    [
        ("core", "<i8"),
        ("intervals", "<i8"),
        ("slack", "<f8"),
        ("time_ns", "<f8"),
        ("energy_nj", "<f8"),
    ]
)


def run_result_digest(run: RunResult) -> str:
    """Digest of every number one run reports, at full precision.

    The canonical result hash: the bench-regression artifacts
    (``tools/bench_*.py``), the committed golden suites, the results
    store's verified loads and the scenario-replay service all go through
    this one implementation, so a "result hash" means the same bytes
    everywhere.  Every number is hashed as its exact binary value -- the
    app rows as one packed :data:`_APP_DTYPE` buffer, the interval samples
    as one packed :data:`SAMPLE_DTYPE` buffer -- so a one-ulp change to
    any scored number or any per-interval sample changes the digest.
    Host wall-clock (``sim_wall_s``) is left out.
    """
    h = hashlib.sha256()
    h.update(f"{run.workload}\n{run.manager}\n{int(run.rma_invocations)}\n".encode())
    h.update(np.float64(run.rma_instructions).tobytes())
    h.update("|".join(a.app for a in run.apps).encode())
    h.update(
        np.array(
            [(a.core, a.intervals, a.slack, a.time_ns, a.energy_nj) for a in run.apps],
            dtype=_APP_DTYPE,
        ).tobytes()
    )
    h.update(run.interval_samples.packed())
    return h.hexdigest()[:16]


def energy_savings_pct(baseline: RunResult, policy: RunResult) -> float:
    """System energy saved by ``policy`` relative to ``baseline`` (percent)."""
    base = baseline.total_energy_nj
    require(base > 0, "baseline energy must be positive")
    return (1.0 - policy.total_energy_nj / base) * 100.0


def compare_runs(baseline: RunResult, policy: RunResult) -> WorkloadComparison:
    """Score a policy run: savings plus per-app QoS outcomes."""
    require(baseline.workload == policy.workload, "runs are for different workloads")
    base_by_core = {a.core: a for a in baseline.apps}
    violations = []
    for a in policy.apps:
        b = base_by_core[a.core]
        require(b.app == a.app, "core/app assignment differs between runs")
        allowed = (1.0 + a.slack)
        slowdown = (a.time_ns / b.time_ns - allowed) * 100.0
        violations.append(
            AppViolation(
                app=a.app,
                core=a.core,
                slowdown_pct=slowdown,
                violated=slowdown > NEGLIGIBLE_VIOLATION * 100.0,
            )
        )
    return WorkloadComparison(
        workload=policy.workload,
        manager=policy.manager,
        savings_pct=energy_savings_pct(baseline, policy),
        violations=tuple(violations),
    )


def interval_violation_stats(
    samples: IntervalSamples | Iterable[IntervalSample],
) -> dict[str, float]:
    """Paper II's per-interval violation statistics.

    Returns probability of violation, expected violation value (over
    violating intervals), and standard deviation of violation values, all in
    percent.  A violation is an interval slower than its slack-adjusted
    baseline by more than the negligible threshold.  Computed over whole
    columns; a plain iterable of rows is packed first.
    """
    if not isinstance(samples, IntervalSamples):
        samples = IntervalSamples(samples)
    n = len(samples)
    if not n:
        return {"probability": 0.0, "expected_value": 0.0, "std": 0.0, "n": 0}
    allowed = samples.baseline_ns * (1.0 + samples.slack)
    excess = (samples.duration_ns / allowed - 1.0) * 100.0
    over = excess[excess > NEGLIGIBLE_VIOLATION * 100.0]
    return {
        "probability": len(over) / n * 100.0,
        "expected_value": float(over.mean()) if len(over) else 0.0,
        "std": float(over.std()) if len(over) else 0.0,
        "n": n,
    }
