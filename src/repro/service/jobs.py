"""Request/job model for the scenario-replay service.

A replay request (:class:`JobSpec`) is a *value*: a scenario shape id
(``S1``-``S7``, or ``FIXED`` for a static workload), the generator
parameters, the system size and a
:class:`~repro.experiments.runner.ManagerSpec`.  Two requests with equal
values are the same job -- the job id handed back to clients is the
results-store content hash (:func:`~repro.simulation.results_store.run_key`)
of the materialised (system, database, scenario/workload, manager,
fidelity) tuple, so service-level dedup and the persistent store agree
on what "identical" means.

The wire format is plain JSON::

    {"shape": "S1", "ncores": 4,
     "params": {"rate_per_interval": 0.25, "horizon_intervals": 48, "seed": 0},
     "manager": {"kind": "coordinated", "name": "rm2-combined"},
     "name": "smoke-s1"}

``params`` are forwarded to the shape's generator (unknown keys are
rejected at submit time, not deep in a worker); ``manager`` fields default
to the :class:`ManagerSpec` defaults; ``name`` seeds the scenario RNG and
defaults to a canonical shape-derived name.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields as dataclass_fields

from repro.experiments.runner import ExperimentContext, ManagerSpec
from repro.scenarios import (
    burst_load,
    churn,
    cluster_churn,
    poisson_arrivals,
    qos_ramp,
    skewed_load,
)
from repro.scenarios.events import Scenario
from repro.util.validation import require
from repro.workloads.mixes import Workload

__all__ = [
    "JobSpec",
    "SCENARIO_SHAPES",
    "WORKLOAD_SHAPE",
    "SUBMISSION_ATTRS",
    "job_spec_from_json",
    "build_item",
    "job_key",
    "split_submission",
]

#: Shape id -> scenario generator.  S7 (the scaling experiment) replays the
#: same cluster-churn shape as S5 at the production-default cluster size;
#: as a *service* request it is simply that generator at the caller's N.
SCENARIO_SHAPES = {
    "S1": poisson_arrivals,
    "S2": qos_ramp,
    "S3": churn,
    "S4": burst_load,
    "S5": cluster_churn,
    "S6": skewed_load,
    "S7": cluster_churn,
}

#: Shape id for a static multi-programmed workload (the papers' E-series
#: setting): ``params`` carry ``apps`` (one benchmark per core) and an
#: optional ``slack`` (scalar or per-core list).
WORKLOAD_SHAPE = "FIXED"

#: Request attributes that describe *delivery*, not the run's identity:
#: they never enter the job hash, so the same run requested on different
#: lanes still dedups onto one job.
SUBMISSION_ATTRS = ("lane",)


def split_submission(payload: dict) -> tuple[dict, dict]:
    """Split a raw submit body into ``(delivery_attrs, spec_fields)``.

    ``delivery_attrs`` holds the :data:`SUBMISSION_ATTRS` keys present in
    the body (e.g. the admission lane); ``spec_fields`` is what remains --
    the identity of the run, fed to :func:`job_spec_from_json`.  The input
    mapping is not mutated.
    """
    require(isinstance(payload, dict), "request body must be a JSON object")
    spec_fields = dict(payload)
    attrs = {key: spec_fields.pop(key) for key in SUBMISSION_ATTRS if key in spec_fields}
    return attrs, spec_fields


_SCALARS = (bool, int, float, str)


def _canonical_value(value, *, key: str):
    """Normalise one params value to a hashable canonical form."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(v, key=key) for v in value)
    raise ValueError(
        f"param {key!r} has unsupported type {type(value).__name__}; "
        "params must be JSON scalars or lists of them"
    )


def _allowed_params(shape: str) -> set[str]:
    if shape == WORKLOAD_SHAPE:
        return {"apps", "slack"}
    sig = inspect.signature(SCENARIO_SHAPES[shape])
    # name/ncores/apps come from the spec and the service context.
    return set(sig.parameters) - {"name", "ncores", "apps"}


@dataclass(frozen=True)
class JobSpec:
    """One scenario-replay request, canonicalised and hashable.

    ``params`` is a sorted tuple of ``(key, value)`` pairs (values are
    scalars or nested tuples), so equal requests compare and hash equal no
    matter what order the client sent the keys in.
    """

    shape: str
    ncores: int
    manager: ManagerSpec
    params: tuple[tuple[str, object], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        require(
            self.shape in SCENARIO_SHAPES or self.shape == WORKLOAD_SHAPE,
            f"unknown shape {self.shape!r}; known: "
            f"{', '.join([*SCENARIO_SHAPES, WORKLOAD_SHAPE])}",
        )
        require(self.ncores >= 1, "ncores must be at least 1")
        allowed = _allowed_params(self.shape)
        canon = []
        for key, value in sorted(dict(self.params).items()):
            require(
                key in allowed,
                f"shape {self.shape} does not accept param {key!r}; "
                f"allowed: {', '.join(sorted(allowed))}",
            )
            canon.append((key, _canonical_value(value, key=key)))
        object.__setattr__(self, "params", tuple(canon))
        if not self.name:
            object.__setattr__(self, "name", f"{self.shape.lower()}-svc")

    def param_dict(self) -> dict:
        """The params as a plain dict (generator kwargs)."""
        return dict(self.params)

    def canonical(self) -> str:
        """Stable textual form of the request value (pre-database hashing).

        This is the context-free half of the job-hash canonicalisation:
        equal canonical strings produce equal job ids against any one
        service context.  Floats are rendered with ``repr`` (shortest
        round-trip form), so no precision is folded away.
        """
        pairs = ",".join(f"{k}={v!r}" for k, v in self.params)
        return (
            f"shape={self.shape};n={self.ncores};name={self.name};"
            f"params[{pairs}];mgr={self.manager!r}"
        )

    def to_json(self) -> dict:
        """The wire form: JSON-serialisable, round-trips through
        :func:`job_spec_from_json` to an equal spec."""

        def plain(value):
            return list(plain(v) for v in value) if isinstance(value, tuple) else value

        return {
            "shape": self.shape,
            "ncores": self.ncores,
            "name": self.name,
            "params": {k: plain(v) for k, v in self.params},
            "manager": {
                f.name: getattr(self.manager, f.name)
                for f in dataclass_fields(ManagerSpec)
            },
        }


def _manager_from_json(payload) -> ManagerSpec:
    """Build a ManagerSpec from a JSON mapping, rejecting unknown fields."""
    require(isinstance(payload, dict), "manager must be a JSON object")
    known = {f.name for f in dataclass_fields(ManagerSpec)}
    unknown = set(payload) - known
    require(
        not unknown,
        f"unknown manager fields: {', '.join(sorted(unknown))}; "
        f"known: {', '.join(sorted(known))}",
    )
    require("kind" in payload, "manager needs a 'kind' field")
    kinds = ("baseline", "coordinated", "independent", "history")
    require(
        payload["kind"] in kinds,
        f"unknown manager kind {payload['kind']!r}; known: {', '.join(kinds)}",
    )
    try:
        return ManagerSpec(**payload)
    except TypeError as exc:  # defensive: field-level type surprises
        raise ValueError(f"bad manager spec: {exc}") from exc


def job_spec_from_json(payload) -> JobSpec:
    """Parse and validate one submit body into a canonical :class:`JobSpec`.

    Raises :class:`ValueError` with a client-actionable message on any
    malformed input (the HTTP layer maps that to a 400).
    """
    require(isinstance(payload, dict), "request body must be a JSON object")
    known = {"shape", "ncores", "params", "manager", "name"}
    unknown = set(payload) - known
    require(
        not unknown,
        f"unknown request fields: {', '.join(sorted(unknown))}; "
        f"known: {', '.join(sorted(known))}",
    )
    for field in ("shape", "ncores", "manager"):
        require(field in payload, f"request needs a {field!r} field")
    require(isinstance(payload["shape"], str), "shape must be a string")
    require(
        isinstance(payload["ncores"], int) and not isinstance(payload["ncores"], bool),
        "ncores must be an integer",
    )
    params = payload.get("params", {})
    require(isinstance(params, dict), "params must be a JSON object")
    name = payload.get("name", "")
    require(isinstance(name, str), "name must be a string")
    return JobSpec(
        shape=payload["shape"],
        ncores=payload["ncores"],
        manager=_manager_from_json(payload["manager"]),
        params=tuple(params.items()),
        name=name,
    )


def build_item(spec: JobSpec, apps: list[str]) -> Scenario | Workload:
    """Materialise the request into the scenario/workload it describes.

    ``apps`` is the service context's benchmark pool
    (``ctx.db.benchmarks()``); scenario generators draw tenants from it.
    Generator-level validation errors surface as :class:`ValueError` at
    submit time.
    """
    if spec.shape == WORKLOAD_SHAPE:
        params = spec.param_dict()
        require("apps" in params, "FIXED jobs need an 'apps' param")
        picked = params["apps"]
        require(
            isinstance(picked, tuple) and len(picked) == spec.ncores,
            f"FIXED 'apps' must list exactly ncores={spec.ncores} benchmarks",
        )
        missing = [a for a in picked if a not in apps]
        require(
            not missing,
            f"unknown benchmarks: {', '.join(missing)}; "
            f"database has: {', '.join(apps)}",
        )
        slack = params.get("slack", 0.0)
        wl = Workload(name=spec.name, apps=tuple(picked))
        return wl.with_slack(slack) if slack else wl
    builder = SCENARIO_SHAPES[spec.shape]
    return builder(spec.name, spec.ncores, apps, **spec.param_dict())


def job_key(spec: JobSpec, ctx: ExperimentContext) -> str:
    """The job id: the results-store content hash of the materialised run."""
    return ctx.run_key(build_item(spec, ctx.db.benchmarks()), spec.manager)
