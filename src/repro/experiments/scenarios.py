"""Dynamic-scenario experiment drivers: S1 .. S7.

The papers evaluate static workloads; these experiments drive the scenario
engine (:mod:`repro.scenarios`) end-to-end under the same managers,
answering the question the journal extension (arXiv:1911.05101) and the
S-NUCA scheduling follow-up (arXiv:2505.23351) pose: does coordinated
DVFS + partitioning (+ core resizing) still pay off when tenancy, load and
QoS targets vary over time?

* **S1** -- open-system Poisson arrivals preempting cores;
* **S2** -- QoS-target schedules ramping slack down (hardening SLOs) and up;
* **S3** -- application churn with idle (power-gated) gaps between tenants;
* **S4** -- a burst load: one tenant, a full-system burst, a drain;
* **S5** -- many-core cluster churn: whole clusters drain and refill
  (hierarchical vs flat coordinated management);
* **S6** -- many-core skewed load: a hot strictly-QoS'd minority amid a
  relaxed majority (inter-cluster way redistribution);
* **S7** -- the scaling experiment: flat vs clustered RM2 across system
  sizes (energy gap, modelled RMA overhead, replay wall-clock).

Scoring: every run executes the same fixed interval horizon (the same
instruction count), so energy savings are measured against the
static-baseline manager's run of the *same scenario*; QoS is scored per
interval (:func:`repro.simulation.metrics.interval_violation_stats`), which
stays well-defined under tenancy churn where whole-run app slowdowns are
not.  Events fire at wall-clock times on each run's own timeline, so -- as
in a real open system -- a slower manager absorbs slightly more of the
arrival stream before finishing the same work; QoS slack bounds that
divergence.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.report import ExperimentResult
from repro.experiments.runner import (
    BASELINE,
    RM2,
    RM3,
    ExperimentContext,
    ManagerSpec,
    get_context,
    rm2_clustered,
)
from repro.scenarios import (
    Scenario,
    burst_load,
    churn,
    cluster_churn,
    poisson_arrivals,
    qos_ramp,
    skewed_load,
)
from repro.simulation.metrics import (
    energy_savings_pct,
    interval_violation_stats,
)

__all__ = [
    "s1_poisson_arrivals",
    "s2_qos_ramp",
    "s3_churn",
    "s4_burst_load",
    "s5_cluster_churn",
    "s6_skewed_load",
    "s7_scaling",
]

#: System size of the many-core scenario experiments (S5/S6): large enough
#: for several clusters, small enough for the benchmark harness;
#: ``tools/bench_scaling.py`` carries the same shapes to 64 cores.
MANYCORE_NCORES = 16

#: Cluster size of the hierarchical manager in S5/S6: four clusters at 16
#: cores, chosen so the per-cluster way caps *bind* (at the production
#: default of 8 a 16-core system's caps equal the full associativity and
#: the hierarchy degenerates to the flat tree -- correct, but not an
#: interesting experiment).
MANYCORE_CLUSTER = 4

#: The production-default cluster size, used by the S7 scaling sweep.
DEFAULT_CLUSTER = 8

#: Interval horizon per core: every scenario simulates ``ncores *
#: HORIZON_PER_CORE`` intervals of work so systems of different sizes run
#: comparably long wall-clock spans.
HORIZON_PER_CORE = 16


def _horizon(ctx: ExperimentContext) -> int:
    return HORIZON_PER_CORE * ctx.system.ncores


def _scenario_table(
    ctx: ExperimentContext,
    scenarios: list[Scenario],
    experiment_id: str,
    title: str,
    notes: str,
    specs: tuple[ManagerSpec, ...] = (RM2, RM3),
) -> ExperimentResult:
    """Run scenarios under baseline + specs; tabulate savings and violations."""
    runs = ctx.run_scenarios(scenarios, [BASELINE, *specs])
    rows = []
    savings: dict[str, list[float]] = {spec.name: [] for spec in specs}
    probs: dict[str, list[float]] = {spec.name: [] for spec in specs}
    for sc in scenarios:
        base = runs[(sc.name, BASELINE.name)]
        counts = sc.counts()
        row: list = [
            sc.name,
            f"{counts['swap']}/{counts['depart']}/{counts['slack']}",
        ]
        for spec in specs:
            run = runs[(sc.name, spec.name)]
            pct = energy_savings_pct(base, run)
            stats = interval_violation_stats(run.interval_samples)
            savings[spec.name].append(pct)
            probs[spec.name].append(stats["probability"])
            row += [pct, stats["probability"]]
        rows.append(row)
    headers = ["scenario", "events (swap/depart/slack)"]
    for spec in specs:
        headers += [f"{spec.name} savings %", f"{spec.name} P(viol) %"]
    summary = {}
    for spec in specs:
        summary[f"{spec.name} avg savings %"] = float(np.mean(savings[spec.name]))
        summary[f"{spec.name} avg P(viol) %"] = float(np.mean(probs[spec.name]))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=headers,
        rows=rows,
        summary=summary,
        notes=notes,
    )


def s1_poisson_arrivals(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """S1: open-system Poisson arrivals preempt cores mid-run."""
    ctx = ctx or get_context(4)
    ncores, apps = ctx.system.ncores, ctx.db.benchmarks()
    horizon = _horizon(ctx)
    scenarios = [
        poisson_arrivals(
            f"s1-rate{rate:g}-seed{seed}", ncores, apps,
            rate_per_interval=rate, horizon_intervals=horizon, seed=seed,
        )
        for rate in (0.15, 0.35)
        for seed in (0, 1)
    ]
    return _scenario_table(
        ctx, scenarios, "S1",
        "Open-system Poisson arrivals (time-varying tenancy)",
        "Extension beyond the papers' static mixes: arrivals preempt the "
        "least-recently-retenanted core; incoming tenants pay a cold-cache "
        "warm-up, run at most one interval on the inherited allocation, and "
        "are then pinned at the baseline share until their first interval "
        "statistics arrive (the paper's no-statistics protocol).",
    )


def s2_qos_ramp(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """S2: per-app QoS-target schedules tighten / relax over time."""
    ctx = ctx or get_context(4)
    ncores, apps = ctx.system.ncores, ctx.db.benchmarks()
    horizon = _horizon(ctx)
    scenarios = [
        qos_ramp(
            f"s2-{label}-seed{seed}", ncores, apps,
            start_slack=start, end_slack=end,
            steps=4, horizon_intervals=horizon, seed=seed,
        )
        for label, start, end in (("tighten", 0.4, 0.0), ("relax", 0.0, 0.4))
        for seed in (0, 1)
    ]
    return _scenario_table(
        ctx, scenarios, "S2",
        "QoS-target schedules (slack ramps down / up mid-run)",
        "Slack moves linearly in 4 steps; savings track the time-average "
        "slack, mirroring the static relaxation sweep (E5) dynamically.",
    )


def s3_churn(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """S3: application churn -- tenants depart, cores idle, replacements arrive."""
    ctx = ctx or get_context(4)
    ncores, apps = ctx.system.ncores, ctx.db.benchmarks()
    horizon = _horizon(ctx)
    scenarios = [
        churn(
            f"s3-seed{seed}", ncores, apps,
            cycles=2 * ncores, idle_intervals=1.5,
            horizon_intervals=horizon, seed=seed,
        )
        for seed in (0, 1, 2)
    ]
    return _scenario_table(
        ctx, scenarios, "S3",
        "Application churn (departures leave power-gated idle cores)",
        "Managers must discard departed tenants' curves and re-derive them: "
        "idle cores release LLC ways to the active tenants.",
    )


def s4_burst_load(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """S4: a load burst fills every core, then drains back to one tenant."""
    ctx = ctx or get_context(4)
    ncores, apps = ctx.system.ncores, ctx.db.benchmarks()
    horizon = _horizon(ctx)
    scenarios = [
        burst_load(
            f"s4-burst{int(length)}-seed{seed}", ncores, apps,
            burst_start_intervals=3.0, burst_length_intervals=length,
            horizon_intervals=horizon, seed=seed,
        )
        for length in (8.0, 20.0)
        for seed in (0, 1)
    ]
    return _scenario_table(
        ctx, scenarios, "S4",
        "Burst load (ramp to full occupancy, then drain)",
        "The canonical diurnal-peak shape: co-location pressure rises and "
        "falls, exercising partition hand-back on departures.  Burst "
        "arrivals land on the minimal partition idle cores retain, so their "
        "first interval shows as a violation tail until re-provisioned.",
    )


def s5_cluster_churn(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """S5: whole clusters drain and refill on a many-core system."""
    ctx = ctx or get_context(MANYCORE_NCORES)
    ncores, apps = ctx.system.ncores, ctx.db.benchmarks()
    horizon = _horizon(ctx)
    scenarios = [
        cluster_churn(
            f"s5-seed{seed}", ncores, apps,
            cluster_size=MANYCORE_CLUSTER, cycles=max(4, ncores // 4),
            idle_intervals=1.5, horizon_intervals=horizon, seed=seed,
        )
        for seed in (0, 1)
    ]
    return _scenario_table(
        ctx, scenarios, "S5",
        f"Many-core cluster churn ({ncores} cores, whole clusters drain/refill)",
        "Group scheduling at many-core scale: entire clusters empty out "
        "(power-gated) and later refill with fresh tenants.  The "
        "hierarchical manager must collapse a departing cluster's aggregate "
        "curve to idle leaves and rebuild it on refill while keeping every "
        "other cluster's subtree cached; its savings should track the flat "
        "manager's closely (the bounded-gap contract).",
        specs=(RM2, rm2_clustered(MANYCORE_CLUSTER)),
    )


def s6_skewed_load(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """S6: a hot strictly-QoS'd minority amid a slack-rich majority."""
    ctx = ctx or get_context(MANYCORE_NCORES)
    ncores, apps = ctx.system.ncores, ctx.db.benchmarks()
    horizon = _horizon(ctx)
    scenarios = [
        skewed_load(
            f"s6-seed{seed}", ncores, apps,
            hot_fraction=0.25, swaps_per_hot_core=3,
            hot_slack=0.0, cold_slack=0.3,
            horizon_intervals=horizon, seed=seed,
        )
        for seed in (0, 1)
    ]
    return _scenario_table(
        ctx, scenarios, "S6",
        f"Many-core skewed load ({ncores} cores, hot minority / relaxed majority)",
        "A few latency-critical tenants churn under strict QoS while the "
        "majority runs with generous slack: cold clusters' energy curves "
        "are nearly flat in ways, so the second-level combine must hand "
        "their LLC capacity to the hot clusters -- the inter-cluster "
        "redistribution the hierarchy exists for.",
        specs=(RM2, rm2_clustered(MANYCORE_CLUSTER)),
    )


def s7_scaling(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """S7: flat vs clustered RM2 across system sizes (the scaling curve).

    For each system size the same cluster-churn scenario replays under the
    static baseline, flat RM2 and clustered RM2.  The table
    reports each manager's energy savings, the clustered-vs-flat energy gap
    (the price of the cluster way caps), the *modelled* RMA overhead per
    invocation (deterministic, machine-independent) and the replay
    wall-clock (indicative, machine-specific).  ``ctx`` is ignored -- the
    driver builds one context per system size; 64-256-core points live in
    ``tools/bench_scaling.py`` where they are tracked by the bench gate.
    """
    del ctx  # one context per size; the shared fixture cannot provide that
    rows = []
    flat_spec, clus_spec = RM2, rm2_clustered(DEFAULT_CLUSTER)
    for ncores in (8, 16, 32):
        size_ctx = get_context(ncores)
        apps = size_ctx.db.benchmarks()
        horizon = _horizon(size_ctx)
        sc = cluster_churn(
            f"s7-n{ncores}", ncores, apps,
            cluster_size=DEFAULT_CLUSTER, cycles=max(4, ncores // 4),
            idle_intervals=1.5, horizon_intervals=horizon, seed=0,
        )
        runs = size_ctx.run_scenarios([sc], [BASELINE, flat_spec, clus_spec])
        base = runs[(sc.name, BASELINE.name)]
        flat = runs[(sc.name, flat_spec.name)]
        clus = runs[(sc.name, clus_spec.name)]
        gap = (
            100.0 * (clus.total_energy_nj - flat.total_energy_nj)
            / flat.total_energy_nj
        )
        rows.append([
            ncores,
            energy_savings_pct(base, flat),
            energy_savings_pct(base, clus),
            gap,
            flat.rma_instructions / max(1, flat.rma_invocations),
            clus.rma_instructions / max(1, clus.rma_invocations),
            flat.sim_wall_s,
            clus.sim_wall_s,
        ])
    gaps = [abs(r[3]) for r in rows]
    return ExperimentResult(
        experiment_id="S7",
        title="Scaling: flat vs clustered RM2 (cluster churn, growing N)",
        headers=[
            "ncores",
            "flat savings %", "clustered savings %", "energy gap %",
            "flat RMA instr/invocation", "clustered RMA instr/invocation",
            "flat wall s", "clustered wall s",
        ],
        rows=rows,
        summary={
            "max |energy gap| %": float(np.max(gaps)),
            "clustered overhead ratio at max N":
                float(rows[-1][5] / rows[-1][4]),
        },
        notes=(
            "The flat manager's modelled per-invocation overhead grows "
            "superlinearly with N (the top min-plus combines widen with the "
            "full associativity); the clustered manager's grows with the "
            "cluster size plus a second-level term.  Wall-clock columns are "
            "machine-specific and indicative only; the committed scaling "
            "trajectory lives in BENCH_scaling.json via "
            "tools/bench_scaling.py."
        ),
    )
