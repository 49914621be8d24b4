"""The benchmark's inputs, generated from the workload seed.

The program only ever receives what these functions return: scenarios,
workloads, manager specs and HTTP job bodies.  ``apps`` is the database's
benchmark list (``ctx.db.benchmarks()``), which is what the service hands
its scenario generators too.
"""

from __future__ import annotations

import random

#: manycore_s7: 256-core S7 cluster churn under RM2-clustered.
MANYCORE_NCORES = 256
MANYCORE_CLUSTER = 8
MANYCORE_HORIZON = 4096
MANYCORE_SCENARIOS = 3

#: paper_8core: S1-S4 shapes plus one FIXED workload, five managers each.
PAPER_NCORES = 8
PAPER_HORIZON = 4096

#: cold_start: database sizes built from an empty cache, first replay each.
#: Only the 8-core one: a 64-core build takes 10-20 s on 2 CPUs, so a run
#: holds one or two of them and their spread across runs reached 44%.
COLD_SIZES = (8,)
COLD_HORIZON = {8: 4096}

#: service_mixed: small S1-S4 jobs.
SERVICE_NCORES = (4, 8)
SERVICE_HORIZON = 256
SERVICE_SHAPES = ("S1", "S2", "S3", "S4")
SERVICE_MANAGERS = (
    {"kind": "baseline", "name": "baseline"},
    {"kind": "coordinated", "name": "rm2-combined"},
)
#: Pre-seeded catalogue size: results prepared once per source tree; each
#: run requests a seed-chosen subset of it.
PRESEED_JOBS = 160


def manycore_scenarios(seed: int, apps):
    from repro.scenarios import cluster_churn

    return [
        cluster_churn(
            f"pb-s7-{k}", MANYCORE_NCORES, apps,
            cluster_size=MANYCORE_CLUSTER, cycles=MANYCORE_NCORES // 8,
            idle_intervals=1.5, horizon_intervals=MANYCORE_HORIZON, seed=seed,
        )
        for k in range(MANYCORE_SCENARIOS)
    ]


def manycore_spec():
    from repro.experiments.runner import rm2_clustered

    return rm2_clustered(MANYCORE_CLUSTER)


def paper_items(seed: int, apps):
    """``[(scenario or None, workload, spec)]``: every shape under every manager."""
    from repro.experiments.runner import BASELINE, DVFS_ONLY, RM1, RM2, RM3
    from repro.scenarios import burst_load, churn, poisson_arrivals, qos_ramp
    from repro.workloads.mixes import Workload

    n, h = PAPER_NCORES, PAPER_HORIZON
    scenarios = [
        poisson_arrivals("pb-s1", n, apps, rate_per_interval=0.25, horizon_intervals=h, seed=seed),
        qos_ramp("pb-s2", n, apps, start_slack=0.4, end_slack=0.0, horizon_intervals=h, seed=seed),
        churn("pb-s3", n, apps, cycles=2 * n, idle_intervals=1.5, horizon_intervals=h, seed=seed),
        burst_load("pb-s4", n, apps, burst_start_intervals=3.0, burst_length_intervals=20.0,
                   horizon_intervals=h, seed=seed),
    ]
    rng = random.Random(f"paper_8core/{seed}")
    fixed = Workload(name=f"pb-fixed-{seed}", apps=tuple(rng.choice(apps) for _ in range(n)))
    specs = (BASELINE, RM1, RM2, RM3, DVFS_ONLY)
    items = [(sc, sc.workload, spec) for sc in scenarios for spec in specs]
    items += [(None, fixed, spec) for spec in specs]
    return items


def cold_scenarios(seed: int, apps):
    """First replay per database size: S1 under RM2."""
    from repro.experiments.runner import RM2
    from repro.scenarios import poisson_arrivals

    return {
        n: (poisson_arrivals(f"pb-cold-{n}", n, apps, rate_per_interval=0.25,
                             horizon_intervals=COLD_HORIZON[n], seed=seed), RM2)
        for n in COLD_SIZES
    }


def _job_body(rng: random.Random, name: str) -> dict:
    shape = rng.choice(SERVICE_SHAPES)
    ncores = rng.choice(SERVICE_NCORES)
    params: dict = {"horizon_intervals": SERVICE_HORIZON, "seed": rng.randrange(1 << 16)}
    if shape == "S1":
        params["rate_per_interval"] = rng.choice((0.15, 0.35))
    elif shape == "S2":
        params["start_slack"], params["end_slack"] = rng.choice(((0.4, 0.0), (0.0, 0.4)))
    elif shape == "S3":
        params["cycles"] = 2 * ncores
        params["idle_intervals"] = 1.5
    else:
        params["burst_start_intervals"] = 3.0
        params["burst_length_intervals"] = rng.choice((8.0, 20.0))
    return {
        "shape": shape,
        "ncores": ncores,
        "name": name,
        "params": params,
        "manager": dict(rng.choice(SERVICE_MANAGERS)),
    }


def preseed_catalogue() -> list[dict]:
    """The fixed job bodies whose results are prepared into the store."""
    rng = random.Random("service_mixed/preseed")
    return [_job_body(rng, f"pb-pre-{i}") for i in range(PRESEED_JOBS)]


def service_jobs(seed: int, n_jobs: int) -> list[tuple[str, dict]]:
    """``[(kind, body)]``: one third each of fresh, pre-seeded and repeat.

    Fresh bodies are unique to this seed; pre-seeded ones are drawn without
    replacement from :func:`preseed_catalogue`; a repeat re-sends the body
    of a job already sent earlier in the run.
    """
    rng = random.Random(f"service_mixed/{seed}")
    kinds = ["fresh", "preseeded", "repeat"] * (n_jobs // 3 + 1)
    kinds = kinds[:n_jobs]
    rng.shuffle(kinds)
    first = min(i for i, k in enumerate(kinds) if k != "repeat")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    catalogue = preseed_catalogue()
    picks = rng.sample(range(len(catalogue)), kinds.count("preseeded"))
    jobs: list[tuple[str, dict]] = []
    for i, kind in enumerate(kinds):
        if kind == "fresh":
            body = _job_body(rng, f"pb-fresh-{seed}-{i}")
        elif kind == "preseeded":
            body = catalogue[picks.pop()]
        else:
            body = rng.choice([b for k, b in jobs if k != "repeat"])
        jobs.append((kind, body))
    return jobs
