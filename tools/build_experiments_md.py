#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the benchmark harness artefacts.

``pytest benchmarks/ --benchmark-only`` writes one markdown block per
experiment into ``benchmarks/_artifacts/``; this script stitches them into
EXPERIMENTS.md with the run configuration recorded in the header.

Usage: python tools/build_experiments_md.py
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = os.path.join(ROOT, "benchmarks", "_artifacts")

ORDER = (
    [f"E{i}" for i in range(1, 17)]
    + ["A1", "A2", "A3", "A4", "A5"]
    + ["S1", "S2", "S3", "S4", "S5", "S6", "S7"]
)

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the two papers' evaluations, regenerated by
`pytest benchmarks/ --benchmark-only` (one module per artefact; the drivers
live in `src/repro/experiments/`).  Each block below shows the regenerated
table followed by the paper-reported reference values next to the measured
ones.

**Reading guide.**  The platform here is a synthetic substitute for the
authors' Sniper/McPAT SPEC CPU2006 setup (see DESIGN.md §2), so absolute
percentages are not expected to match; the reproduction target is the
*shape*: which manager wins, by roughly what factor, which scenarios are
dead, where the crossovers fall.  Key shapes reproduced:

* coordinated DVFS+partitioning (RM2) saves several-fold more than
  partitioning alone (RM1), and only on workloads containing a
  cache-sensitive app (E1/E2);
* DVFS-only saves nothing under strict QoS (A1), and un-coordinated
  UCP+DVFS violates QoS on cache-sensitive apps (A2);
* adding core reconfiguration (RM3) is decisive exactly in the mixes with a
  parallelism-sensitive app — scenarios 1 and 3 — and useless in scenario 4
  (E9–E13);
* the MLP-aware ATD (Model 3) beats constant-MLP (Model 2) and unit-MLP
  (Model 1) on both violations and savings (E14/E15);
* bounded QoS relaxation converts into large additional savings that
  saturate near 40% allowed slowdown (E5/E6);
* the RMA itself costs a negligible fraction of an interval, growing
  roughly linearly with core count (E8/E16).

Beyond the papers, the **dynamic scenario experiments** (S1-S7, drivers in
`src/repro/experiments/scenarios.py`) exercise the scenario engine
(`src/repro/scenarios/`): Poisson arrival processes, QoS-target ramps,
application churn with power-gated idle cores, burst loads, and the
many-core shapes — whole-cluster churn (S5), skewed hot/cold loads (S6)
and the flat-vs-clustered scaling sweep (S7) that exercise the
coordinated manager's cluster tier (`cluster_size`, see ARCHITECTURE.md).
These have
no paper reference values; each block reports energy savings against the
static-baseline manager run of the *same* scenario (equal work: a fixed
interval horizon; event exposure follows each run's own wall-clock, as in a
real open system) and per-interval QoS-violation probabilities.

**The many-core scenario shapes (S5/S6) and the scaling sweep (S7).**
S5 (`cluster_churn`) drains and refills entire clusters — the group
scheduling pattern of a many-core part — at 16 cores with a 4-core
manager cluster (chosen so the per-cluster way caps *bind*; at the
production default of 8, a 16-core system's caps equal the full
associativity and the hierarchy degenerates to the flat tree).  S6
(`skewed_load`) puts a strictly-QoS'd hot minority (the first quarter of
the cores, contiguous so it concentrates in few clusters) under frequent
re-tenanting amid a relaxed majority, forcing *inter-cluster* way
redistribution.  Both compare flat RM2 against the
hierarchical variant on identical event streams; the expectation is
near-identical savings (the bounded-gap contract), not superiority.  S7
replays one cluster-churn shape at 8/16/32 cores under baseline, flat
RM2 and clustered RM2 and reports savings, the clustered-vs-flat energy
gap, and the *modelled* RMA overhead per invocation — the deterministic
quantity that shows the flat manager's superlinear growth and the
hierarchy's cluster-size scaling.  The 64-core point is tracked by
`tools/bench_scaling.py` below.

**Known deviations** (documented, mechanism understood):

* the constant-MLP (Model 2) violation tail is heavier here (max ≈ 14% vs
  the paper's 9%): our synthetic MLP-vs-ways profiles vary more than the
  authors' platform, which *amplifies* the very error Paper II's MLP-ATD
  fixes — rerunning the violating workloads under Model 3 removes every
  violation (E3 note);
* RM3's margin over RM2 is "substantial" in 10 of 16 mixes rather than 12:
  in the two A+D orderings our memory-bound receivers already sit at the VF
  floor, so the extra performance a larger core brings cannot be converted
  into a lower operating point;
* per-interval violation probabilities (E14) are higher in absolute terms
  but tiny in magnitude (E[v] ≈ 1–2%), and the Model 3 < Model 2 < Model 1
  ordering — the table's point — holds.

"""

#: Durable prose stitched after the run configuration on every regeneration
#: (edits to these notes belong here, not in EXPERIMENTS.md, or the next
#: regeneration clobbers them).
NOTES = """\
**Result cache.**  Finished runs are persisted in the content-addressed
run-results store under `.sim_cache/results/` (next to the simulation
database): a `RunResult` is keyed by the hash of (database digest — system
geometry, benchmark set, trace density, `DB_FORMAT_VERSION` —
workload/scenario including slack vectors, event streams, horizon and
starting tenancy, the `ManagerSpec`, and `REPRO_MAX_SLICES`), so repeated
experiment and benchmark invocations load bit-identical results from disk
instead of re-simulating.  Invalidation: any change to those inputs changes
the key; semantic changes to replay accounting must bump
`RESULTS_FORMAT_VERSION` in `src/repro/simulation/results_store.py`.
Bypass with `REPRO_NO_RESULT_CACHE=1` or `repro.experiments.cli run
--no-result-cache`; clear with `rm -rf .sim_cache/results/`.  Re-published
numbers in this file should come from a cleared or bypassed store when the
engine changes, and benchmark *timings* (the `BENCH_*.json` CI artifacts)
distinguish cold (simulated) from warm (store-served) passes.

**Driving experiments through the service.**  Every scenario shape
(`S1`–`S7`) and fixed multi-programmed mix can also be replayed through
the HTTP service (`tools/serve.py`, `src/repro/service/`): a `POST /jobs`
body names the shape, generator params, system size and `ManagerSpec`,
and the returned job id is the run's results-store content hash — so
service replays share the same persisted results as the CLI and pytest
harness, and identical submissions coalesce onto one simulation.  The
service path is bit-identical to the library path
(`tests/test_service_golden.py` pins E2/S1/S5-shaped runs to committed
hashes).  See "Running as a service" in `README.md`.

**Perf-trajectory artifacts and the bench-regression gate.**  Six
`BENCH_*.json` artifacts are regenerated by CI (the `bench` and
`service-smoke` jobs) and committed as baselines under
`benchmarks/_artifacts/baselines/`:

* `BENCH_smoke.json` (`tools/bench_smoke.py`) — a reduced-fidelity
  fixed-workload block and a scenario block, cold (simulated) and warm
  (served from the run-results store), with a `result_hash` per block
  over every number it reports;
* `BENCH_engine_speedup.json` (`tools/bench_engine_speedup.py`) — the
  layered kernel vs the frozen `tests/oracles/legacy_sim.py` reference on an 8-core
  scenario replay, with per-manager `bit_identical` flags and the engine
  memos' sizes over one production replay: `rate_entries` (the
  scheduler's entries, one per distinct (phase record, allocation) pair)
  and `transition_entries` (reconfiguration costs evaluated, one per
  distinct (old, new) allocation pair), both exact-match keys of the gate;
* `BENCH_manager_overhead.json` (`tools/bench_manager_overhead.py`) — the
  coordinated manager's pipeline (stacked `(N, C, F, W)` curve
  construction, curve memoization, persistent `PackedReduction`; timed as
  `incremental_s`) vs the recompute-everything reference pipeline
  (`tests/oracles/reference_manager.py`, a from-scratch node-graph
  reduction per invocation) across RM1/RM2/RM3/dvfs-only on the 8-core Poisson
  scenario (512 intervals, `--max-slices 24`, trace density 400) — ≈3–5×
  end-to-end with `bit_identical=true` per manager — and `curve_builds`,
  the rows the compiled curve chain built in one production replay (an
  exact-match key of the gate, since the curve layer's wall-clock sits
  under its `--min-delta-s` floor), next to `allocation_entries` and
  `leaf_writes` (the reduction leaves that replay's installs wrote) and
  `solve_calls` (its compiled `minplus_solve` calls: a decision that
  wrote and invalidated no leaf makes none), also exact-match;
* `BENCH_scaling.json` (`tools/bench_scaling.py`) — the many-core
  trajectory: a 64-core S5 cluster-churn replay (512 intervals,
  `--max-slices 12`, trace density 400) under the clustered RM2
  manager (`cluster_size=8`) vs flat RM2 and the
  static baseline, plus 128- **and 256-core** S7 datapoints (the scaling
  experiment's cluster-churn-with-idle-gaps shape) under the same
  clustered manager, recording wall-clocks, replay throughput
  (`events_per_sec` — global simulation events per second, the
  struct-of-arrays engine's headline number), the clustered-vs-flat
  energy gap, the modelled RMA instructions per invocation (~11× lower
  clustered), a report-only per-layer timing split per S7 datapoint
  (exclusive `engine` / `managers` / `curves` / `packed_tree` seconds,
  which add up to the replay's `run_total`, from one extra replay traced
  by `perfbench/tracer.py` — the *where did it go* next to the gated *how
  fast*; `python3 perfbench/run.py --workload NAME --trace 1` gives the
  same split for any benchmark workload), the packed reduction's
  deterministic work per clustered replay (`reduction_rows` recombined,
  `reduction_splits` recovered, `leaf_writes` installed; exact-match keys
  of the gate, counted by the compiled library, the install's and the
  solve's one implementation), and a 16-core
  **single-cluster equivalence check** whose `bit_identical` field the
  gate enforces exactly — the hierarchy must never drift from the flat
  manager it degenerates to.  The baseline committed with the vectorised
  engine recorded its speedup (64-core S5 clustered replay 0.41 s →
  0.12 s); the one committed with the packed level-synchronous reduction
  recorded that reduction's: the 128-core S7 replay went from 1,616 to
  3,550 `events_per_sec` (+120%, wall 0.317 s → 0.144 s best-of-3)
  against the baseline before it on the same machine, with every
  `result_hash` unchanged;
* `BENCH_database_build.json` (`tools/bench_database_build.py`) — the
  cold-start datapoint: serial builds of the 8-, 64- and 256-core
  small-suite databases (trace density 400; 256 cores is the 1024-way
  LLC, the widest stack walk and the most miss streams) into a throwaway
  directory, with the best-of-2 `build_s` and a `result_hash` over every phase trace and
  record array per core count (the `perfbench` database-digest recipe),
  so a change to the detailed simulation's numbers or its build cost
  fails the gate;
* `BENCH_service_smoke.json` (`tools/service_smoke.py`, CI
  `service-smoke` job) — three stages over a real HTTP socket through
  `tools/serve.py`: the bench-smoke S1 scenario (baseline and RM2
  managers) with a `result_hash` per job compared exactly against this
  baseline, a mandatory dedup of a resubmitted identical request and a
  `/metrics` scrape; a restart-recovery stage (journalled burst, SIGKILL
  mid-queue, reboot — every journalled job must drain with
  baseline-identical hashes); and a backpressure probe (a single-slot
  queue must answer overflow with `429` + `Retry-After`).

`tools/bench_compare.py` diffs the freshly produced artifacts against the
committed baselines and fails CI on: any `result_hash` mismatch or
`bit_identical: false` (semantic drift is never tolerated); a fidelity
context change (`ncores`, `max_slices`, `accesses_per_set`, ... — the
baseline must be refreshed, not silently compared); a key on one side
only (a metric the fresh artifact lost, or one the baseline lacks, which
stays a failure until `--update` records it); a wall-clock
regression beyond **25%** (`--threshold 0.25`) after rescaling by the two
machines' `calibration_s` yardsticks, with a 0.1 s absolute noise floor
(`--min-delta-s`); or a `speedup` ratio dropping by more than 25% when the
underlying timings are measurable.

*Refreshing the baselines* (after an intentional perf or semantics
change, with the same fidelity as CI — `REPRO_MAX_SLICES=12
REPRO_ACCESSES_PER_SET=400` for the smoke artifact):

```sh
PYTHONPATH=src REPRO_MAX_SLICES=12 REPRO_ACCESSES_PER_SET=400 python tools/bench_smoke.py
PYTHONPATH=src python tools/bench_engine_speedup.py --horizon 512 --max-slices 24
PYTHONPATH=src python tools/bench_manager_overhead.py
PYTHONPATH=src python tools/bench_scaling.py
PYTHONPATH=src python tools/bench_database_build.py
python tools/bench_compare.py --update
git add benchmarks/_artifacts/baselines/
```

Refreshes belong in the same commit as the change that motivated them, so
the diff reviews the old against the new trajectory. In particular, any
change to the replay engine's hot path (`simulation/engine/`) or the
manager decision pipeline must refresh `BENCH_scaling.json` in the same
commit: its wall-clocks and `events_per_sec` document the speedup, and
its hashes prove the change was value-neutral — a hash drift there means
the "vectorisation removes work, never changes values" invariant broke,
and must be treated as a bug, not re-baselined.

The same same-commit rule covers *added* datapoints (a new system size, a
new metric, a changed `repeats`): the gate walks the **baseline's** keys,
so a fresh artifact's new keys are invisible to CI until the baseline is
refreshed, and a changed measurement context (`repeats` is a context key)
fails the gate outright until it is. Adding the 256-core S7 datapoint
therefore ships with the refreshed baseline that contains it — the
datapoint's `result_hash` starts its life gated. Pre-existing hashes must
still come out byte-identical in that refresh; "the new baseline differs
anyway" is never license to absorb a semantics change.

"""


def main() -> int:
    if not os.path.isdir(ARTIFACTS):
        print("no artefacts; run: pytest benchmarks/ --benchmark-only", file=sys.stderr)
        return 1
    blocks = []
    missing = []
    for eid in ORDER:
        path = os.path.join(ARTIFACTS, f"{eid}.md")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                blocks.append(fh.read().rstrip() + "\n")
        else:
            missing.append(eid)

    import repro
    from repro.experiments import runner

    config_note = (
        "## Run configuration\n\n"
        f"* library version: {repro.__version__}\n"
        f"* trace density (`REPRO_ACCESSES_PER_SET`): {runner.ACCESSES_PER_SET}\n"
        f"* trace truncation (`REPRO_MAX_SLICES`): "
        f"{runner.MAX_SLICES if runner.MAX_SLICES is not None else 'full traces'}\n"
        "* regenerate with: `pytest benchmarks/ --benchmark-only && "
        "python tools/build_experiments_md.py`\n\n"
    )

    out_path = os.path.join(ROOT, "EXPERIMENTS.md")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(HEADER)
        fh.write(config_note)
        fh.write(NOTES)
        fh.write("\n".join(blocks))
    missing_note = f", missing: {missing}" if missing else ""
    print(f"wrote {out_path} ({len(blocks)} experiments{missing_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
