"""Record the committed reference digests and work counters.

Runs each workload once per seed in :data:`SEEDS` without timing anything
that matters (one traced pass, one cold start, the service at a faster
rate) and writes ``perfbench/references.json``.  The service's job count,
and so its reference, follows ``run_seconds`` in ``BENCHMARK.json``.
Re-record only in a change that explains why the program's outputs or
work changed.

Usage::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import os
import sys

import common

#: The seeds a reference is recorded for.
SEEDS = range(20)


def main() -> int:
    common.setup_env()
    import prepare
    import replay
    import run
    import service_mixed

    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    prep = prepare.prepared(common.source_fingerprint())
    refs = common.load_references()
    n_jobs = service_mixed.job_count(run_seconds)
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            run_dir = common.new_run_dir()
            try:
                if workload == "service_mixed":
                    server = service_mixed.Server(prep, os.path.join(run_dir, "server"))
                    try:
                        # Counters and digests do not depend on the rate; a
                        # faster one just records sooner.
                        out = service_mixed.measure_service(
                            seed, n_jobs / 40.0, prep, run_dir, server, rate=40.0)
                    finally:
                        server.stop()
                    key = common.reference_key(seed, f"{n_jobs}jobs")
                elif workload == "cold_start":
                    out = replay.measure_cold(seed, 0, run_dir)
                    key = common.reference_key(seed, "")
                else:
                    # Traced, so the layer call counters are recorded too.
                    out = run.measure(workload, seed, 0, prep, run_dir, True)
                    key = common.reference_key(seed, "")
            finally:
                common.remove_tree(run_dir)
            if out.failed:
                print(f"{workload} seed {seed}: {out.failed} failures: {out.notes[:3]}", file=sys.stderr)
                return 1
            refs.setdefault(workload, {})[key] = {"digest": out.digest, "counters": out.counters}
            print(f"{workload} seed {key}: {out.digest} {out.counters}", flush=True)
            with open(common.REFERENCES, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
