"""One-time preparation, keyed by the source fingerprint.

Builds, into ``.perfbench/prep/<fingerprint>/``:

* the 4-, 8- and 256-core simulation databases of the seven-app subset
  (``cache/``), which runs copy into their own fresh cache directory;
* the pre-seeded results-store entries of service_mixed (``preseed/``):
  every job of :func:`inputs.preseed_catalogue`, replayed through the
  library and stored under the key the service computes for it.

Nothing here is timed.  The repository's own ``.sim_cache/`` is never
read or written, and a changed source tree gets a new directory, so no
run is ever served a database or result built by other code.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

import common
import inputs

#: Databases the warm workloads load (cold_start builds its own).
PREPARED_SIZES = (4, 8, 256)
DONE = "DONE"


def prepared(fingerprint: str) -> str:
    """The preparation directory for ``fingerprint``, building it if needed."""
    root = os.path.join(common.WORK, "prep")
    os.makedirs(root, exist_ok=True)
    prep = os.path.join(root, fingerprint)
    with open(os.path.join(root, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(prep, DONE)):
            for stale in os.listdir(root):
                if stale not in ("lock", fingerprint):
                    common.remove_tree(os.path.join(root, stale))
            common.remove_tree(prep)
            t0 = time.perf_counter()
            # In a child process, so the measuring process's peak RSS and
            # interpreter state never include the preparation.
            subprocess.run([sys.executable, os.path.abspath(__file__), prep], check=True)
            with open(os.path.join(prep, DONE), "w") as fh:
                fh.write(f"{time.perf_counter() - t0:.1f}\n")
            print(f"perfbench: prepared {prep} in {time.perf_counter() - t0:.1f}s", flush=True)
    return prep


def _build(prep: str) -> None:
    from repro.experiments.runner import get_context, set_result_cache
    from repro.service.jobs import build_item, job_key, job_spec_from_json
    from repro.simulation.results_store import ResultsStore

    set_result_cache(False)
    cache = os.path.join(prep, "cache")
    os.makedirs(cache)
    ctxs, files = {}, {}
    for n in PREPARED_SIZES:
        before = set(os.listdir(cache))
        ctxs[n] = get_context(n, cache_dir=cache, names=common.APPS)
        (files[n],) = set(os.listdir(cache)) - before
    with open(os.path.join(prep, "databases.json"), "w", encoding="utf-8") as fh:
        json.dump(files, fh)
    store = ResultsStore(os.path.join(prep, "preseed"))
    for body in inputs.preseed_catalogue():
        spec = job_spec_from_json(body)
        ctx = ctxs[spec.ncores]
        item = build_item(spec, ctx.db.benchmarks())
        run = ctx.run_scenario(item, spec.manager)
        store.put(job_key(spec, ctx), run)


def copy_databases(prep: str, cache_dir: str, sizes) -> None:
    """Copy the prepared databases of ``sizes`` into ``cache_dir``."""
    with open(os.path.join(prep, "databases.json"), encoding="utf-8") as fh:
        files = json.load(fh)
    os.makedirs(cache_dir, exist_ok=True)
    for n in sizes:
        name = files[str(n)]
        shutil.copyfile(os.path.join(prep, "cache", name), os.path.join(cache_dir, name))


def copy_preseed(prep: str, cache_dir: str) -> None:
    """Copy the pre-seeded store entries into ``<cache_dir>/results``."""
    shutil.copytree(os.path.join(prep, "preseed"), os.path.join(cache_dir, "results"))


if __name__ == "__main__":
    common.setup_env()
    _build(sys.argv[1])
