"""The service_mixed server process, built like ``tools/serve.py``.

Thread executor, two workers, journal on, contexts for the 4- and 8-core
systems warmed before the socket opens.  It copies the prepared databases
and pre-seeded store entries into its (fresh) cache directory first, so
boot-until-listening covers everything a deployment does before it can
serve.  It prints ``listening on http://host:port`` once bound, serves
until its standard input closes, then prints one JSON line with its peak
RSS.  With ``--trace-out`` it records spans of every layer it runs and
writes them, with each job's queue and run timestamps, to that file.

Usage::

    python3 perfbench/server.py --prep DIR --cache-dir DIR [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

import common

WORKERS = 2
SIZES = (4, 8)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--prep", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    common.setup_env()

    import prepare
    import tracer as tracing

    tracer = jobs = None
    if args.trace_out:
        tracer = tracing.Tracer()
        jobs = tracing.install_service_layers(tracer)
        tracing.install_replay_layers(tracer)
        tracing.install_database_layers(tracer)

    from repro.experiments.runner import get_context
    from repro.service import ReplayService, make_server

    prepare.copy_databases(args.prep, args.cache_dir, SIZES)
    prepare.copy_preseed(args.prep, args.cache_dir)

    def factory(ncores: int):
        return get_context(ncores, cache_dir=args.cache_dir, names=common.APPS)

    service = ReplayService(
        context_factory=factory,
        workers=WORKERS,
        executor="thread",
        journal=os.path.join(args.cache_dir, "journal"),
    )
    for ncores in SIZES:
        service.ctx_for(ncores)
    service.recover()
    server = make_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    serving = threading.Thread(target=server.serve_forever, name="http", daemon=True)
    serving.start()
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        serving.join(timeout=30)
    if tracer is not None:
        timestamps = [
            (job.job_id, job.submitted_s, job.started_s, job.finished_s, job.cache_hit, job.status)
            for job in jobs
        ]
        tracer.dump(args.trace_out, {"jobs": timestamps, "missing": tracer.missing})
    print(json.dumps({"peak_rss_mb": common.peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
