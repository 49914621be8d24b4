"""One set-up sample in a fresh interpreter: import the library, load the
workload's contexts from a fresh copy of the prepared databases, generate
the seed's inputs, then print ``ready``.  The parent times spawn to
``ready``.

Usage::

    python3 perfbench/probe.py WORKLOAD SEED PREP_DIR CACHE_DIR
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    workload, seed, prep, cache_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    common.setup_env()
    import replay

    replay.setup(workload, seed, prep, cache_dir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
