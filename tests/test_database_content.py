"""Golden content of a freshly built simulation database.

The session fixtures replay databases from the repo-local ``.sim_cache``,
which older code may have built, and ``results_store.database_config_digest``
hashes only the configuration -- so neither notices when the detailed
simulation starts producing different numbers.  This test builds a small
database from scratch (serially, no cache) and pins a digest of every
array and phase trace in it.  The three apps cover a low-sensitivity
(``mcf_like``), a high-sensitivity (``soplex_like``) and a streaming
(``libquantum_like``) miss stream.  The second case builds them for 16
cores, whose 64-way LLC puts the sample cap and the reuse of unchanged
MLP-grid columns under this test, not only under the CI bench job.

A change that alters database contents on purpose must bump
``DB_FORMAT_VERSION`` and re-record :data:`GOLDEN_DIGEST` in the same step.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.config import default_system
from repro.simulation.database import build_database

APPS = ["mcf_like", "soplex_like", "libquantum_like"]
ACCESSES_PER_SET = 150

#: Recorded from a serial build before the leading-miss grouping was
#: vectorised; every later grouping implementation must reproduce it.
GOLDEN_DIGEST = "6f123e14f31ec4e22ec9"

#: 16 cores (64 ways) at a low trace density; recorded from a serial build
#: before the stack distances and the MLP grid shared work across
#: allocations.
WIDE_NCORES = 16
WIDE_ACCESSES_PER_SET = 100
WIDE_GOLDEN_DIGEST = "564b24cae0c98bef3295"

RECORD_ARRAYS = ("mpki_full", "mlp_full", "tpi", "latency", "epi", "mpki_sampled", "mlp_sampled")


def content_digest(db) -> str:
    """Digest of every phase trace, record scalar and record array."""
    h = hashlib.sha256()
    for bench in sorted(db.records):
        h.update(f"{bench}:{db.traces[bench]}".encode())
        for key in sorted(db.records[bench]):
            rec = db.records[bench][key]
            h.update(repr((key, rec.weight, rec.apki, rec.epi_dyn, rec.base_cpi)).encode())
            for name in RECORD_ARRAYS:
                h.update(np.ascontiguousarray(getattr(rec, name), dtype=np.float64).tobytes())
    return h.hexdigest()[:20]


def test_fresh_database_matches_golden_digest():
    db = build_database(
        default_system(4), names=APPS, accesses_per_set=ACCESSES_PER_SET, processes=1
    )
    assert sorted(db.records) == sorted(APPS)
    assert content_digest(db) == GOLDEN_DIGEST


def test_fresh_wide_llc_database_matches_golden_digest():
    system = default_system(WIDE_NCORES)
    assert system.llc.ways == 64
    db = build_database(system, names=APPS, accesses_per_set=WIDE_ACCESSES_PER_SET, processes=1)
    assert content_digest(db) == WIDE_GOLDEN_DIGEST
