"""S7: the scaling experiment (flat vs clustered RM2 across system sizes).

Replays the same cluster-churn shape at 8/16/32 cores under the static
baseline, flat RM2 and clustered RM2; reports savings, the
clustered-vs-flat energy gap and the modelled RMA overhead per invocation.
The 64-core point is tracked by ``tools/bench_scaling.py`` and its
committed ``BENCH_scaling.json`` baseline.
"""

from __future__ import annotations

from repro.experiments.scenarios import s7_scaling


def test_s7_scaling(benchmark, record_artifact):
    result = benchmark.pedantic(
        lambda: s7_scaling(),
        rounds=1,
        iterations=1,
    )
    record_artifact(result)
    assert [row[0] for row in result.rows] == [8, 16, 32]
    # The cluster way caps may cost energy, but only a bounded amount.
    assert result.summary["max |energy gap| %"] < 10.0
