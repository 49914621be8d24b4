"""S5: many-core cluster churn (hierarchical vs flat coordinated RMA).

Whole clusters drain (power-gated) and refill with fresh tenants, the
group-scheduling pattern of a many-core part.  Compares flat RM2 against
the hierarchical cluster tier (RM2 with ``cluster_size``) on the same
event streams.
"""

from __future__ import annotations

from repro.experiments.scenarios import s5_cluster_churn


def test_s5_cluster_churn(benchmark, record_artifact, ctx16):
    result = benchmark.pedantic(
        lambda: s5_cluster_churn(ctx16),
        rounds=1,
        iterations=1,
    )
    record_artifact(result)
    assert len(result.rows) == 2
    # The hierarchy's bounded-gap contract: clustered savings must stay
    # close to the flat manager's on the same scenarios.
    flat = result.summary["rm2-combined avg savings %"]
    clustered = result.summary["rm2-combined-c4 avg savings %"]
    assert abs(flat - clustered) < 10.0
