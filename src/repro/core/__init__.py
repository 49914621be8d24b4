"""The paper's contribution: the coordinated QoS-driven resource manager.

Structure mirrors Figure 3.1/3.2 of the thesis:

counters + ATD -> performance model -> QoS pruning (local optimisation)
-> per-core energy curves -> global optimisation (recursive reduction)
-> optimum system setting {w*, f*, c*}.
"""

from repro.core.curves import EnergyCurve
from repro.core.models import Model1, Model2, Model3, MLP_MODELS
from repro.core.local_opt import DimSpec, local_optimize_batch
from repro.core.global_opt import cluster_way_caps, partition_clusters
from repro.core.batch_opt import analytical_curves_batch, oracle_curves_batch
from repro.core.overhead_meter import OverheadMeter
from repro.core.managers import (
    ResourceManager,
    StaticBaselineManager,
    CoordinatedManager,
    IndependentManager,
    rm1_partitioning_only,
    rm2_combined,
    rm3_core_adaptive,
    dvfs_only,
)
from repro.core.history import HistoryAwareManager, rm2_history, rm3_history
from repro.core.colocation import profile_app, suggest_colocation

__all__ = [
    "EnergyCurve",
    "Model1",
    "Model2",
    "Model3",
    "MLP_MODELS",
    "DimSpec",
    "local_optimize_batch",
    "partition_clusters",
    "cluster_way_caps",
    "analytical_curves_batch",
    "oracle_curves_batch",
    "OverheadMeter",
    "ResourceManager",
    "StaticBaselineManager",
    "CoordinatedManager",
    "IndependentManager",
    "HistoryAwareManager",
    "rm2_history",
    "rm3_history",
    "profile_app",
    "suggest_colocation",
    "rm1_partitioning_only",
    "rm2_combined",
    "rm3_core_adaptive",
    "dvfs_only",
]
