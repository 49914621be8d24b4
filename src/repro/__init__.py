"""repro: QoS-driven coordinated management of resources to save energy.

A full reproduction of M. Nejat, M. Pericàs, P. Stenström, *"QoS-Driven
Coordinated Management of Resources to Save Energy in Multicore Systems"*
(IPDPS 2019) and its follow-up (core-reconfiguration, Paper II of the
author's licentiate thesis), including the multi-level simulation framework
the papers are evaluated with.

Quickstart
----------
>>> from repro import default_system, build_database, paper1_workloads
>>> from repro import simulate_workload, rm2_combined, compare_runs
>>> system = default_system(ncores=4)
>>> db = build_database(system, names=["mcf_like", "povray_like",
...                                    "libquantum_like", "namd_like"])
>>> wl = paper1_workloads(4)[2]            # doctest: +SKIP
>>> base = simulate_workload(system, db, wl)               # doctest: +SKIP
>>> run = simulate_workload(system, db, wl, rm2_combined())  # doctest: +SKIP
>>> compare_runs(base, run).savings_pct                    # doctest: +SKIP
"""

from repro.config import (
    Allocation,
    CoreSize,
    LLCGeometry,
    MemoryConfig,
    OverheadConfig,
    SystemConfig,
    VFTable,
    default_system,
)
from repro.core import (
    CoordinatedManager,
    EnergyCurve,
    OverheadMeter,
    ResourceManager,
    StaticBaselineManager,
    dvfs_only,
    rm1_partitioning_only,
    rm2_combined,
    rm3_core_adaptive,
)
from repro.simulation import (
    RMASimulator,
    RunResult,
    SimulationDatabase,
    WorkloadComparison,
    build_database,
    compare_runs,
    energy_savings_pct,
    simulate_workload,
)
from repro.workloads import (
    BENCHMARKS,
    Benchmark,
    Workload,
    benchmark_names,
    get_benchmark,
    paper1_workloads,
    paper2_workloads,
    scenario_of_mix,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "Allocation",
    "CoreSize",
    "LLCGeometry",
    "MemoryConfig",
    "OverheadConfig",
    "SystemConfig",
    "VFTable",
    "default_system",
    # core contribution
    "CoordinatedManager",
    "EnergyCurve",
    "OverheadMeter",
    "ResourceManager",
    "StaticBaselineManager",
    "dvfs_only",
    "rm1_partitioning_only",
    "rm2_combined",
    "rm3_core_adaptive",
    # simulation framework
    "RMASimulator",
    "RunResult",
    "SimulationDatabase",
    "WorkloadComparison",
    "build_database",
    "compare_runs",
    "energy_savings_pct",
    "simulate_workload",
    # workloads
    "BENCHMARKS",
    "Benchmark",
    "Workload",
    "benchmark_names",
    "get_benchmark",
    "paper1_workloads",
    "paper2_workloads",
    "scenario_of_mix",
]
