"""System configuration: the hardware the paper's resource manager controls.

The configuration space has three per-core dimensions (Paper II; Paper I fixes
the core size at the baseline):

* ``f`` -- the DVFS operating point, one of :attr:`VFTable.freqs_ghz`;
* ``w`` -- the number of LLC ways allocated to the core (way-partitioning);
* ``c`` -- the micro-architectural core size (ROB / issue width / MSHRs).

All energy constants live here so the "McPAT" side (:mod:`repro.cpu.power`)
and the RMA's analytical energy model (:mod:`repro.core.energy_model`) share
one source of truth, exactly as the paper's RMA is calibrated against the
platform it manages.

Units
-----
frequency GHz, voltage V, time ns, energy nJ, power W (= nJ/ns * 1e-0... W is
J/s; we track energy in nJ and time in ns, so power constants expressed in W
convert 1:1: 1 W = 1 nJ/ns * 1e-9/1e-9 = 1 nJ per ns * 1.0e0 / 1.0e0 -- i.e.
``P[W] * t[ns] = E[nJ]`` holds exactly.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.util.validation import require, require_positive

__all__ = [
    "VFTable",
    "CoreSize",
    "LLCGeometry",
    "MemoryConfig",
    "OverheadConfig",
    "SystemConfig",
    "Allocation",
    "default_system",
    "CORE_SIZES",
    "SMALL",
    "MEDIUM",
    "LARGE",
]


@dataclass(frozen=True)
class VFTable:
    """Discrete DVFS operating points with a linear voltage law.

    ``V(f) = v0 + kv * f``; dynamic energy scales with ``(V/Vnom)^2`` and
    leakage power with ``(V/Vnom)`` (first-order models, same granularity as
    McPAT gives the paper).
    """

    freqs_ghz: tuple[float, ...] = tuple(np.round(np.arange(0.8, 3.21, 0.1), 2))
    v0: float = 0.55
    kv: float = 0.25
    nominal_ghz: float = 2.0

    def __post_init__(self) -> None:
        require(len(self.freqs_ghz) >= 2, "VF table needs at least two points")
        require(
            all(b > a for a, b in zip(self.freqs_ghz, self.freqs_ghz[1:])),
            "VF table frequencies must be strictly increasing",
        )
        require(self.nominal_ghz in self.freqs_ghz, "nominal frequency must be an operating point")

    @property
    def nlevels(self) -> int:
        return len(self.freqs_ghz)

    @property
    def nominal_index(self) -> int:
        return self.freqs_ghz.index(self.nominal_ghz)

    def voltage(self, f_ghz: float) -> float:
        """Supply voltage at frequency ``f_ghz``."""
        return self.v0 + self.kv * f_ghz

    @property
    def vnom(self) -> float:
        return self.voltage(self.nominal_ghz)

    def freqs_array(self) -> np.ndarray:
        return np.asarray(self.freqs_ghz, dtype=float)

    def index_of(self, f_ghz: float) -> int:
        """Index of the operating point equal to ``f_ghz`` (exact match)."""
        try:
            return self.freqs_ghz.index(round(f_ghz, 6))
        except ValueError as exc:
            raise ValueError(f"{f_ghz} GHz is not an operating point") from exc


@dataclass(frozen=True)
class CoreSize:
    """One micro-architectural configuration of the re-configurable core.

    Paper II power-gates sections of the ROB / issue queue / MSHR file; each
    size carries its ILP window, memory-level-parallelism resources and
    area-driven energy factors (relative to the medium, baseline, size).
    """

    name: str
    rob: int                # instruction window for miss overlap
    width: int              # issue width (bounds achievable ILP)
    mshrs: int              # outstanding-miss registers (bounds MLP)
    epi_factor: float       # dynamic energy/instruction multiplier vs medium
    leak_factor: float      # leakage power multiplier vs medium
    ilp_speedup: float      # execution-CPI multiplier applied at ilp_sensitivity=1
    ilp_floor: float        # execution-CPI multiplier applied at ilp_sensitivity=0

    def __post_init__(self) -> None:
        require_positive(self.rob, "rob")
        require_positive(self.width, "width")
        require_positive(self.mshrs, "mshrs")
        require_positive(self.epi_factor, "epi_factor")
        require_positive(self.leak_factor, "leak_factor")


SMALL = CoreSize(
    name="small", rob=48, width=2, mshrs=4,
    epi_factor=0.80, leak_factor=0.66,
    ilp_speedup=1.70, ilp_floor=1.32,
)
MEDIUM = CoreSize(
    name="medium", rob=128, width=4, mshrs=10,
    epi_factor=1.0, leak_factor=1.0,
    ilp_speedup=1.0, ilp_floor=1.0,
)
LARGE = CoreSize(
    name="large", rob=256, width=6, mshrs=24,
    epi_factor=1.18, leak_factor=1.30,
    ilp_speedup=0.80, ilp_floor=0.97,
)

CORE_SIZES: tuple[CoreSize, ...] = (SMALL, MEDIUM, LARGE)


@dataclass(frozen=True)
class LLCGeometry:
    """Shared last-level cache geometry.

    ``model_sets`` is the number of sets the ground-truth trace simulation
    models (a sampled image of the real cache, standard ATD practice);
    ``atd_sampled_sets`` is the subset the *online* ATD observes, which is the
    source of the RMA's cache-curve sampling error.
    """

    ways: int = 16
    model_sets: int = 64
    atd_sampled_sets: int = 16
    line_bytes: int = 64

    def __post_init__(self) -> None:
        require(self.ways >= 2, "LLC needs at least 2 ways")
        require(
            1 <= self.atd_sampled_sets <= self.model_sets,
            "sampled sets must be a non-empty subset of model sets",
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory: fixed service latency plus bandwidth queueing.

    The thesis assumes "a memory controller that equally partitions the
    available bandwidth among the cores"; each core therefore sees a private
    share ``peak_bw_gbps / ncores`` and a queueing term that grows with its
    own utilisation of that share.
    """

    latency_ns: float = 85.0
    peak_bw_gbps: float = 51.2          # e.g. dual-channel DDR4-3200
    queue_coeff: float = 0.85           # latency inflation at full utilisation
    energy_per_access_nj: float = 16.0  # 64B line transfer + activate share
    background_power_w: float = 0.8     # DRAM refresh/standby, whole system


@dataclass(frozen=True)
class OverheadConfig:
    """Costs of applying a new resource setting (added by the RMA simulator).

    The paper adds "the corresponding overheads ... for each core depending on
    the change in their resource allocations"; these are the standard costs:
    a DVFS transition stall, a core-resize drain/power-gate stall, and a cache
    warm-up penalty proportional to the number of ways gained.
    """

    dvfs_transition_us: float = 20.0
    resize_transition_us: float = 25.0
    # Extra misses while refilling each newly gained way, expressed as a
    # fraction of one way's worth of lines (real sets, scaled from model sets).
    warmup_miss_fraction: float = 0.7
    real_sets: int = 4096

    def warmup_extra_misses(self, ways_gained: int) -> float:
        """Extra DRAM fetches caused by warming ``ways_gained`` new ways."""
        if ways_gained <= 0:
            return 0.0
        return self.warmup_miss_fraction * ways_gained * self.real_sets


@dataclass(frozen=True)
class SystemConfig:
    """Everything the detailed simulator and the RMA need to know.

    The *baseline* allocation -- the paper's QoS anchor -- is the nominal
    frequency, the medium core size and an equal split of the LLC ways.
    """

    ncores: int = 4
    vf: VFTable = field(default_factory=VFTable)
    core_sizes: tuple[CoreSize, ...] = CORE_SIZES
    llc: LLCGeometry = field(default_factory=LLCGeometry)
    mem: MemoryConfig = field(default_factory=MemoryConfig)
    overheads: OverheadConfig = field(default_factory=OverheadConfig)
    interval_instructions: int = 100_000_000
    # Core static power of the medium core at Vnom, and per-way LLC static
    # power (budgeted per core share in the energy model).
    core_leak_w: float = 0.26
    llc_way_static_w: float = 0.008
    llc_access_energy_nj: float = 0.40
    baseline_core: str = "medium"
    min_ways_per_core: int = 1
    # QoS anchor frequency; None means the VF table's nominal point.  Kept
    # separate from ``vf.nominal_ghz`` (the energy-normalisation point) so the
    # baseline-VF sensitivity experiment can move the anchor without changing
    # the physical platform (and hence without rebuilding the database).
    qos_baseline_ghz: float | None = None

    def __post_init__(self) -> None:
        require(self.ncores >= 1, "need at least one core")
        require(
            self.llc.ways >= self.ncores * self.min_ways_per_core,
            "LLC must have at least min_ways_per_core ways per core",
        )
        require(
            any(c.name == self.baseline_core for c in self.core_sizes),
            f"baseline core size {self.baseline_core!r} not in core_sizes",
        )

    # -- baseline allocation ------------------------------------------------
    @property
    def baseline_core_index(self) -> int:
        return next(i for i, c in enumerate(self.core_sizes) if c.name == self.baseline_core)

    @property
    def baseline_freq_index(self) -> int:
        if self.qos_baseline_ghz is not None:
            return self.vf.index_of(self.qos_baseline_ghz)
        return self.vf.nominal_index

    @property
    def baseline_ways(self) -> int:
        return self.llc.ways // self.ncores

    def baseline_allocation(self) -> "Allocation":
        return Allocation(
            core=self.baseline_core_index,
            freq=self.baseline_freq_index,
            ways=self.baseline_ways,
        )

    # -- derived ------------------------------------------------------------
    @property
    def ncore_sizes(self) -> int:
        return len(self.core_sizes)

    @property
    def per_core_bw_gbps(self) -> float:
        return self.mem.peak_bw_gbps / self.ncores

    def with_ncores(self, ncores: int) -> "SystemConfig":
        """A copy resized to ``ncores`` cores with a proportionally sized LLC.

        Doubling the core count doubles LLC ways (16 ways for 4 cores, 32 for
        8) so the baseline per-core share stays constant -- matching the
        paper's 4-core/8-core setups.
        """
        ways = self.llc.ways * ncores // self.ncores
        llc = replace(self.llc, ways=ways)
        return replace(self, ncores=ncores, llc=llc)


@dataclass(frozen=True)
class Allocation:
    """One core's resource setting: (core-size index, VF index, LLC ways).

    Managers return ``{core: Allocation}`` maps of the settings to apply,
    for any subset of the cores (see
    :meth:`~repro.core.managers.ResourceManager.on_interval`).
    """

    core: int
    freq: int
    ways: int

    def __post_init__(self) -> None:
        require(self.ways >= 1, "an allocation needs at least one way")


def default_system(ncores: int = 4) -> SystemConfig:
    """The paper's default platform scaled to ``ncores`` cores."""
    return SystemConfig().with_ncores(ncores)
