"""Unit tests for the system configuration layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    CORE_SIZES,
    Allocation,
    LLCGeometry,
    SystemConfig,
    VFTable,
    default_system,
)


class TestVFTable:
    def test_default_table_contains_nominal(self):
        vf = VFTable()
        assert vf.nominal_ghz in vf.freqs_ghz
        assert vf.freqs_ghz[vf.nominal_index] == vf.nominal_ghz

    def test_voltage_law_linear(self):
        vf = VFTable()
        assert vf.voltage(2.0) == pytest.approx(vf.v0 + vf.kv * 2.0)

    def test_vnom_matches_nominal(self):
        vf = VFTable()
        assert vf.vnom == pytest.approx(vf.voltage(vf.nominal_ghz))

    def test_arrays_match_scalars(self):
        vf = VFTable()
        np.testing.assert_allclose(
            vf.v0 + vf.kv * vf.freqs_array(), [vf.voltage(f) for f in vf.freqs_ghz]
        )

    def test_index_of_roundtrip(self):
        vf = VFTable()
        for i, f in enumerate(vf.freqs_ghz):
            assert vf.index_of(f) == i

    def test_index_of_unknown(self):
        with pytest.raises(ValueError):
            VFTable().index_of(1.2345)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            VFTable(freqs_ghz=(2.0, 1.0), nominal_ghz=2.0)

    def test_rejects_nominal_off_grid(self):
        with pytest.raises(ValueError):
            VFTable(freqs_ghz=(1.0, 2.0), nominal_ghz=1.5)


class TestCoreSizes:
    def test_ladder_ordering(self):
        small, medium, large = CORE_SIZES
        assert small.rob < medium.rob < large.rob
        assert small.mshrs < medium.mshrs < large.mshrs
        assert small.epi_factor < medium.epi_factor < large.epi_factor

    def test_medium_is_reference(self):
        medium = CORE_SIZES[1]
        assert medium.epi_factor == 1.0
        assert medium.leak_factor == 1.0
        assert medium.ilp_speedup == 1.0

    def test_speedup_semantics(self):
        small, _, large = CORE_SIZES
        # small slows fully sensitive code down, large speeds it up
        assert small.ilp_speedup > 1.0 > large.ilp_speedup
        # structural floors are milder than the full effects
        assert small.ilp_floor < small.ilp_speedup
        assert large.ilp_floor > large.ilp_speedup


class TestSystemConfig:
    def test_default_4core(self):
        s = default_system(4)
        assert s.ncores == 4
        assert s.llc.ways == 16
        assert s.baseline_ways == 4

    def test_with_ncores_scales_llc(self):
        s8 = default_system(8)
        assert s8.llc.ways == 32
        assert s8.baseline_ways == 4  # per-core share unchanged

    def test_baseline_allocation(self):
        s = default_system(4)
        alloc = s.baseline_allocation()
        assert alloc.ways == 4
        assert s.core_sizes[alloc.core].name == "medium"
        assert s.vf.freqs_ghz[alloc.freq] == s.vf.nominal_ghz

    def test_per_core_bandwidth(self):
        s = default_system(4)
        assert s.per_core_bw_gbps == pytest.approx(s.mem.peak_bw_gbps / 4)

    def test_rejects_too_few_ways(self):
        with pytest.raises(ValueError):
            SystemConfig(ncores=4, llc=LLCGeometry(ways=3))

    def test_rejects_unknown_baseline_core(self):
        with pytest.raises(ValueError):
            SystemConfig(baseline_core="gigantic")

    def test_overhead_warmup_misses(self):
        s = default_system(4)
        assert s.overheads.warmup_extra_misses(0) == 0.0
        assert s.overheads.warmup_extra_misses(-2) == 0.0
        assert s.overheads.warmup_extra_misses(2) > 0.0


class TestAllocation:
    def test_requires_one_way(self):
        with pytest.raises(ValueError):
            Allocation(core=0, freq=0, ways=0)

    def test_equality(self):
        assert Allocation(1, 2, 3) == Allocation(1, 2, 3)
        assert Allocation(1, 2, 3) != Allocation(1, 2, 4)
