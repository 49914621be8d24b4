"""Tests for the leading-miss MLP model and the MLP-aware ATD."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.atd import COLD, stack_distances
from repro.cache.mlp_atd import QUANT_STEPS, quantize
from repro.config import default_system
from repro.mem.mlp import (
    MAX_MISSES_SAMPLED,
    effective_window,
    leading_miss_groups,
    mlp_grid,
    mlp_of_misses,
)
from repro.workloads.address_gen import generate_trace
from tests.oracles.leading_miss import leading_miss_groups as greedy_groups
from tests.oracles.mlp_grid import mlp_grid as per_allocation_grid
from tests.test_phases import make_spec


def misses(positions, chains):
    return np.asarray(positions, dtype=float), np.asarray(chains, dtype=np.int64)


class TestLeadingMissGroups:
    def test_empty(self):
        pos, ch = misses([], [])
        assert leading_miss_groups(pos, ch, 100, 8) == 0

    def test_all_overlap(self):
        # three independent misses within one window
        pos, ch = misses([0, 10, 20], [0, 1, 2])
        assert leading_miss_groups(pos, ch, 100, 8) == 1

    def test_window_splits_groups(self):
        pos, ch = misses([0, 10, 200, 210], [0, 1, 2, 3])
        assert leading_miss_groups(pos, ch, 100, 8) == 2

    def test_dependent_misses_serialise(self):
        # same chain: each miss waits for the previous one
        pos, ch = misses([0, 10, 20], [5, 5, 5])
        assert leading_miss_groups(pos, ch, 1000, 8) == 3

    def test_mshr_limit(self):
        pos, ch = misses([0, 1, 2, 3], [0, 1, 2, 3])
        assert leading_miss_groups(pos, ch, 1000, mshrs=2) == 2

    def test_dependence_inside_window(self):
        # 3rd miss depends on the 1st (same chain): closes the group
        pos, ch = misses([0, 5, 10, 15], [0, 1, 0, 2])
        # group1 = {0,5}; group2 = {10,15}
        assert leading_miss_groups(pos, ch, 1000, 8) == 2

    def test_window_end_is_exclusive(self):
        # a miss exactly window instructions after the leader starts a group
        pos, ch = misses([0, 50, 100, 150], [0, 1, 2, 3])
        assert leading_miss_groups(pos, ch, 100, 8) == 2

    def test_unsorted_positions_rejected(self):
        pos, ch = misses([0, 10, 5], [0, 1, 2])
        with pytest.raises(ValueError, match="non-decreasing"):
            leading_miss_groups(pos, ch, 100, 8)

    def test_unsorted_positions_rejected_by_grid(self):
        system = default_system(4)
        dists = np.full(3, 99, dtype=np.int32)
        pos, ch = misses([0, 10, 5], [0, 1, 2])
        with pytest.raises(ValueError, match="non-decreasing"):
            mlp_grid(system, dists, pos, ch, 0.5)


@st.composite
def miss_streams(draw):
    """Arbitrary miss streams: integer positions with ties, non-monotone
    chain ids (down to a single chain), integer windows that land exactly on
    a later position and fractional ones, and any MSHR count up to n + 2."""
    n = draw(st.integers(0, 300))
    gaps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    pos = np.cumsum(np.asarray(gaps, dtype=np.int64))
    if draw(st.booleans()):
        pos = pos.astype(float)
    nchains = draw(st.integers(1, max(1, n)))
    chains = np.asarray(
        draw(st.lists(st.integers(-3, nchains - 4), min_size=n, max_size=n)), dtype=np.int64
    )
    window = draw(
        st.one_of(
            st.integers(0, 100),
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        )
    )
    mshrs = draw(st.integers(1, n + 2))
    return pos, chains, window, mshrs


class TestGreedyEquivalence:
    """The vectorised count equals the greedy loop in tests/oracles."""

    @settings(max_examples=200, deadline=None)
    @given(miss_streams())
    def test_matches_greedy_loop(self, stream):
        pos, chains, window, mshrs = stream
        assert leading_miss_groups(pos, chains, window, mshrs) == greedy_groups(
            pos, chains, window, mshrs
        )


class TestMlpOfMisses:
    def test_empty_stream_is_one(self):
        pos, ch = misses([], [])
        assert mlp_of_misses(pos, ch, 100, 8) == 1.0

    def test_fully_parallel(self):
        pos, ch = misses([0, 1, 2, 3], [0, 1, 2, 3])
        assert mlp_of_misses(pos, ch, 100, 8) == pytest.approx(4.0)

    def test_fully_serial(self):
        pos, ch = misses([0, 1, 2, 3], [0, 0, 0, 0])
        assert mlp_of_misses(pos, ch, 100, 8) == pytest.approx(1.0)

    def test_bounded_by_mshrs(self):
        n = 64
        pos = np.arange(n, dtype=float)
        ch = np.arange(n, dtype=np.int64)
        assert mlp_of_misses(pos, ch, 1e9, mshrs=4) <= 4.0 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 16), st.integers(0, 5000))
    def test_property_bounds(self, n, mshrs, seed):
        rng = np.random.default_rng(seed)
        pos = np.cumsum(rng.exponential(30, n))
        ch = rng.integers(0, max(1, n // 2), n)
        m = mlp_of_misses(pos, np.sort(ch), 128, mshrs)
        assert 1.0 - 1e-9 <= m <= mshrs + 1e-9

    def test_wider_window_never_reduces_mlp(self):
        rng = np.random.default_rng(11)
        pos = np.cumsum(rng.exponential(25, 400))
        ch = rng.integers(0, 300, 400)
        narrow = mlp_of_misses(pos, ch, 48, 16)
        wide = mlp_of_misses(pos, ch, 512, 16)
        assert wide >= narrow - 1e-9


class TestEffectiveWindow:
    def test_insensitive_pins_to_baseline(self):
        system = default_system(4)
        base = system.core_sizes[1]
        for core in system.core_sizes:
            w, m = effective_window(core, base, 0.0)
            assert w == base.rob
            assert m == base.mshrs

    def test_sensitive_tracks_core(self):
        system = default_system(4)
        base = system.core_sizes[1]
        for core in system.core_sizes:
            w, m = effective_window(core, base, 1.0)
            assert w == core.rob
            assert m == core.mshrs


class TestMlpGrid:
    def _grid(self, mlp_sensitivity):
        system = default_system(4)
        spec = make_spec(chain_break_prob=0.9, mlp_sensitivity=mlp_sensitivity)
        trace = generate_trace(spec, 16, 400)
        dists = stack_distances(trace, system.llc.ways, 16)
        return mlp_grid(system, dists, trace.instr_pos, trace.chain_ids, mlp_sensitivity)

    def test_shape(self):
        system = default_system(4)
        grid = self._grid(0.8)
        assert grid.shape == (system.ncore_sizes, system.llc.ways)

    def test_all_at_least_one(self):
        assert np.all(self._grid(0.8) >= 1.0)

    def test_sensitive_phase_scales_with_core(self):
        grid = self._grid(1.0)
        base_w = 0  # fullest miss stream
        assert grid[2, base_w] > grid[0, base_w] * 1.1

    def test_insensitive_phase_flat_across_cores(self):
        grid = self._grid(0.0)
        np.testing.assert_allclose(grid[0], grid[2], rtol=1e-9)


def greedy_grid(system, dists, instr_pos, chain_ids, mlp_sensitivity):
    """``mlp_grid`` rebuilt from the greedy loop, one stream per (c, w)."""
    baseline = system.core_sizes[system.baseline_core_index]
    out = np.ones((system.ncore_sizes, system.llc.ways), dtype=float)
    for w in range(1, system.llc.ways + 1):
        mask = dists > w
        pos_w = instr_pos[mask][:MAX_MISSES_SAMPLED]
        chains_w = chain_ids[mask][:MAX_MISSES_SAMPLED]
        if len(pos_w) == 0:
            continue
        for ci, core in enumerate(system.core_sizes):
            window, mshrs = effective_window(core, baseline, mlp_sensitivity)
            groups = greedy_groups(pos_w, chains_w, window, mshrs)
            out[ci, w - 1] = float(len(pos_w)) / float(max(groups, 1))
    return out


class TestGridEquivalence:
    """``mlp_grid`` is byte-identical to the grid the greedy loop builds."""

    @pytest.mark.parametrize("mlp_sensitivity", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "chain_break_prob,streaming_frac", [(0.9, 0.1), (0.3, 0.0), (0.6, 0.8)]
    )
    def test_generated_trace(self, mlp_sensitivity, chain_break_prob, streaming_frac):
        system = default_system(4)
        spec = make_spec(
            chain_break_prob=chain_break_prob,
            streaming_frac=streaming_frac,
            mlp_sensitivity=mlp_sensitivity,
        )
        trace = generate_trace(spec, system.llc.model_sets, 150, seed_parts=("grid",))
        dists = stack_distances(trace, system.llc.ways, system.llc.model_sets)
        args = (system, dists, trace.instr_pos, trace.chain_ids, mlp_sensitivity)
        assert mlp_grid(*args).tobytes() == greedy_grid(*args).tobytes()

    @pytest.mark.parametrize("mlp_sensitivity", [0.0, 0.5, 1.0])
    def test_stream_longer_than_sample_cap(self, mlp_sensitivity):
        system = default_system(4)
        spec = make_spec(streaming_frac=0.9, mlp_sensitivity=mlp_sensitivity)
        trace = generate_trace(spec, system.llc.model_sets, 200, seed_parts=("long",))
        dists = stack_distances(trace, system.llc.ways, system.llc.model_sets)
        assert np.count_nonzero(dists > 1) > MAX_MISSES_SAMPLED
        args = (system, dists, trace.instr_pos, trace.chain_ids, mlp_sensitivity)
        assert mlp_grid(*args).tobytes() == greedy_grid(*args).tobytes()

    @pytest.mark.parametrize("mlp_sensitivity", [0.0, 0.5, 1.0])
    def test_way_counts_with_empty_miss_streams(self, mlp_sensitivity):
        system = default_system(4)
        rng = np.random.default_rng(3)
        n = 500
        dists = rng.integers(1, 7, n).astype(np.int32)  # no misses from w = 6 on
        pos = np.cumsum(rng.integers(0, 20, n)).astype(float)
        chains = rng.integers(0, 60, n)
        grid = mlp_grid(system, dists, pos, chains, mlp_sensitivity)
        assert np.all(grid[:, 5:] == 1.0)
        assert grid.tobytes() == greedy_grid(system, dists, pos, chains, mlp_sensitivity).tobytes()


@st.composite
def distance_streams(draw):
    """Stack distances, positions and chains for one phase of an LLC with ``ways``.

    Distances come from a few levels only, so most allocations see the same
    stream as the one before (runs of unchanged columns); ``n`` reaches past
    the sample cap, and ``COLD`` misses every allocation.
    """
    ways = draw(st.sampled_from([16, 32, 256]))
    n = draw(st.integers(1, MAX_MISSES_SAMPLED + 1500))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = rng.choice(np.arange(1, ways + 2), size=draw(st.integers(1, 6)))
    levels = np.append(levels, COLD)
    dists = rng.choice(levels, size=n).astype(np.int32)
    pos = np.cumsum(rng.integers(0, draw(st.integers(1, 60)), n)).astype(float)
    chains = rng.integers(0, draw(st.integers(1, n + 1)), n)
    return ways, dists, pos, chains


class TestPerAllocationEquivalence:
    """``mlp_grid`` is byte-identical to the per-(c, w) grid in tests/oracles."""

    @settings(max_examples=20, deadline=None)
    @given(distance_streams(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_arbitrary_distances(self, case, mlp_sensitivity):
        ways, dists, pos, chains = case
        system = default_system(ways // 4)
        assert system.llc.ways == ways
        args = (system, dists, pos, chains, mlp_sensitivity)
        assert mlp_grid(*args).tobytes() == per_allocation_grid(*args).tobytes()

    @pytest.mark.parametrize("ncores", [4, 8, 64])
    @pytest.mark.parametrize("streaming_frac", [0.1, 0.9])
    def test_generated_trace(self, ncores, streaming_frac):
        system = default_system(ncores)
        spec = make_spec(
            working_sets=((24, 0.5), (600, 0.5)),
            streaming_frac=streaming_frac,
            chain_break_prob=0.7,
            mlp_sensitivity=0.8,
        )
        trace = generate_trace(spec, system.llc.model_sets, 120, seed_parts=("grid", ncores))
        dists = stack_distances(trace, system.llc.ways, system.llc.model_sets)
        args = (system, dists, trace.instr_pos, trace.chain_ids, 0.8)
        assert mlp_grid(*args).tobytes() == per_allocation_grid(*args).tobytes()


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_capped_streams_with_unchanged_columns(self, seed):
        system = default_system(64)
        rng = np.random.default_rng(seed)
        n = MAX_MISSES_SAMPLED + 2000
        levels = np.array([3, 40, 41, 200, 257, COLD])
        dists = rng.choice(levels, size=n, p=[0.05, 0.1, 0.05, 0.2, 0.1, 0.5]).astype(np.int32)
        pos = np.cumsum(rng.integers(0, 30, n)).astype(float)
        chains = np.cumsum(rng.random(n) < 0.6)
        streams = [np.flatnonzero(dists > w)[:MAX_MISSES_SAMPLED] for w in range(1, 257)]
        assert len(streams[0]) == MAX_MISSES_SAMPLED
        assert sum(np.array_equal(a, b) for a, b in zip(streams, streams[1:])) > 200
        args = (system, dists, pos, chains, 0.7)
        assert mlp_grid(*args).tobytes() == per_allocation_grid(*args).tobytes()


class TestMLPTable:
    def test_quantize_grid(self):
        vals = np.array([[1.03, 2.31], [1.49, 3.9]])
        q = quantize(vals)
        np.testing.assert_allclose(q * QUANT_STEPS, np.round(q * QUANT_STEPS))
        assert np.all(q >= 1.0)

    def test_quantize_floors_at_one(self):
        assert quantize(np.array([[0.5]]))[0, 0] == 1.0
