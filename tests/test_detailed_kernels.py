"""The detailed simulation's compiled loops at their boundary.

``repro.cache.atd.stack_distances`` and ``repro.mem.mlp.mlp_grid`` /
``leading_miss_groups`` check their inputs and then make one call into
the compiled library.  These tests hold each wrapper to its checks before
the call (a bad set id never reaches the kernel, which indexes its stack
buffer with it), to the greedy oracle on chain ids at the ends of the
int64 range, and to the per-allocation oracle on the widest LLC the
system builds (256 cores, 1024 ways), where capped streams decide which
allocations share a stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import atd
from repro.cache.atd import COLD, stack_distances
from repro.config import default_system
from repro.mem import mlp
from repro.mem.mlp import MAX_MISSES_SAMPLED, leading_miss_groups, mlp_grid
from repro.workloads.address_gen import AccessTrace
from tests.oracles.leading_miss import leading_miss_groups as greedy_groups
from tests.oracles.mlp_grid import mlp_grid as per_allocation_grid

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min


class _NoCall:
    """Stands in for the library: any kernel call fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was called with inputs that failed a check")


def trace(set_ids) -> AccessTrace:
    n = len(set_ids)
    return AccessTrace(
        set_ids=np.asarray(set_ids, dtype=np.int32),
        line_ids=np.arange(n, dtype=np.int64),
        instr_pos=np.arange(1.0, n + 1.0),
        chain_ids=np.arange(n, dtype=np.int64),
        instructions=float(max(n, 1)),
    )


class TestStackDistanceChecks:
    @pytest.mark.parametrize("set_ids", [[0, 1, 4], [0, -1, 2], [INT64_MAX // 2**32]])
    def test_set_id_outside_nsets_is_rejected_before_the_call(self, monkeypatch, set_ids):
        monkeypatch.setattr(atd, "_kernel", _NoCall())
        with pytest.raises(ValueError, match=r"set ids must lie in \[0, nsets\)"):
            stack_distances(trace(set_ids), 8, 4)

    def test_max_ways_below_one_is_rejected_before_the_call(self, monkeypatch):
        monkeypatch.setattr(atd, "_kernel", _NoCall())
        with pytest.raises(ValueError, match="max_ways"):
            stack_distances(trace([0, 1]), 0, 4)

    def test_edge_sets_are_accepted(self):
        # Sets 0 and nsets - 1 are the first and last stacks of the buffer.
        got = stack_distances(trace([0, 3, 0, 3]), 2, 4)
        assert got.tolist() == [COLD] * 4


class TestGroupingChecks:
    def test_zero_mshrs_is_rejected_before_the_call(self, monkeypatch):
        monkeypatch.setattr(mlp, "_kernel", _NoCall())
        with pytest.raises(ValueError, match="mshrs"):
            leading_miss_groups(np.arange(3.0), np.arange(3), 10.0, 0)

    def test_column_lengths_must_agree_before_the_call(self, monkeypatch):
        monkeypatch.setattr(mlp, "_kernel", _NoCall())
        system = default_system(4)
        with pytest.raises(ValueError, match="one distance and one chain per miss"):
            mlp_grid(system, np.full(3, COLD), np.arange(3.0), np.arange(2), 0.5)

    def test_nan_position_is_rejected_before_the_call(self, monkeypatch):
        monkeypatch.setattr(mlp, "_kernel", _NoCall())
        with pytest.raises(ValueError, match="non-decreasing"):
            leading_miss_groups(np.array([0.0, np.nan, 2.0]), np.arange(3), 10.0, 4)


@st.composite
def extreme_chain_streams(draw):
    """Miss streams whose chain ids sit at both ends of the int64 range,
    so a kernel that offset, hashed or narrowed them would split or merge
    chains the oracle keeps apart."""
    n = draw(st.integers(1, 200))
    ids = draw(
        st.lists(
            st.sampled_from(
                [INT64_MIN, INT64_MIN + 1, -(2**40), -7, -1, 0, INT64_MAX - 1, INT64_MAX]
            ),
            min_size=n,
            max_size=n,
        )
    )
    gaps = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    pos = np.cumsum(np.asarray(gaps, dtype=np.float64))
    window = draw(st.sampled_from([0.0, 1.0, 4.5, 16.0, 1e9]))
    mshrs = draw(st.integers(1, 10))
    return pos, np.asarray(ids, dtype=np.int64), window, mshrs


class TestExtremeChainIds:
    @settings(max_examples=150, deadline=None)
    @given(extreme_chain_streams())
    def test_matches_greedy_loop(self, stream):
        pos, chains, window, mshrs = stream
        assert leading_miss_groups(pos, chains, window, mshrs) == greedy_groups(
            pos, chains, window, mshrs
        )

    def test_ends_of_the_range_are_different_chains(self):
        pos = np.zeros(4)
        chains = np.array([INT64_MIN, INT64_MAX, -1, 0], dtype=np.int64)
        assert leading_miss_groups(pos, chains, 10.0, 8) == 1
        chains = np.array([INT64_MAX, INT64_MIN, INT64_MAX, -1], dtype=np.int64)
        assert leading_miss_groups(pos, chains, 10.0, 8) == 2
        assert greedy_groups(pos, chains, 10.0, 8) == 2


class TestWidestGrid:
    """``mlp_grid`` on the 1024-way LLC of a 256-core system equals the
    per-allocation oracle byte for byte."""

    def _check(self, dists, seed):
        system = default_system(256)
        assert system.llc.ways == 1024
        rng = np.random.default_rng(seed)
        n = len(dists)
        pos = np.cumsum(rng.integers(0, 40, n)).astype(float)
        chains = np.cumsum(rng.random(n) < 0.6) - n // 2  # negative ids too
        args = (system, dists.astype(np.int32), pos, chains, 0.7)
        assert mlp_grid(*args).tobytes() == per_allocation_grid(*args).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_capped_streams_whose_distance_w_miss_lies_beyond_the_cap(self, seed):
        rng = np.random.default_rng(seed)
        n = MAX_MISSES_SAMPLED + 4000
        levels = [5, 300, 700, 1024, 1025, COLD]
        dists = rng.choice(levels, size=n, p=[0.02, 0.03, 0.05, 0.05, 0.05, 0.8])
        # Past the cap of the widest streams: distances that change no
        # capped stream at their allocation.
        tail = np.arange(MAX_MISSES_SAMPLED + 2000, n)
        dists[tail] = rng.integers(2, 1025, len(tail))
        streams = [np.flatnonzero(dists > w)[:MAX_MISSES_SAMPLED] for w in range(1, 1025)]
        assert len(streams[-1]) == MAX_MISSES_SAMPLED  # capped at every allocation
        beyond = [
            w
            for w in range(2, 1025)
            if np.any(dists == w) and not np.any(dists[streams[w - 2]] == w)
        ]
        assert len(beyond) > 500  # the distance-w miss only lies past the cap
        self._check(dists, seed)

    def test_uncapped_streams_that_empty_before_the_last_way(self):
        rng = np.random.default_rng(7)
        dists = rng.integers(1, 900, 4000)  # every stream empty from w = 899 on
        self._check(dists, 7)
