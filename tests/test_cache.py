"""Tests for the cache substrate: ATD stack distances and profiles, UCP.

Includes the load-bearing cross-validations: the dominance-count stack
distances are byte-identical to the per-set MRU walk, and their counts
reproduce, for *every* way allocation at once, exactly what the direct LRU
cache model measures one allocation at a time (Mattson's inclusion
property).  Both references live in ``tests/oracles/lru_stack.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.atd import COLD, atd_profile, miss_curve_mpki, stack_distances
from repro.cache.ucp import ucp_lookahead, ucp_optimal
from repro.workloads.address_gen import STREAM_BASE, AccessTrace, generate_trace
from tests.oracles.lru_stack import LRUSetCache
from tests.oracles.lru_stack import stack_distances as walk_distances
from tests.test_phases import make_spec


def trace_from_lines(line_ids, nsets=1) -> AccessTrace:
    n = len(line_ids)
    return AccessTrace(
        set_ids=np.zeros(n, dtype=np.int32),
        line_ids=np.asarray(line_ids, dtype=np.int64),
        instr_pos=np.arange(1.0, n + 1.0) * 40.0,
        chain_ids=np.arange(n, dtype=np.int64),
        instructions=n * 40.0,
    )


class TestLRUSetCache:
    def test_hit_after_insert(self):
        c = LRUSetCache(nsets=1, ways=2)
        assert c.access(0, 1) is False
        assert c.access(0, 1) is True
        assert (c.hits, c.misses) == (1, 1)

    def test_lru_eviction_order(self):
        c = LRUSetCache(nsets=1, ways=2)
        c.access(0, 1)
        c.access(0, 2)
        c.access(0, 1)  # 1 becomes MRU; LRU is 2
        c.access(0, 3)  # evicts 2
        assert c.access(0, 2) is False
        assert c.resident_lines(0)[0] == 2

    def test_sets_independent(self):
        c = LRUSetCache(nsets=2, ways=1)
        c.access(0, 1)
        c.access(1, 1)
        assert c.access(0, 1) is True
        assert c.access(1, 1) is True

    def test_reset_counters(self):
        c = LRUSetCache(1, 1)
        c.access(0, 1)
        c.reset_counters()
        assert (c.hits, c.misses) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUSetCache(0, 1)
        with pytest.raises(ValueError):
            LRUSetCache(1, 0)


class TestStackDistances:
    def test_hand_computed(self):
        # stream: a b a c b a  (one set)
        t = trace_from_lines([10, 11, 10, 12, 11, 10])
        d = stack_distances(t, max_ways=4, nsets=1)
        assert d[0] == COLD          # a cold
        assert d[1] == COLD          # b cold
        assert d[2] == 2             # a: {b} between -> distance 2
        assert d[3] == COLD          # c cold
        assert d[4] == 3             # b: {a, c} -> 3
        assert d[5] == 3             # a: {b, c} -> 3

    def test_repeated_access_distance_one(self):
        t = trace_from_lines([5, 5, 5])
        d = stack_distances(t, 4, 1)
        assert list(d[1:]) == [1, 1]

    def test_beyond_max_ways_is_cold(self):
        t = trace_from_lines([1, 2, 3, 1])  # distance of final access = 3
        d = stack_distances(t, max_ways=2, nsets=1)
        assert d[3] == COLD

    def test_atd_matches_direct_lru_every_way(self):
        """Inclusion property: one ATD pass == per-way LRU simulations."""
        trace = generate_trace(make_spec(), nsets=4, accesses_per_set=300)
        dists = stack_distances(trace, 8, 4)
        profile = atd_profile(dists, 8, trace.instructions)
        for ways in (1, 2, 4, 8):
            cache = LRUSetCache(nsets=4, ways=ways)
            for s, l in zip(trace.set_ids.tolist(), trace.line_ids.tolist()):
                cache.access(s, l)
            assert cache.misses == profile.misses[ways - 1], f"ways={ways}"


@st.composite
def multi_set_traces(draw):
    """Streams over 1..64 sets whose line ids recur across sets and streams."""
    nsets = draw(st.integers(1, 64))
    n = draw(st.integers(0, 2000))
    seed = draw(st.integers(0, 2**32 - 1))
    pool = draw(st.integers(1, 400))
    stream_frac = draw(st.sampled_from([0.0, 0.1, 0.6]))
    rng = np.random.default_rng(seed)
    set_ids = rng.integers(0, nsets, n).astype(np.int32)
    # One pool of line ids shared by every set, as generate_trace draws them.
    line_ids = rng.integers(0, pool, n).astype(np.int64)
    stream = rng.random(n) < stream_frac
    line_ids[stream] = STREAM_BASE + np.arange(int(stream.sum()))
    trace = AccessTrace(
        set_ids=set_ids,
        line_ids=line_ids,
        instr_pos=np.arange(1.0, n + 1.0),
        chain_ids=np.arange(n, dtype=np.int64),
        instructions=float(max(n, 1)),
    )
    return trace, nsets


class TestWalkEquivalence:
    """The dominance-count distances equal the per-set MRU walk byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(multi_set_traces(), st.integers(1, 300))
    def test_matches_walk(self, case, max_ways):
        trace, nsets = case
        got = stack_distances(trace, max_ways, nsets)
        assert got.tobytes() == walk_distances(trace, max_ways, nsets).tobytes()

    @pytest.mark.parametrize("max_ways", [1, 16, 32, 256])
    @pytest.mark.parametrize("accesses_per_set", [400, 1200])
    def test_generated_trace(self, max_ways, accesses_per_set):
        spec = make_spec(working_sets=((40, 0.5), (900, 0.5)), streaming_frac=0.2)
        trace = generate_trace(spec, 64, accesses_per_set, seed_parts=("walk",))
        got = stack_distances(trace, max_ways, 64)
        assert got.tobytes() == walk_distances(trace, max_ways, 64).tobytes()

    def test_empty_trace(self):
        t = trace_from_lines([])
        assert stack_distances(t, 4, 1).shape == (0,)

    def test_line_ids_shared_across_sets_are_distinct_lines(self):
        # Line 7 in set 0 and line 7 in set 1 are different cache lines.
        t = AccessTrace(
            set_ids=np.array([0, 1, 0, 1], dtype=np.int32),
            line_ids=np.array([7, 7, 7, 7], dtype=np.int64),
            instr_pos=np.arange(1.0, 5.0),
            chain_ids=np.arange(4, dtype=np.int64),
            instructions=4.0,
        )
        assert list(stack_distances(t, 4, 2)) == [COLD, COLD, 1, 1]


class TestATDProfile:
    def _profile(self):
        trace = generate_trace(make_spec(), nsets=4, accesses_per_set=200)
        dists = stack_distances(trace, 8, 4)
        return atd_profile(dists, 8, trace.instructions), trace

    def test_counts_conserved(self):
        profile, trace = self._profile()
        assert profile.hits_at_distance.sum() + profile.misses[-1] == trace.n_accesses

    def test_miss_curve_monotone_nonincreasing(self):
        profile, _ = self._profile()
        assert np.all(np.diff(profile.misses) <= 0)

    def test_hit_curve_monotone_nondecreasing(self):
        profile, _ = self._profile()
        assert np.all(np.diff(profile.hit_curve()) >= 0)

    def test_mpki_scaling(self):
        profile, trace = self._profile()
        np.testing.assert_allclose(
            profile.mpki(), profile.misses / trace.instructions * 1000.0
        )

    def test_apki(self):
        profile, trace = self._profile()
        assert profile.apki() == pytest.approx(
            trace.n_accesses / trace.instructions * 1000.0
        )

    def test_sampling_scale_extrapolates_rates(self):
        """Sampled-set MPKI (with scale) approximates full-trace MPKI."""
        trace = generate_trace(make_spec(), nsets=16, accesses_per_set=400)
        dists = stack_distances(trace, 8, 16)
        full = atd_profile(dists, 8, trace.instructions).mpki()
        mask = trace.set_ids < 4
        sampled = atd_profile(dists[mask], 8, trace.instructions, scale=4 / 16).mpki()
        np.testing.assert_allclose(sampled, full, rtol=0.25)

    def test_miss_curve_mpki_convenience(self):
        trace = generate_trace(make_spec(), nsets=4, accesses_per_set=100)
        curve = miss_curve_mpki(trace, 8, 4)
        assert curve.shape == (8,)
        assert np.all(np.diff(curve) <= 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=200))
    def test_property_inclusion_on_arbitrary_streams(self, lines):
        """Mattson inclusion holds for arbitrary single-set streams."""
        t = trace_from_lines(lines)
        d = stack_distances(t, 8, 1)
        profile = atd_profile(d, 8, t.instructions)
        assert np.all(np.diff(profile.misses) <= 0)
        assert profile.hits_at_distance.sum() + profile.misses[-1] == len(lines)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=120), st.integers(1, 6))
    def test_property_atd_equals_lru(self, lines, ways):
        t = trace_from_lines(lines)
        d = stack_distances(t, 6, 1)
        profile = atd_profile(d, 6, t.instructions)
        cache = LRUSetCache(1, ways)
        for line in lines:
            cache.access(0, line)
        assert cache.misses == profile.misses[min(ways, 6) - 1]


#: Greedy lookahead's worst total over the optimum across the whole domain
#: of ``test_lookahead_close_to_optimal`` (``napps`` 2..4 x ``seed``
#: 0..10,000, 8 ways): 0.704852 at ``(2, 4901)``, rounded down.
LOOKAHEAD_ENVELOPE = 0.7048
UCP_NAPPS = range(2, 5)
UCP_SEEDS = range(0, 10_001)


class TestUCP:
    def _random_curves(self, rng, napps, ways, concave=False):
        curves = []
        for _ in range(napps):
            gains = rng.random(ways) * rng.random()
            if concave:
                gains = np.sort(gains)[::-1]
            curves.append(np.cumsum(gains))
        return curves

    def _totals(self, napps, seed, concave=False):
        """(lookahead total, optimal total) over one seeded set of curves."""
        ways = 8
        curves = self._random_curves(np.random.default_rng(seed), napps, ways, concave)
        greedy = ucp_lookahead(curves, ways)
        exact = ucp_optimal(curves, ways)
        assert sum(greedy) == ways and sum(exact) == ways
        g = sum(c[w - 1] for c, w in zip(curves, greedy))
        e = sum(c[w - 1] for c, w in zip(curves, exact))
        return g, e

    def test_allocates_all_ways(self):
        rng = np.random.default_rng(1)
        curves = self._random_curves(rng, 4, 16)
        alloc = ucp_lookahead(curves, 16)
        assert sum(alloc) == 16
        assert all(w >= 1 for w in alloc)

    def test_prefers_high_utility_app(self):
        flat = np.full(8, 1.0).cumsum() * 0.001
        steep = np.full(8, 1.0).cumsum()
        alloc = ucp_lookahead([flat, steep], 8)
        assert alloc[1] > alloc[0]

    def test_optimal_matches_bruteforce_small(self):
        rng = np.random.default_rng(2)
        curves = self._random_curves(rng, 2, 6)
        alloc = ucp_optimal(curves, 6)
        best = max(
            ((w, 6 - w) for w in range(1, 6)),
            key=lambda a: curves[0][a[0] - 1] + curves[1][a[1] - 1],
        )
        got = curves[0][alloc[0] - 1] + curves[1][alloc[1] - 1]
        want = curves[0][best[0] - 1] + curves[1][best[1] - 1]
        assert got == pytest.approx(want)

    @settings(max_examples=30, deadline=None)
    @example(2, 4901)  # the domain's worst: greedy reaches 70.49% of optimal
    @example(3, 8242)  # the only other input under 75%: 74.77%
    @example(4, 834)  # the worst with four apps: 84.0%
    @given(st.sampled_from(UCP_NAPPS), st.sampled_from(UCP_SEEDS))
    def test_lookahead_close_to_optimal(self, napps, seed):
        """Greedy lookahead stays within the domain's envelope of optimal.

        The random gain curves are deliberately non-concave, where greedy
        carries no constant-factor guarantee (Qureshi-Patt chose lookahead
        empirically).  :data:`LOOKAHEAD_ENVELOPE` is the measured minimum
        over every input this test can draw (the sweep below re-measures
        it), so no draw can fail on working code.
        """
        g, e = self._totals(napps, seed)
        assert g <= e + 1e-9
        assert g >= LOOKAHEAD_ENVELOPE * e - 1e-9

    def test_lookahead_envelope_is_the_domain_minimum(self):
        """Every input of the check above meets the envelope, and the
        envelope is tight: the worst input lands within 1e-4 of it."""
        worst = min(
            (g / e, napps, seed)
            for napps in UCP_NAPPS
            for seed in UCP_SEEDS
            for g, e in [self._totals(napps, seed)]
        )
        assert worst[1:] == (2, 4901)
        assert LOOKAHEAD_ENVELOPE <= worst[0] < LOOKAHEAD_ENVELOPE + 1e-4

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(UCP_NAPPS), st.sampled_from(UCP_SEEDS))
    def test_lookahead_is_optimal_on_concave_curves(self, napps, seed):
        """With diminishing gains (sorted, decreasing), greedy lookahead is
        the marginal-utility greedy, which is optimal: its total equals the
        exact allocation's (exactly, on all 30,003 inputs of the domain)."""
        g, e = self._totals(napps, seed, concave=True)
        assert g == e

    def test_min_ways_respected(self):
        rng = np.random.default_rng(3)
        curves = self._random_curves(rng, 3, 12)
        alloc = ucp_lookahead(curves, 12, min_ways=2)
        assert all(w >= 2 for w in alloc)

    def test_rejects_insufficient_ways(self):
        with pytest.raises(ValueError):
            ucp_lookahead([np.ones(4)] * 4, 3)
