"""Unit suite for the self-healing substrate: fault plans, backoff, breaker.

Covers the deterministic :class:`~repro.service.faults.FaultPlan` (pure
``(seed, site, invocation)`` decisions, fire budgets, plan validation, the
process-global install seam into the results store), the deterministic
capped-exponential backoff helper, :class:`~repro.service.executor.
CircuitBreaker` state transitions, and :class:`~repro.service.executor.
FailoverExecutor` routing with stub executors.

The end-to-end storms (faults driven through a real service) live in
``tests/test_service_chaos.py``; the CI chaos gate in ``tools/chaos_smoke.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import executor as executor_mod
from repro.service import faults
from repro.service.executor import CircuitBreaker, FailoverExecutor, make_executor
from repro.simulation import results_store as results_store_mod
from repro.util.backoff import backoff_delay, backoff_schedule


def _crash_plan(seed, rate=0.5, max_fires=3):
    return faults.FaultPlan(
        seed, [faults.FaultRule(faults.EXECUTOR_CRASH, rate=rate, max_fires=max_fires)]
    )


class TestFaultPlan:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_decisions_are_a_pure_function_of_seed_and_count(self, seed):
        a, b = _crash_plan(seed), _crash_plan(seed)
        seq_a = [a.fire(faults.EXECUTOR_CRASH) is not None for _ in range(32)]
        seq_b = [b.fire(faults.EXECUTOR_CRASH) is not None for _ in range(32)]
        assert seq_a == seq_b

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_budget_is_never_exceeded(self, seed):
        plan = _crash_plan(seed, rate=1.0, max_fires=2)
        fires = sum(plan.fire(faults.EXECUTOR_CRASH) is not None for _ in range(20))
        assert fires == 2  # rate 1.0: fires exactly until the budget is spent
        assert sum(site["fires"] for site in plan.report().values()) == 2
        assert plan.report()[faults.EXECUTOR_CRASH] == {"invocations": 20, "fires": 2}

    def test_seeds_decorrelate(self):
        """Different seeds produce different fire sequences (for some pair)."""
        seqs = set()
        for seed in range(8):
            plan = _crash_plan(seed, rate=0.5, max_fires=None)
            seqs.add(
                tuple(plan.fire(faults.EXECUTOR_CRASH) is not None for _ in range(16))
            )
        assert len(seqs) > 1

    def test_sites_decorrelate(self):
        plan = faults.FaultPlan(
            7,
            [
                faults.FaultRule(faults.EXECUTOR_CRASH, rate=0.5),
                faults.FaultRule(faults.EXECUTOR_HANG, rate=0.5),
            ],
        )
        a = [plan.fire(faults.EXECUTOR_CRASH) is not None for _ in range(32)]
        b = [plan.fire(faults.EXECUTOR_HANG) is not None for _ in range(32)]
        assert a != b

    def test_unruled_site_never_fires(self):
        plan = _crash_plan(3)
        assert all(plan.fire(faults.STORE_PUT_FAIL) is None for _ in range(10))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.FaultRule("warp.core", rate=0.5)
        with pytest.raises(ValueError, match="rate"):
            faults.FaultRule(faults.EXECUTOR_CRASH, rate=1.5)
        with pytest.raises(ValueError, match="max_fires"):
            faults.FaultRule(faults.EXECUTOR_CRASH, rate=0.5, max_fires=-1)
        rule = faults.FaultRule(faults.EXECUTOR_CRASH, rate=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            faults.FaultPlan(0, [rule, rule])

    def test_failure_budget_sums_crash_and_hang(self):
        plan = faults.FaultPlan(
            0,
            [
                faults.FaultRule(faults.EXECUTOR_CRASH, rate=1.0, max_fires=2),
                faults.FaultRule(faults.EXECUTOR_HANG, rate=1.0, max_fires=1),
                faults.FaultRule(faults.STORE_PUT_FAIL, rate=1.0, max_fires=99),
            ],
        )
        assert plan.failure_budget() == 3
        unbounded = _crash_plan(0, max_fires=None)
        assert unbounded.failure_budget() is None

    def test_install_plugs_the_store_seam(self):
        plan = faults.FaultPlan(
            5, [faults.FaultRule(faults.STORE_LOAD_CORRUPT, rate=1.0, max_fires=1)]
        )
        assert faults.active() is None
        assert results_store_mod.FAULT_HOOK is None
        with faults.installed(plan):
            assert faults.active() is plan
            assert results_store_mod.FAULT_HOOK == plan.fire  # bound method equality
            assert faults.fire(faults.STORE_LOAD_CORRUPT) is not None
        assert faults.active() is None
        assert results_store_mod.FAULT_HOOK is None
        # With no plan installed, every site is a no-op.
        assert faults.fire(faults.EXECUTOR_CRASH) is None


class TestBackoff:
    def test_deterministic_per_key(self):
        a = backoff_schedule(5, key=("job-a",))
        b = backoff_schedule(5, key=("job-a",))
        assert a == b
        assert backoff_schedule(5, key=("job-b",)) != a

    def test_exponential_shape_and_cap(self):
        raw = backoff_schedule(8, base_s=0.05, cap_s=0.4, jitter=0.0)
        assert raw[:4] == [0.05, 0.1, 0.2, 0.4]
        assert all(d == 0.4 for d in raw[3:])  # capped from attempt 4 on

    @given(
        attempt=st.integers(min_value=1, max_value=12),
        seedkey=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_jitter_stays_within_the_documented_band(self, attempt, seedkey):
        raw = backoff_delay(attempt, jitter=0.0)
        jittered = backoff_delay(attempt, jitter=0.5, key=(seedkey,))
        assert 0.5 * raw <= jittered <= raw

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="1-based"):
            backoff_delay(0)
        with pytest.raises(ValueError, match="jitter"):
            backoff_delay(1, jitter=1.5)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        b = CircuitBreaker(trip_after=3, cooldown_jobs=4)
        b.record_failure()
        b.record_failure()
        b.record_success()  # resets the streak
        b.record_failure()
        b.record_failure()
        assert b.state == CircuitBreaker.CLOSED
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN
        assert b.trips == 1

    def test_cooldown_then_half_open_probe_success_closes(self):
        b = CircuitBreaker(trip_after=1, cooldown_jobs=3)
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN
        assert [b.allow_primary() for _ in range(2)] == [False, False]
        assert b.allow_primary()  # cooldown spent: this caller probes
        assert b.state == CircuitBreaker.HALF_OPEN and b.probes == 1
        assert not b.allow_primary()  # only one probe at a time
        b.record_success()
        assert b.state == CircuitBreaker.CLOSED
        assert b.allow_primary()

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        b = CircuitBreaker(trip_after=1, cooldown_jobs=2)
        b.record_failure()
        assert not b.allow_primary()
        assert b.allow_primary()  # probe
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN and b.trips == 2
        assert not b.allow_primary()  # cooldown restarts from zero
        assert b.allow_primary()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            CircuitBreaker(trip_after=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_jobs=0)


class _StubExecutor:
    """Scripted executor: raises while ``failures`` remain, then returns."""

    def __init__(self, name, failures=0, result="ok"):
        self.name = name
        self.failures = failures
        self.result = result
        self.runs = 0
        self.recycled = 0
        self.closed = False

    def run(self, ctx, job_id, item, manager):
        self.runs += 1
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError(f"{self.name} down")
        return self.result

    def recycle(self, ctx):
        self.recycled += 1

    def close(self):
        self.closed = True


class TestFailoverExecutor:
    def test_degrades_to_fallback_after_trip_and_recovers(self):
        primary = _StubExecutor("primary", failures=2)
        fallback = _StubExecutor("fallback")
        failover = FailoverExecutor(primary, fallback, trip_after=2, cooldown_jobs=3)
        for _ in range(2):  # two consecutive primary deaths trip the breaker
            with pytest.raises(RuntimeError, match="primary down"):
                failover.run(None, "k", None, None)
        assert failover.breaker.state == CircuitBreaker.OPEN
        # Open: jobs degrade to the fallback (results still served).
        assert failover.run(None, "k1", None, None) == "ok"
        assert failover.run(None, "k2", None, None) == "ok"
        assert fallback.runs == 2 and failover.fallback_runs == 2
        # Cooldown spent: the third routed job probes the (healthy) primary.
        assert failover.run(None, "k3", None, None) == "ok"
        assert primary.runs == 3
        assert failover.breaker.state == CircuitBreaker.CLOSED

    def test_recycle_and_close_delegate(self):
        primary = _StubExecutor("primary")
        fallback = _StubExecutor("fallback")
        failover = FailoverExecutor(primary, fallback)
        failover.recycle(None)
        assert primary.recycled == 1 and fallback.recycled == 0
        failover.close()
        assert primary.closed and fallback.closed

    def test_make_executor_wraps_process_in_failover(self):
        wrapped = make_executor("process", processes=1)
        try:
            assert isinstance(wrapped, FailoverExecutor)
            assert isinstance(wrapped.primary, executor_mod.ProcessPoolExecutor)
            assert wrapped.processes == 1
        finally:
            wrapped.close()
