"""Bit-identity of the compiled curve-construction pipeline.

The managers build every curve in one compiled ``curve_chain`` call
(:func:`repro.core.local_opt.local_optimize_batch`, driven by
:mod:`repro.core.batch_opt`).  Its grids, QoS targets and curves must equal
the per-core NumPy chain of ``tests/oracles/model_chain.py`` with ``==``
and byte for byte -- same operation order, same argmin tie-breaking (and
NaN rule), same metered charges.  The grids and targets are read from the
scratch the call is handed.  The memoization tests pin the staleness
contract: a hit may only be served while the digest key -- counter
snapshot, sampled ATD curves, QoS slack -- is unchanged, so QoS ramps and
tenant swaps always recompute; the repeat tests pin the identity check in
front of it; the shared-table test pins one curve object per content
across cores.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Allocation
from repro.core import managers
from repro.core.batch_opt import analytical_curves_batch, model_rows, oracle_curves_batch
from repro.core.history import rm2_history
from repro.core.local_opt import ROW_FIELDS, DimSpec, local_optimize_batch
from repro.core.managers import rm2_combined
from repro.core.models import MLP_MODELS
from repro.core.overhead_meter import OverheadMeter
from repro.cpu.counters import observe_counters
from repro.experiments.runner import rm2_clustered
from repro.scenarios import cluster_churn, poisson_arrivals
from repro.simulation.rma_sim import RMASimulator
from tests.conftest import TEST_BENCHMARKS
from tests.oracles.change_sets import fold
from tests.oracles.leaf_install import same_curve
from tests.oracles.model_chain import (
    exec_cpi_estimate,
    local_optimize,
    predict_epi_grid,
    predict_tpi_grid,
    qos_target_tpi,
)
from tests.oracles.reference_manager import reference
from tests.test_clustered import assert_same_numbers

TARGET = ROW_FIELDS.index("target")


def _stats(system, db, seed, n):
    """(records, snapshots) for ``n`` cores at varied phases/allocations."""
    rng = np.random.default_rng(seed)
    recs, snaps = [], []
    for _ in range(n):
        bench = TEST_BENCHMARKS[rng.integers(len(TEST_BENCHMARKS))]
        seq = db.phase_sequence(bench)
        rec = db.record(bench, seq[rng.integers(len(seq))])
        alloc = Allocation(
            core=int(rng.integers(system.ncore_sizes)),
            freq=int(rng.integers(system.vf.nlevels)),
            ways=int(rng.integers(1, system.llc.ways + 1)),
        )
        recs.append(rec)
        snaps.append(observe_counters(system, rec, alloc))
    return recs, snaps


DIMS_CASES = [
    ("rm1", DimSpec(core_indices=(1,), freq_indices=(12,))),
    ("rm2", DimSpec(core_indices=(1,))),
    ("rm3", DimSpec()),
    ("dvfs-only", DimSpec(core_indices=(1,), pin_ways=4)),
]


def compiled_chain(system, model, snaps, mpki, mlp, slacks, dims, pins=None, meter=None):
    """One compiled call over handed scratch: ``(curves, grids, rows)``."""
    rows = model_rows(system, model, snaps, mpki, mlp, slacks, pins)
    n = len(snaps)
    grids = np.empty((2, n, system.ncore_sizes, system.vf.nlevels, system.llc.ways))
    curves = local_optimize_batch(system, rows, grids, dims, meter)
    return curves, grids, rows


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_same_values(a, b):
    """Byte equality off the NaN cells, NaN where NaN.  IEEE 754 leaves
    open which NaN an operation on two NaNs returns, and the compiler may
    commute an add, so NaN payloads are not compared."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(b)
    assert np.array_equal(np.isnan(a), nan)
    assert_same_bytes(a[~nan], b[~nan])


def assert_same_curves(batched, looped, nan_payload=True):
    assert len(batched) == len(looped)
    for a, b in zip(batched, looped):
        assert np.array_equal(a.epi, b.epi, equal_nan=True)
        assert np.array_equal(a.freq_idx, b.freq_idx)
        assert np.array_equal(a.core_idx, b.core_idx)
        (assert_same_bytes if nan_payload else assert_same_values)(a.epi, b.epi)
        assert_same_bytes(a.freq_idx, b.freq_idx)
        assert_same_bytes(a.core_idx, b.core_idx)


class TestBatchedPredictions:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_exec_cpi_rows_equal_scalar(self, system4, db4, seed, n):
        """With a zero miss curve the TPI grid is ``exec_cpi(c) / f``
        exactly (``x + 0.0 == x``), so it exposes the compiled rescale."""
        recs, snaps = _stats(system4, db4, seed, n)
        zeros = [np.zeros(system4.llc.ways)] * n
        _, grids, _ = compiled_chain(
            system4, MLP_MODELS["model2"], snaps, zeros, [r.mlp_sampled for r in recs],
            [0.0] * n, DimSpec(),
        )
        freqs = system4.vf.freqs_array()
        for i, snap in enumerate(snaps):
            want = exec_cpi_estimate(system4, snap)[:, None] / freqs[None, :]
            assert np.array_equal(grids[0, i], np.repeat(want[:, :, None], 16, axis=2))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_tpi_and_epi_slices_equal_scalar(self, system4, db4, seed, n):
        recs, snaps = _stats(system4, db4, seed, n)
        model = MLP_MODELS["model3"]
        _, grids, _ = compiled_chain(
            system4, model, snaps, [r.mpki_sampled for r in recs],
            [r.mlp_sampled for r in recs], [0.0] * n, DimSpec(),
        )
        for i, (rec, snap) in enumerate(zip(recs, snaps)):
            mlp_hat = model.mlp_hat(system4, snap, rec.mlp_sampled)
            tpi = predict_tpi_grid(system4, snap, rec.mpki_sampled, mlp_hat)
            assert np.array_equal(grids[0, i], tpi)
            epi = predict_epi_grid(system4, snap, rec.mpki_sampled, tpi)
            assert np.array_equal(grids[1, i], epi)


def _oracle_chain(system, model, rec, snap, slack, dims, meter=None):
    """The per-core reference: ``(tpi, epi, target, curve)``."""
    mlp_hat = model.mlp_hat(system, snap, rec.mlp_sampled)
    tpi = predict_tpi_grid(system, snap, rec.mpki_sampled, mlp_hat)
    epi = predict_epi_grid(system, snap, rec.mpki_sampled, tpi)
    target = qos_target_tpi(system, tpi, slack)
    return tpi, epi, target, local_optimize(system, tpi, epi, target, dims, meter)


def _check_nan_case(system, model, recs, snaps, mpki, mlp):
    """Every grid, target and curve of the compiled chain over NaN-making
    inputs against the oracle's NumPy semantics, for every DIMS_CASES entry."""
    slacks = [0.0, 0.1, 0.0]
    for _, dims in DIMS_CASES:
        curves, grids, rows = compiled_chain(system, model, snaps, mpki, mlp, slacks, dims)
        for i, snap in enumerate(snaps):
            rec = dataclasses.replace(recs[i], mpki_sampled=mpki[i], mlp_sampled=mlp[i])
            with np.errstate(invalid="ignore"):
                tpi, epi, target, curve = _oracle_chain(system, model, rec, snap, slacks[i], dims)
            assert_same_values(grids[0, i], tpi)
            assert_same_values(grids[1, i], epi)
            assert_same_values(rows[i, TARGET], target)
            assert_same_curves([curves[i]], [curve], nan_payload=False)


class TestChainIdentity:
    """The compiled chain against the NumPy oracle, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        model=st.sampled_from(sorted(MLP_MODELS)),
        case=st.sampled_from(DIMS_CASES),
        slack_choices=st.lists(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.5]), min_size=8,
                               max_size=8),
        pin=st.booleans(),
    )
    def test_chain_equals_oracle(self, system4, db4, seed, n, model, case, slack_choices,
                                 pin):
        model = MLP_MODELS[model]
        _, dims = case
        recs, snaps = _stats(system4, db4, seed, n)
        slacks = slack_choices[:n]
        pins = None
        if pin:
            pins = np.random.default_rng(seed).integers(1, 17, n).tolist()
        meter = OverheadMeter()
        curves, grids, rows = compiled_chain(
            system4, model, snaps, [r.mpki_sampled for r in recs],
            [r.mlp_sampled for r in recs], slacks, dims, pins, meter,
        )
        want_meter = OverheadMeter()
        for i, (rec, snap) in enumerate(zip(recs, snaps)):
            core_dims = dims if pins is None else dataclasses.replace(dims, pin_ways=pins[i])
            tpi, epi, target, curve = _oracle_chain(
                system4, model, rec, snap, slacks[i], core_dims, want_meter
            )
            assert_same_bytes(grids[0, i], tpi)
            assert_same_bytes(grids[1, i], epi)
            assert rows[i, TARGET] == target
            assert_same_curves([curves[i]], [curve])
        assert meter.grid_points == want_meter.grid_points
        assert meter.instructions == want_meter.instructions

    def test_all_infeasible_column_keeps_index_zero(self, system4):
        """An all-infeasible way count: +inf at the first chosen core size
        and VF (``np.argmin`` of an all-``inf`` column is 0)."""
        rng = np.random.default_rng(5)
        shape = (system4.ncore_sizes, system4.vf.nlevels, system4.llc.ways)
        tpi = rng.uniform(1.0, 2.0, (1, *shape))
        tpi[0, :, :, 0] = 10.0  # above any target at way count 1
        epi = rng.uniform(0.5, 3.0, (1, *shape))
        grids = np.stack([tpi, epi])
        dims = DimSpec(core_indices=(2, 0), freq_indices=(7, 3, 20))
        rows = np.zeros((1, len(ROW_FIELDS)))
        (curve,) = local_optimize_batch(system4, rows, grids, dims)
        target = qos_target_tpi(system4, tpi[0], 0.0)
        assert rows[0, TARGET] == target
        want = local_optimize(system4, tpi[0], epi[0], target, dims)
        assert_same_curves([curve], [want])
        assert curve.epi[0] == np.inf
        assert (curve.core_idx[0], curve.freq_idx[0]) == (2, 7)
        assert np.isfinite(curve.epi).any()

    def test_nan_inputs_follow_numpy(self, system4, db4):
        """``mlp`` 0 with ``mpki`` 0 gives a NaN TPI (0/0), a NaN exec CPI
        survives ``np.maximum``, and a NaN EPI at a feasible point is
        ``np.argmin``'s first NaN."""
        recs, snaps = _stats(system4, db4, seed=3, n=3)
        model = MLP_MODELS["model3"]
        mpki = [np.array(r.mpki_sampled, dtype=float) for r in recs]
        mlp = [np.array(r.mlp_sampled, dtype=float) for r in recs]
        mpki[0][[2, system4.baseline_ways - 1]] = 0.0  # 0/0 at a way and at the anchor
        mlp[0][:, [2, system4.baseline_ways - 1]] = 0.0
        mpki[1][5] = 0.0
        mlp[1][0, 5] = 0.0
        snaps[2] = dataclasses.replace(snaps[2], epi_dyn_est_nj=float("nan"))
        nan_cpi = dataclasses.replace(snaps[1], cycles=float("nan"))
        for case_snaps in (snaps, [snaps[0], nan_cpi, snaps[2]]):
            _check_nan_case(system4, model, recs, case_snaps, mpki, mlp)
        _, grids, _ = compiled_chain(
            system4, model, [nan_cpi], [mpki[1]], [mlp[1]], [0.0], DimSpec()
        )
        assert np.isnan(grids[0, 0]).all()  # the NaN exec CPI survives the floor
        (nan_curve,), _, _ = compiled_chain(
            system4, model, [snaps[2]], [mpki[2]], [mlp[2]], [0.0], DimSpec()
        )
        assert np.isnan(nan_curve.epi).any()

    def test_rejects_ilp_outside_unit_interval(self, system4, db4):
        recs, snaps = _stats(system4, db4, seed=1, n=2)
        for ilp in (1.5, -0.1, float("nan")):
            bad = [snaps[0], dataclasses.replace(snaps[1], ilp_index_est=ilp)]
            with pytest.raises(ValueError, match=r"ilp_sensitivity must be in \[0, 1\]"):
                analytical_curves_batch(
                    system4, MLP_MODELS["model2"], bad,
                    [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
                    [0.0, 0.0], DimSpec(),
                )

    def test_rejects_negative_slack(self, system4, db4):
        recs, snaps = _stats(system4, db4, seed=2, n=2)
        meter = OverheadMeter()
        with pytest.raises(ValueError, match="slack must be non-negative"):
            analytical_curves_batch(
                system4, MLP_MODELS["model2"], snaps,
                [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
                [0.0, -0.1], DimSpec(), meter,
            )
        with pytest.raises(ValueError, match="slack must be non-negative"):
            oracle_curves_batch(system4, recs, [-0.1, 0.0], DimSpec(), meter)
        assert meter.grid_points == 0  # nothing is charged for a rejected batch


class TestConcurrentChains:
    def test_threads_build_the_serial_curves(self, system4, db4):
        """Threads building curves at once through the compiled chain (more
        threads than CPUs, a short switch interval, long batches so the
        calls overlap outside the interpreter lock) each get exactly the
        serial curves: no scratch is shared."""
        model = MLP_MODELS["model3"]
        n = 64
        jobs = []
        for seed in range(12):
            recs, snaps = _stats(system4, db4, seed=100 + seed, n=n)
            jobs.append((snaps, [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
                         [0.0, 0.1] * (n // 2), DIMS_CASES[seed % len(DIMS_CASES)][1]))

        def build(job):
            snaps, mpki, mlp, slacks, dims = job
            curves = analytical_curves_batch(
                system4, model, snaps, mpki, mlp, slacks, dims
            )
            return [(c.epi.tobytes(), c.freq_idx.tobytes(), c.core_idx.tobytes())
                    for c in curves]

        serial = [build(job) for job in jobs]
        nthreads = 4
        results: dict[int, list] = {t: [] for t in range(nthreads)}
        start = threading.Barrier(nthreads)

        def worker(t):
            start.wait()
            order = jobs[t:] + jobs[:t]  # each thread on another job at a time
            for _ in range(25):
                results[t].append([build(job) for job in order])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for t in range(nthreads):
            assert len(results[t]) == 25
            assert all(rounds == serial[t:] + serial[:t] for rounds in results[t])


class TestBatchedCurves:
    @pytest.mark.parametrize("label,dims", DIMS_CASES, ids=[d[0] for d in DIMS_CASES])
    def test_analytical_batch_equals_loop(self, system4, db4, label, dims):
        model = MLP_MODELS["model2"]
        recs, snaps = _stats(system4, db4, seed=7, n=6)
        slacks = [0.0, 0.1, 0.0, 0.2, 0.0, 0.05]
        meter_b, meter_l = OverheadMeter(), OverheadMeter()

        batched = analytical_curves_batch(
            system4, model, snaps,
            [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
            slacks, dims, meter_b,
        )
        looped = []
        for j, (rec, snap) in enumerate(zip(recs, snaps)):
            mlp_hat = model.mlp_hat(system4, snap, rec.mlp_sampled)
            tpi = predict_tpi_grid(system4, snap, rec.mpki_sampled, mlp_hat)
            epi = predict_epi_grid(system4, snap, rec.mpki_sampled, tpi)
            target = qos_target_tpi(system4, tpi, slacks[j])
            looped.append(
                local_optimize(system4, tpi, epi, target, dims, meter_l)
            )
        assert_same_curves(batched, looped)
        assert meter_b.grid_points == meter_l.grid_points
        assert meter_b.instructions == meter_l.instructions

    def test_oracle_batch_equals_loop(self, system4, db4):
        recs, _ = _stats(system4, db4, seed=11, n=5)
        slacks = [0.0, 0.1, 0.0, 0.0, 0.3]
        dims = DimSpec(core_indices=(1,))
        meter_b, meter_l = OverheadMeter(), OverheadMeter()
        batched = oracle_curves_batch(system4, recs, slacks, dims, meter_b)
        looped = [
            local_optimize(
                system4, rec.tpi, rec.epi,
                qos_target_tpi(system4, rec.tpi, slacks[j]), dims, meter_l,
            )
            for j, rec in enumerate(recs)
        ]
        assert_same_curves(batched, looped)
        assert meter_b.instructions == meter_l.instructions

    def test_batch_curves_are_views_of_one_buffer(self, system4, db4):
        """The compiled call hands out row *views*, not per-row copies.

        Each returned curve's arrays must alias one shared batch output
        (``N`` rows, one allocation) -- the copy-free contract the packed
        reduction's ingest relies on -- while staying value-identical to
        the scalar path row by row (over the grids and targets read back
        from the call's scratch).
        """
        model = MLP_MODELS["model2"]
        recs, snaps = _stats(system4, db4, seed=29, n=5)
        dims = DimSpec(core_indices=(1,))
        curves, grids, rows = compiled_chain(
            system4, model, snaps, [r.mpki_sampled for r in recs],
            [r.mlp_sampled for r in recs], [0.0] * 5, dims,
        )
        epi_base = curves[0].epi.base
        assert epi_base is not None  # a view, not an owning copy
        for i, c in enumerate(curves):
            assert c.epi.base is epi_base
            assert c.freq_idx.base is curves[0].freq_idx.base
            assert c.core_idx.base is curves[0].core_idx.base
            assert c.freq_idx.dtype == c.core_idx.dtype == np.int64
            want = local_optimize(
                system4, grids[0, i], grids[1, i], float(rows[i, TARGET]), dims
            )
            assert_same_curves([c], [want])

    def test_per_core_pins_equal_loop(self, system4, db4):
        """The UCP+DVFS manager's per-core fixed partitions."""
        model = MLP_MODELS["model2"]
        recs, snaps = _stats(system4, db4, seed=13, n=4)
        pins = [2, 4, 7, 3]
        base = DimSpec(core_indices=(system4.baseline_core_index,))
        batched = analytical_curves_batch(
            system4, model, snaps,
            [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
            [0.0] * 4, base, None, pin_ways_per_core=pins,
        )
        for j, (rec, snap) in enumerate(zip(recs, snaps)):
            mlp_hat = model.mlp_hat(system4, snap, rec.mlp_sampled)
            tpi = predict_tpi_grid(system4, snap, rec.mpki_sampled, mlp_hat)
            epi = predict_epi_grid(system4, snap, rec.mpki_sampled, tpi)
            target = qos_target_tpi(system4, tpi, 0.0)
            dims = DimSpec(
                core_indices=(system4.baseline_core_index,), pin_ways=pins[j]
            )
            want = local_optimize(system4, tpi, epi, target, dims)
            assert_same_curves([batched[j]], [want])
            assert np.isfinite(batched[j].epi).sum() <= 1


class _StubSim:
    """Minimal manager-facing simulator surface for direct manager tests."""

    def __init__(self, system, recs, snaps, slacks):
        self.system = system
        self.recs = list(recs)
        self.snaps = list(snaps)
        self.slacks = list(slacks)
        #: The allocations the manager's decisions leave behind.
        self.held = {}

    def slack(self, core_id):
        return self.slacks[core_id]

    def is_active(self, core_id):
        return True

    def completed_snapshot(self, core_id):
        return self.snaps[core_id]

    def completed_record(self, core_id):
        return self.recs[core_id]


class TestCurveMemoization:
    def _managers(self, system4, db4, slacks):
        recs, snaps = _stats(system4, db4, seed=21, n=system4.ncores)
        inc, ref = rm2_combined(), reference(rm2_combined())
        inc.attach(_StubSim(system4, recs, snaps, slacks))
        ref.attach(_StubSim(system4, recs, snaps, slacks))
        return inc, ref

    @staticmethod
    def _assert_same_decision(inc, ref, core_id):
        got, want = inc.on_interval(core_id), ref.on_interval(core_id)
        if want is None:
            assert got is None
        assert fold(inc.sim.held, got) == fold(ref.sim.held, want)
        assert inc.meter.instructions == ref.meter.instructions
        assert inc.meter.grid_points == ref.meter.grid_points
        assert inc.meter.dp_cells == ref.meter.dp_cells

    def test_stable_stats_hit_the_memo(self, system4, db4):
        inc, ref = self._managers(system4, db4, [0.0] * 4)
        self._assert_same_decision(inc, ref, 0)
        first = inc.curves[0]
        assert len(inc._memo) == 1
        # Same snapshot and slack again: the memo serves the same object and
        # replays the modelled grid charge.
        self._assert_same_decision(inc, ref, 0)
        assert inc.curves[0] is first

    def test_qos_ramp_invalidates_the_memo(self, system4, db4):
        """A slack change is part of the digest key: the post-ramp decision
        must recompute (never serve the pre-ramp curve) and still equal the
        recomputing reference bit for bit."""
        inc, ref = self._managers(system4, db4, [0.0] * 4)
        self._assert_same_decision(inc, ref, 0)
        pre_ramp = inc.curves[0]
        inc.sim.slacks[0] = 0.3
        ref.sim.slacks[0] = 0.3
        self._assert_same_decision(inc, ref, 0)
        assert inc.curves[0] is not pre_ramp
        assert not same_curve(pre_ramp, inc.curves[0])
        assert len(inc._memo) == 2  # pre- and post-ramp keys coexist
        # Ramping back restores the original curve from the memo.
        inc.sim.slacks[0] = 0.0
        ref.sim.slacks[0] = 0.0
        self._assert_same_decision(inc, ref, 0)
        assert inc.curves[0] is pre_ramp

    def test_scenario_event_drops_held_curves(self, system4, db4):
        inc, ref = self._managers(system4, db4, [0.0] * 4)
        self._assert_same_decision(inc, ref, 0)
        self._assert_same_decision(inc, ref, 1)
        inc.on_scenario_event(0, "swap")
        ref.on_scenario_event(0, "swap")
        assert 0 not in inc.curves and 1 in inc.curves
        # The swapped core re-enters pinned until fresh statistics arrive.
        self._assert_same_decision(inc, ref, 1)


class TestRepeatPath:
    """The identity check in front of the content-keyed memo."""

    @staticmethod
    def _counting(monkeypatch, module):
        calls = []
        real = module.analytical_curves_batch

        def counted(*args, **kwargs):
            calls.append(len(args[2]))  # the batch's rows
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "analytical_curves_batch", counted)
        return calls

    def _managers(self, system4, db4, make=rm2_combined):
        recs, snaps = _stats(system4, db4, seed=21, n=system4.ncores)
        inc, ref = make(), reference(make())
        inc.attach(_StubSim(system4, recs, snaps, [0.0] * 4))
        ref.attach(_StubSim(system4, recs, snaps, [0.0] * 4))
        return inc, ref

    def test_repeat_returns_the_held_curve(self, system4, db4, monkeypatch):
        inc, ref = self._managers(system4, db4)
        calls = self._counting(monkeypatch, managers)
        TestCurveMemoization._assert_same_decision(inc, ref, 0)
        assert calls == [1]
        first = inc.curves[0]
        assert inc._repeat[0][3] is first

        def no_key(*args):
            raise AssertionError("a repeat must not build the content key")

        monkeypatch.setattr(inc, "_curve_by_content", no_key)
        for _ in range(3):
            TestCurveMemoization._assert_same_decision(inc, ref, 0)
            assert inc.curves[0] is first
        assert calls == [1]

    def test_repeat_meters_like_the_recompute_path(self, system4, db4):
        """Decisions, instructions and grid points equal the recomputing
        reference's over repeats mixed with misses and a slack change."""
        inc, ref = self._managers(system4, db4)
        for core_id in (0, 1, 0, 0, 2, 1, 1, 0):
            TestCurveMemoization._assert_same_decision(inc, ref, core_id)
        inc.sim.slacks[1] = ref.sim.slacks[1] = 0.2
        for core_id in (1, 1, 0, 1):
            TestCurveMemoization._assert_same_decision(inc, ref, core_id)
        assert inc._repeat[1][2] == 0.2

    def test_scenario_event_drops_the_entry(self, system4, db4, monkeypatch):
        inc, ref = self._managers(system4, db4)
        TestCurveMemoization._assert_same_decision(inc, ref, 0)
        TestCurveMemoization._assert_same_decision(inc, ref, 1)
        inc.on_scenario_event(0, "swap")
        ref.on_scenario_event(0, "swap")
        assert 0 not in inc._repeat and 1 in inc._repeat
        content = []
        real = inc._curve_by_content
        monkeypatch.setattr(inc, "_curve_by_content",
                            lambda *args: content.append(args[0]) or real(*args))
        TestCurveMemoization._assert_same_decision(inc, ref, 0)
        assert content == [0]  # looked up by content again, then held
        assert 0 in inc._repeat
        inc.attach(inc.sim)
        assert inc._repeat == {}

    def test_history_manager_never_takes_the_path(self, system4, db4, monkeypatch):
        import repro.core.history as history

        inc, ref = self._managers(system4, db4, rm2_history)
        calls = self._counting(monkeypatch, history)
        held = []
        for _ in range(3):
            TestCurveMemoization._assert_same_decision(inc, ref, 0)
            held.append(inc.curves[0])
            assert inc._tree.holds(0, held[-1])  # installed, not skipped
        # A fresh model chain per decision, for the manager and its twin.
        assert calls == [1] * 6
        assert len({id(c) for c in held}) == 3
        assert inc._repeat == {}


class TestSharedContentTable:
    """One memo table keyed on content alone, shared by every core."""

    def test_cluster_churn_serves_one_curve_per_content(self, system16, db16, monkeypatch):
        sc = cluster_churn("shared-memo", 16, TEST_BENCHMARKS, cluster_size=4, cycles=3,
                           idle_intervals=1.0, horizon_intervals=48, seed=5)
        mgr = rm2_clustered(4).build()
        contents: set = set()
        last: dict[int, tuple] = {}  # core -> its last content key
        static_leaves: list = []  # every pinned or idle leaf handed out

        by_content, leaf = mgr._curve_by_content, mgr._leaf

        def observed_content(core_id, snap, rec, slack):
            key = (snap, np.asarray(rec.mpki_sampled).tobytes(),
                   np.asarray(rec.mlp_sampled).tobytes(), slack)
            contents.add(key)
            last[core_id] = key
            return by_content(core_id, snap, rec, slack)

        def observed_leaf(core_id, oracle_leaves):
            curve = leaf(core_id, oracle_leaves)
            if curve is not mgr.curves.get(core_id):
                static_leaves.append(curve)
            return curve

        monkeypatch.setattr(mgr, "_curve_by_content", observed_content)
        monkeypatch.setattr(mgr, "_leaf", observed_leaf)
        RMASimulator(system16, db16, sc.workload, mgr, max_slices=6, scenario=sc).run()

        assert set(mgr._memo) == contents  # one entry per distinct content
        groups: dict[tuple, list[int]] = {}
        for j in mgr.curves:
            groups.setdefault(last[j], []).append(j)
        assert any(len(cores) > 1 for cores in groups.values())  # cross-core sharing
        for key, cores in groups.items():
            for j in cores:
                assert mgr.curves[j] is mgr._memo[key][0]
        assert len({id(c) for c in static_leaves}) == 2
        assert {id(c) for c in static_leaves} == {id(mgr._pinned_leaf), id(mgr._idle_leaf)}


class TestOracleMisses:
    """Oracle-mode misses build each content once per decision."""

    def test_equal_miss_keys_share_one_row(self, system8, db8, monkeypatch):
        """Cores whose upcoming record and slack match in one decision used
        to build the same row once each; now the batch holds each key once,
        every content is built once over the replay, and every number --
        metered overhead included -- equals the recomputing reference's."""
        rows: list[list[tuple]] = []
        real = managers.oracle_curves_batch

        def counted(system, recs, slacks, *args, **kwargs):
            rows.append([(r.bench, r.phase_key, s) for r, s in zip(recs, slacks)])
            return real(system, recs, slacks, *args, **kwargs)

        monkeypatch.setattr(managers, "oracle_curves_batch", counted)
        sc = poisson_arrivals("oracle-dups", 8, TEST_BENCHMARKS, rate_per_interval=0.35,
                              horizon_intervals=256, seed=0)
        run = RMASimulator(system8, db8, sc.workload, rm2_combined(oracle=True),
                           max_slices=6, scenario=sc).run()
        built = [key for batch in rows for key in batch]
        assert len(rows) > 1
        assert len(built) == len(set(built))
        want = RMASimulator(system8, db8, sc.workload, reference(rm2_combined(oracle=True)),
                            max_slices=6, scenario=sc).run()
        assert_same_numbers(run, want)
