"""Span tracing around layer entry points, installed from outside the program.

:class:`Tracer` replaces a layer's public entry points with thin wrappers
for the duration of a traced run and restores them afterwards; untraced
runs never call :func:`install`, so they execute the program unmodified.
Each call records one span ``(id, layer, name, start, end, parent,
request, note)`` in memory: ``parent`` is the enclosing span on the same
thread, ``request`` the replay or job the call served, and ``note`` an
optional per-call fact (events simulated, store hit, deduped submit).
Spans are written out once, at the end, by :meth:`Tracer.dump`.

A layer's *self* time is its spans' durations minus the time their child
spans cover, so by construction the self times of every layer under one
replay add up to that replay's ``engine`` span.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN_FIELDS = ("id", "layer", "name", "start", "end", "parent", "request", "note")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple] = []

    # ---- span recording -----------------------------------------------------
    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.request = None
        return tls

    @contextmanager
    def request(self, request_id):
        """Attribute spans opened inside the block to ``request_id``."""
        tls = self._state()
        prev, tls.request = tls.request, request_id
        try:
            yield
        finally:
            tls.request = prev

    @contextmanager
    def span(self, layer: str, name: str):
        """Record one span around the block (benchmark-side calls)."""
        tls = self._state()
        sid = next(self._ids)
        parent = tls.stack[-1] if tls.stack else None
        tls.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            tls.stack.pop()
            self.spans.append((sid, layer, name, start, end, parent, tls.request, None))

    def wrap(self, owner, attr: str, layer: str, name: str | None = None,
             note=None, request_from=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``note(args, result, exc)`` computes the span's note;
        ``request_from(args)`` names the request the call serves.  An entry
        point the program no longer has is listed in :attr:`missing`
        instead of failing, so the layer reads as absent.
        """
        orig = getattr(owner, "__dict__", {}).get(attr)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        label = name or attr
        tracer = self

        def wrapper(*args, **kwargs):
            tls = tracer._state()
            sid = next(tracer._ids)
            parent = tls.stack[-1] if tls.stack else None
            prev_request = tls.request
            if request_from is not None:
                tls.request = request_from(args)
            tls.stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                tls.stack.pop()
                request = tls.request
                tls.request = prev_request
                tracer.spans.append(
                    (sid, layer, label, start, end, parent, request,
                     note(args, result, exc) if note is not None else None)
                )

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path: str, meta: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "meta": meta or {}, "spans": self.spans}, fh,
                      default=str)


# ---- the layers -----------------------------------------------------------------
def _manager_classes():
    from repro.core import managers

    try:
        import repro.core.history  # noqa: F401  (registers HistoryAwareManager)
    except ImportError:
        pass
    seen, todo = [], [managers.ResourceManager]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install_replay_layers(tracer: Tracer) -> None:
    """Wrap the replay stack: engine, managers, curves and both reductions."""
    from repro.core import managers
    from repro.simulation.engine.kernel import SimulationKernel

    tracer.wrap(SimulationKernel, "run", "engine",
                note=lambda args, result, exc: args[0].events_simulated)
    for cls in _manager_classes():
        for attr in ("on_interval", "on_scenario_event"):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                tracer.wrap(cls, attr, "managers")
        # The curves layer is what the program's own "manager.curves" stage
        # times: the coordinated managers' curve refresh (memo lookup and
        # digests included) or oracle-leaf build.  The per-core model chain
        # behind a memo miss and the batch builders nest inside as children.
        for attr in ("_analytical_curve_memo", "_oracle_leaves", "_analytical_curve"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "curves", name=attr.lstrip("_"))
    tracer.wrap(managers, "analytical_curves_batch", "curves")
    tracer.wrap(managers, "oracle_curves_batch", "curves")
    try:
        from repro.core.packed_tree import PackedReduction
    except ImportError:
        tracer.missing.append("repro.core.packed_tree")
    else:
        for attr in ("solve", "set_group_leaves"):
            tracer.wrap(PackedReduction, attr, "packed_tree")
    try:
        from repro.core.global_opt import ReductionTree
    except ImportError:
        tracer.missing.append("repro.core.global_opt")
    else:
        for attr in ("solve", "refresh", "set_leaves"):
            tracer.wrap(ReductionTree, attr, "global_opt")


def install_database_layers(tracer: Tracer) -> None:
    """Wrap database build/load and the per-benchmark detailed simulation."""
    from repro.experiments import runner
    from repro.simulation import detailed

    tracer.wrap(runner, "build_database", "database")
    tracer.wrap(detailed, "analyze_benchmark", "detailed")


def install_service_layers(tracer: Tracer) -> list:
    """Wrap the service stack: pool, executor, results store, journal.

    Returns the list that collects every job a submit created, so its
    queue and run timestamps can be read once the jobs settle.
    """
    from repro.service.executor import ThreadExecutor
    from repro.service.journal import JobJournal
    from repro.service.pool import ReplayService
    from repro.simulation.results_store import ResultsStore

    jobs: list = []

    def submit_note(args, result, exc):
        if exc is not None:
            return {"error": type(exc).__name__}
        job, deduped = result
        if not deduped:
            jobs.append(job)
        return {"deduped": deduped, "job_id": job.job_id}

    tracer.wrap(ReplayService, "submit_info", "pool", name="submit", note=submit_note)
    tracer.wrap(ThreadExecutor, "run", "executor", request_from=lambda args: args[2])
    tracer.wrap(ResultsStore, "get", "store", request_from=lambda args: args[1],
                note=lambda args, result, exc: result is not None)
    tracer.wrap(ResultsStore, "put", "store", request_from=lambda args: args[1])
    tracer.wrap(JobJournal, "append", "journal", request_from=lambda args: args[2])
    return jobs


# ---- aggregation ------------------------------------------------------------------
def layer_totals(spans) -> dict:
    """Per layer: ``calls`` and ``incl_s`` of its outermost spans (those
    not nested in a span of the same layer) and ``self_s`` over all of
    its spans; per ``layer.name`` the same for that entry point."""
    by_id = {s[0]: s for s in spans}
    child_time: dict = defaultdict(float)
    for s in spans:
        if s[5] is not None:
            child_time[s[5]] += s[4] - s[3]
    out: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for s in spans:
        dur = s[4] - s[3]
        parent = by_id.get(s[5])
        outer = parent is None or parent[1] != s[1]
        for key in (s[1], f"{s[1]}.{s[2]}"):
            agg = out[key]
            agg["self_s"] += dur - child_time[s[0]]
            if outer:
                agg["calls"] += 1
                agg["incl_s"] += dur
    return dict(out)
