"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps the public functions at each layer boundary of the
``repro`` package -- module functions and class methods -- and records
one span per call: id, parent, name, layer, start, end, thread, and
optional counters.  Parents come from a thread-local stack, so spans of
an HTTP handler thread nest under that request, and spans of the
supervisor thread under its job.  Spans stay in memory; the caller
reads them at the end of the run.

Wrapping a module function also rebinds every loaded module that
imported it by name (``from repro.x import f``), so call sites that
bypass the defining module are traced too.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    thread: int
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Counter = Callable[[tuple, dict, Any], Dict[str, float]]


class Tracer:
    """Records spans around wrapped callables while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, layer: str,
              counter: Optional[Counter]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counters = counter(args, kwargs, result) if counter else {}
                tracer.spans.append(Span(
                    span_id, parent, name, layer, start, end,
                    threading.get_ident(), counters,
                ))

        return traced

    def function(self, module_name: str, func_name: str, layer: str,
                 counter: Optional[Counter] = None,
                 callers: Optional[Sequence[str]] = None) -> None:
        """Trace ``module_name.func_name`` and every by-name import of it
        (only the imports in ``callers``, when given)."""
        module = importlib.import_module(module_name)
        original = getattr(module, func_name)
        traced = self._wrap(original, func_name, layer, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (callers is not None and mod_name not in callers):
                continue
            if getattr(mod, "__dict__", {}).get(func_name) is original:
                setattr(mod, func_name, traced)

    def method(self, module_name: str, class_name: str, meth_name: str,
               layer: str, counter: Optional[Counter] = None) -> None:
        """Trace ``class_name.meth_name`` (subclasses inherit the wrapper)."""
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[meth_name]
        if isinstance(original, staticmethod):
            traced = staticmethod(self._wrap(
                original.__func__, f"{class_name}.{meth_name}", layer, counter))
        else:
            traced = self._wrap(
                original, f"{class_name}.{meth_name}", layer, counter)
        setattr(cls, meth_name, traced)


# ---------------------------------------------------------------------------
# The layer boundaries of the repro package
# ---------------------------------------------------------------------------


def _rows(args, kwargs, result) -> Dict[str, float]:
    return {"rows": float(len(result))}


def _proposed(args, kwargs, result) -> Dict[str, float]:
    return {"proposed": 0.0 if result is None else float(result.n.shape[1])}


def _lease(args, kwargs, result) -> Dict[str, float]:
    if result is None:
        return {"hit": 0.0}
    # Queue timestamps are wall-clock; the wait is enqueue -> lease.
    return {"hit": 1.0, "wait_s": time.time() - float(result["created_at"])}


def _encoded(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(len(result[0]))}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    t = tracer
    # engine: the whole scenario run; its self time is the engine's own.
    t.function("repro.engine.runner", "run_scenario", "engine")
    # core.calibration (+ simulator)
    t.method("repro.engine.context", "RunContext", "params", "calibration")
    t.function("repro.core.calibration", "calibrate_node", "calibration")
    # core.evaluate / core.streaming: every exhaustive block, whichever
    # path (direct, chunked, streamed) asked for it.
    t.function("repro.core.evaluate", "evaluate_space_groups", "evaluate",
               counter=_rows)
    # core.pareto and the frontier reducers.  The Fig. 10 window prune
    # and the GA's ranking call pareto_indices as part of their own
    # algorithms; those calls stay in the queueing and search layers.
    t.function("repro.core.pareto", "pareto_indices", "pareto",
               callers=("repro.core.pareto", "repro.core.streaming"))
    t.function("repro.engine.stagegraph", "frontier_artifact_from_space",
               "pareto")
    t.function("repro.engine.stagegraph", "frontier_artifact_from_reduced",
               "pareto")
    for meth in ("update", "merge", "finish"):
        t.method("repro.core.streaming", "FrontierReducer", meth, "pareto")
    # queueing
    t.function("repro.queueing.dispatcher", "figure10_series", "queueing")
    t.method("repro.queueing.dispatcher", "Figure10Reducer", "update",
             "queueing")
    # search: the driver loop, the candidate evaluator, the agents
    t.function("repro.search.driver", "run_search", "search")
    t.function("repro.search.evaluator", "evaluate_candidate_rows",
               "search.evaluator", counter=_rows)
    for cls in ("GeneticSource", "RandomWalkSource", "AnnealingSource"):
        t.method("repro.search.agents", cls, "propose", "search.agent",
                 counter=_proposed)
        t.method("repro.search.agents", cls, "observe", "search.agent")
    # store
    t.method("repro.store.store", "ArtifactStore", "get", "store")
    t.method("repro.store.store", "ArtifactStore", "put", "store")
    t.method("repro.store.store", "ArtifactStore", "_encode", "store",
             counter=_encoded)
    # store.queries
    for fn in ("scenario_detail", "cheapest_for_deadline", "frontier_points",
               "regions_summary", "whatif_delta"):
        t.function("repro.store.queries", fn, "queries")
    t.method("repro.store.store", "ArtifactStore", "scenarios", "queries")
    # service.server
    t.method("repro.service.server", "StoreQueryHandler", "do_GET", "http")
    t.method("repro.service.server", "StoreQueryHandler", "do_POST", "http")
    # service.jobs: every queue transition is one transaction
    for meth in ("enqueue", "mark_running", "complete", "fail", "release",
                 "reclaim_expired", "heartbeat", "get", "cancel"):
        t.method("repro.service.jobs", "JobQueue", meth, "jobs")
    t.method("repro.service.jobs", "JobQueue", "lease", "jobs",
             counter=_lease)
    # service.supervisor
    t.method("repro.service.supervisor", "Supervisor", "run_job",
             "supervisor")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: Sequence[Span], ops: int,
                  overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric; 0 where the layer did no work.

    ``ops`` is the number of operations the traced phase ran (scenario
    runs, searches, queries or jobs); ``*_per_scenario`` metrics divide
    by the number of ``run_scenario`` spans instead.
    """
    own = self_times(spans)
    by_layer: Dict[str, List[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)

    def self_ms(layer: str) -> float:
        return 1e3 * sum(own[s.span_id] for s in by_layer.get(layer, ()))

    def named(layer: str, suffix: str) -> List[Span]:
        return [s for s in by_layer.get(layer, ()) if s.name.endswith(suffix)]

    scenarios = len(by_layer.get("engine", ()))

    def per_scenario(value: float) -> float:
        return value / scenarios if scenarios else 0.0

    evaluate = by_layer.get("evaluate", ())
    evaluator = by_layer.get("search.evaluator", ())
    rows_evaluated = sum(s.counters["rows"] for s in evaluator)
    proposes = named("search.agent", ".propose")
    rows_proposed = sum(s.counters["proposed"] for s in proposes)
    rounds = sum(1 for s in proposes if s.counters["proposed"] > 0)
    searches = len(by_layer.get("search", ()))
    store_gets = named("store", ".get")
    store_puts = named("store", ".put")
    put_ids = {s.span_id for s in store_puts}
    # Artifact payloads only: specs are encoded outside ``put``.
    encodes = [s for s in named("store", "._encode") if s.parent in put_ids]
    jobs = by_layer.get("jobs", ())
    leases = [s for s in jobs if s.name.endswith(".lease")]
    hits = [s for s in leases if s.counters["hit"]]
    runs = by_layer.get("supervisor", ())
    agent_ms = self_ms("search.agent")
    return {
        "calibration.ms_per_scenario": per_scenario(self_ms("calibration")),
        "evaluate.ms_per_scenario": per_scenario(self_ms("evaluate")),
        "evaluate.rows": per_scenario(sum(s.counters["rows"] for s in evaluate)),
        "evaluate.blocks": per_scenario(len(evaluate)),
        "pareto.ms_per_scenario": per_scenario(self_ms("pareto")),
        "queueing.ms_per_scenario": per_scenario(self_ms("queueing")),
        "engine.self_ms_per_scenario": per_scenario(self_ms("engine")),
        "search.driver_ms_per_round": self_ms("search") / rounds if rounds else 0.0,
        "search.evaluator_ms_per_krow": (
            self_ms("search.evaluator") / (rows_evaluated / 1e3)
            if rows_evaluated else 0.0
        ),
        "search.agent_ms_per_round": agent_ms / rounds if rounds else 0.0,
        "search.rounds": rounds / searches if searches else 0.0,
        "search.unique_ratio": (
            rows_evaluated / rows_proposed if rows_proposed else 0.0
        ),
        "store.get_ms_p50": 1e3 * _median([s.duration for s in store_gets]),
        "store.gets": len(store_gets) / ops if ops else 0.0,
        "store.put_ms_p50": 1e3 * _median([s.duration for s in store_puts]),
        "store.put_bytes": (
            sum(s.counters["bytes"] for s in encodes) / len(store_puts)
            if store_puts else 0.0
        ),
        "queries.ms_p50": 1e3 * _median(
            [s.duration for s in by_layer.get("queries", ())]),
        "http.self_ms_p50": 1e3 * _median(
            [own[s.span_id] for s in by_layer.get("http", ())]),
        "jobs.wait_s_p50": _median([s.counters["wait_s"] for s in hits]),
        "jobs.lease_attempts": len(leases) / len(runs) if runs else 0.0,
        "jobs.lease_hit_ratio": len(hits) / len(leases) if leases else 0.0,
        "jobs.txn_ms_p50": 1e3 * _median(
            [s.duration for s in jobs if not s.name.endswith(".get")]),
        "jobs.run_s_p50": _median([s.duration for s in runs]),
        "trace.spans": len(spans) / ops if ops else 0.0,
        "trace.overhead_pct": overhead_pct,
    }


def layer_table(spans: Sequence[Span]) -> List[Tuple[str, float, int]]:
    """(layer, self seconds, span count), largest self time first."""
    own = self_times(spans)
    totals: Dict[str, List[float]] = {}
    for s in spans:
        entry = totals.setdefault(s.layer, [0.0, 0])
        entry[0] += own[s.span_id]
        entry[1] += 1
    return sorted(
        ((layer, t, int(n)) for layer, (t, n) in totals.items()),
        key=lambda row: -row[1],
    )
