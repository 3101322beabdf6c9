"""The run context: one object threading seed, cache, catalog, and sinks.

Every pipeline stage -- simulator-backed calibration, vectorized space
evaluation, frontier/region/queueing analysis -- runs *through* a
:class:`RunContext`.  The context owns:

* **RNG discipline**: a :class:`~repro.util.rng.RngStream` tree rooted at
  the context seed, with the exact child-derivation convention the
  reporting layer has always used (``"params-<node>"`` children for
  calibration campaigns), so engine-routed runs reproduce pre-engine
  outputs bit-for-bit;
* **the result cache**: calibrations and :class:`ConfigSpaceResult`s are
  memoized content-addressed (see :mod:`repro.engine.cache`), so a
  process that builds Fig. 4, Fig. 10, and three examples performs each
  distinct calibration and space evaluation exactly once;
* **the hardware/workload registries**: catalog lookups plus
  per-context extension registration (an Atom-class third node type, a
  synthetic workload) without touching global state;
* **reporting sinks**: callables receiving ``(event, payload)`` pairs as
  stages start and finish, for progress lines, logging, or test capture;
* **the executor knobs**: worker counts and the execution backend
  (serial / process pool, see :mod:`repro.engine.backends`) for chunked space evaluation and
  replication fan-out.

Use :func:`default_context` for the shared process-wide context (what the
CLI, the figure builders, and the benchmarks share), or construct an
isolated one in tests.
"""

from __future__ import annotations

import time
import weakref
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core import calibration as _calibration
from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult, _concat_results
from repro.core.params import NodeModelParams
from repro.core.streaming import ReducedSpace, reduce_space_blocks
from repro.engine import executor as _executor
from repro.engine.cache import ResultCache
from repro.engine.checkpoint import CheckpointManager
from repro.engine.faults import FaultInjector, normalize_injector
from repro.engine.hashing import stable_hash
from repro.engine.resilience import ResiliencePolicy
from repro.hardware import catalog as _catalog
from repro.hardware.specs import NodeSpec
from repro.search.agents import SEARCH_STREAM
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.util.rng import RngStream, SeedLike
from repro.workloads import suite as _suite
from repro.workloads.base import WorkloadSpec

Sink = Callable[[str, Dict[str, Any]], None]

#: Row count above which a search batch fans out over the execution
#: backend (one chunk per this many rows); below it, evaluating
#: in-process beats the serialization overhead.
_SEARCH_PARALLEL_ROWS = 8192


def _plain_search_key(search: Mapping[str, Any], seed: int) -> Tuple:
    """A search config and the agents' draw-stream version, as a
    deterministic, content-addressable tuple."""
    options = dict(search.get("options") or {})
    return (
        SEARCH_STREAM,
        str(search.get("strategy", "random")),
        None if search.get("budget_rows") is None else int(search["budget_rows"]),
        None if search.get("batch_rows") is None else int(search["batch_rows"]),
        int(seed),
        tuple(sorted(
            (k, tuple(v) if isinstance(v, (list, tuple)) else v)
            for k, v in options.items()
        )),
    )


def _plain_queueing_key(queue_kw: Optional[Mapping[str, Any]]) -> Any:
    """Queueing knobs as a deterministic, content-addressable tuple."""
    if queue_kw is None:
        return None
    return tuple(
        sorted(
            (k, tuple(v) if isinstance(v, (list, tuple)) else v)
            for k, v in queue_kw.items()
        )
    )


def _weak_emit(ctx: "RunContext") -> Callable[..., None]:
    """``ctx.emit`` through a weak reference: a no-op once ``ctx`` is gone."""
    ref = weakref.ref(ctx)

    def emit(event: str, **payload: Any) -> None:
        alive = ref()
        if alive is not None:
            alive.emit(event, **payload)

    return emit


class RunContext:
    """Shared state for one family of engine runs.

    Parameters
    ----------
    seed:
        Default root seed when a call does not bring its own.
    cache:
        Result cache; defaults to a fresh in-memory one.  Pass
        ``ResultCache(disk_dir=Path("results/.cache"))`` for the on-disk
        layer.
    sinks:
        Reporting callbacks ``sink(event, payload)``.
    max_workers:
        Process-pool width for chunked evaluation and replication
        fan-out; ``None`` auto-sizes, ``1`` forces serial.
    memory_budget_mb:
        Default peak-memory budget for streaming/chunked space
        evaluation; ``None`` uses
        :data:`repro.core.streaming.DEFAULT_MEMORY_BUDGET_MB`.
    resilience:
        Fault-tolerance policy (retries, backoff, timeouts, pool
        replacement; see :class:`~repro.engine.resilience.ResiliencePolicy`)
        applied to every pooled stage; ``None`` uses the defaults.
    faults:
        Deterministic fault-injection plan -- a
        :class:`~repro.engine.faults.FaultPlan`, ``FaultInjector``, or
        sequence of :class:`~repro.engine.faults.FaultSpec` -- threaded
        through the executor, the cache, and the reducer pass.  ``None``
        (the default) injects nothing.
    store:
        Optional persistent artifact store
        (:class:`repro.store.ArtifactStore`) consulted by
        :func:`~repro.engine.runner.run_scenario` before computing any
        stage; construct it with ``memory=ctx.cache`` so the two layers
        share one memoization surface.
    backend, backend_options:
        Default execution backend for every fan-out this context runs --
        a registered name (``"serial"``, ``"process_pool"``), an
        :class:`~repro.engine.backends.ExecutionBackend` instance, or
        ``None`` for the historical auto-selection (see
        :func:`repro.engine.backends.resolve_backend`).  Artifacts and
        cache keys are bit-identical across backends.
    """

    def __init__(
        self,
        seed: int = 0,
        cache: Optional[ResultCache] = None,
        sinks: Sequence[Sink] = (),
        max_workers: Optional[int] = None,
        memory_budget_mb: Optional[float] = None,
        resilience: Optional[ResiliencePolicy] = None,
        faults: Optional[Any] = None,
        backend: Optional[Any] = None,
        backend_options: Optional[Mapping[str, Any]] = None,
        store: Optional[Any] = None,
    ):
        self.seed = seed
        self.cache = cache if cache is not None else ResultCache()
        #: Optional persistent :class:`~repro.store.ArtifactStore`; when
        #: set, ``run_scenario`` loads/persists stage artifacts through
        #: it (the store's memory tier should be this context's cache).
        self.store = store
        self.sinks: List[Sink] = list(sinks)
        self.max_workers = max_workers
        self.memory_budget_mb = memory_budget_mb
        self.resilience = resilience
        self.backend = backend
        self.backend_options = (
            dict(backend_options) if backend_options is not None else None
        )
        self.faults: Optional[FaultInjector] = normalize_injector(faults)
        if self.cache.on_event is None:
            # Weakly: a cache holding ``self.emit`` would make a
            # context <-> cache cycle that keeps every finished run's
            # artifacts alive until a cyclic GC pass.
            self.cache.on_event = _weak_emit(self)
        if self.faults is not None and self.cache.fault_injector is None:
            self.cache.fault_injector = self.faults
        self._extra_nodes: Dict[str, NodeSpec] = {}
        self._extra_workloads: Dict[str, WorkloadSpec] = {}

    # ---- reporting -----------------------------------------------------

    def emit(self, event: str, **payload: Any) -> None:
        """Publish a progress/reporting event to every sink."""
        for sink in self.sinks:
            sink(event, payload)

    # ---- registries ----------------------------------------------------

    def register_node(self, spec: NodeSpec) -> None:
        """Make an extension node type resolvable by name in this context."""
        self._extra_nodes[spec.name] = spec

    def register_workload(self, spec: WorkloadSpec) -> None:
        """Make an extension workload resolvable by name in this context."""
        self._extra_workloads[spec.name] = spec

    def resolve_node(self, name: str) -> NodeSpec:
        if name in self._extra_nodes:
            return self._extra_nodes[name]
        return _catalog.node_by_name(name)

    def resolve_workload(self, name: str) -> WorkloadSpec:
        if name in self._extra_workloads:
            return self._extra_workloads[name]
        return _suite.workload_by_name(name)

    # ---- backend selection ---------------------------------------------

    def _backend_args(
        self, backend: Optional[Any], backend_options: Optional[Mapping[str, Any]]
    ) -> Tuple[Optional[Any], Optional[Mapping[str, Any]]]:
        """Per-call backend override, falling back to the context default."""
        if backend is None and backend_options is None:
            return self.backend, self.backend_options
        return backend, backend_options

    # ---- cached pipeline stages ----------------------------------------

    def params(
        self,
        node: NodeSpec,
        workload: WorkloadSpec,
        calibrated: bool = False,
        noise: NoiseModel = CALIBRATED_NOISE,
        seed: Optional[SeedLike] = None,
        label: Optional[str] = None,
        index: int = 0,
        baseline_units: float = 5_000.0,
        repetitions: int = 3,
    ) -> NodeModelParams:
        """Model inputs for one (node, workload) pair, memoized.

        Ground truth is derived from the specs; ``calibrated=True`` runs
        the trace-driven campaign on the simulated testbed, seeding it
        from ``RngStream(seed).child(label, index)`` with
        ``label="params-<node>"`` by default -- the exact derivation the
        reporting layer used pre-engine, so figures are unchanged.
        """
        if not calibrated:
            key = ("ground-truth", node, workload)
            return self.cache.get_or_compute(
                "params", key, lambda: _calibration.ground_truth_params(node, workload)
            )
        seed = self.seed if seed is None else seed
        label = label if label is not None else f"params-{node.name}"

        def compute() -> NodeModelParams:
            rng = RngStream(seed).child(label, index).rng
            return _calibration.calibrate_node(
                node,
                workload,
                noise=noise,
                seed=rng,
                baseline_units=baseline_units,
                repetitions=repetitions,
            )

        if not isinstance(seed, int):
            # Generator/SeedSequence seeds are stateful: not content-addressable.
            return compute()
        key = (
            "calibrated", node, workload, noise, seed, label, index,
            baseline_units, repetitions,
        )
        return self.cache.get_or_compute("params", key, compute)

    def params_for(
        self,
        nodes: Iterable[NodeSpec],
        workload: WorkloadSpec,
        calibrated: bool = False,
        noise: NoiseModel = CALIBRATED_NOISE,
        seed: Optional[SeedLike] = None,
    ) -> Dict[str, NodeModelParams]:
        """Model inputs for several node types, keyed by node name."""
        return {
            node.name: self.params(
                node, workload, calibrated=calibrated, noise=noise,
                seed=seed, index=index,
            )
            for index, node in enumerate(nodes)
        }

    def space_groups(
        self,
        group_specs: Sequence[GroupSpec],
        params: Mapping[str, NodeModelParams],
        units: float,
        backend: Optional[Any] = None,
        backend_options: Optional[Mapping[str, Any]] = None,
    ) -> ConfigSpaceResult:
        """Evaluate a k-group configuration space, memoized, chunk-parallel.

        Signature mirrors :func:`repro.core.evaluate.evaluate_space_groups`;
        the result is cached on the full content of every group axis and
        every model parameter, so two identical requests anywhere in the
        process evaluate once -- whether they arrive through this method
        or through the two-type :meth:`space` sugar.  ``backend``
        overrides the context's execution backend for this call; the
        cache key is independent of it (the bytes are identical).
        """
        group_specs = tuple(
            gs if isinstance(gs, GroupSpec) else GroupSpec(*gs)
            for gs in group_specs
        )
        backend, backend_options = self._backend_args(backend, backend_options)
        key = self._space_key(group_specs, params, units)

        def compute() -> ConfigSpaceResult:
            start = time.perf_counter()
            result = _executor.evaluate_space_groups_chunked(
                group_specs, params, units, max_workers=self.max_workers,
                policy=self.resilience, injector=self.faults, emit=self.emit,
                backend=backend, backend_options=backend_options,
            )
            self.emit(
                "space.evaluated",
                rows=len(result),
                elapsed_s=time.perf_counter() - start,
            )
            return result

        return self.cache.get_or_compute("space", key, compute)

    @staticmethod
    def _space_key(
        group_specs: Sequence[GroupSpec],
        params: Mapping[str, NodeModelParams],
        units: float,
    ) -> Tuple:
        """Content key of one space evaluation, whole or streamed."""
        return (
            tuple(
                (gs.spec, int(gs.max_nodes), gs.counts, gs.settings)
                for gs in group_specs
            ),
            {name: params[name] for name in sorted(params)},
            units,
        )

    def space_reduced(
        self,
        group_specs: Sequence[GroupSpec],
        params: Mapping[str, NodeModelParams],
        units: float,
        memory_budget_mb: Optional[float] = None,
        queueing: Optional[Mapping[str, Any]] = None,
        consumers: Sequence[Any] = (),
        checkpoint: Optional[CheckpointManager] = None,
        resume: bool = False,
        backend: Optional[Any] = None,
        backend_options: Optional[Mapping[str, Any]] = None,
    ) -> ReducedSpace:
        """Stream-reduce a k-group space to its compact artifact, memoized.

        One block pass computes the whole-space frontier (with
        composition labels and per-point node counts), the per-group
        homogeneous frontiers, and -- when ``queueing`` passes
        :class:`~repro.queueing.dispatcher.Figure10Reducer` keyword
        arguments -- the window-level series, all bounded by the memory
        budget.  Each block task folds its own block and ships only the
        frontier-sized reducer state, which is merged here in plan order.
        The cache key is the space content plus the queueing knobs; the
        budget is an execution detail and deliberately stays out of it
        (the reduced artifacts are identical at any budget).
        ``consumers`` (e.g. a :class:`~repro.core.streaming.SpaceSpill`)
        need the block columns: passing any ships the columns here and
        folds them through the same pass, and bypasses the cache so the
        consumers always observe the full stream.

        ``checkpoint`` persists reducer state every ``checkpoint.every``
        blocks; with ``resume=True`` a valid saved state (same scenario
        *and* same block plan -- worker count and memory budget changes
        invalidate it) restores the reducers and skips the already-folded
        prefix, producing artifacts bit-identical to an uninterrupted
        run.  Checkpointed runs bypass the result cache: the point is to
        observe (and survive) the stream.
        """
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint manager")
        group_specs = tuple(
            gs if isinstance(gs, GroupSpec) else GroupSpec(*gs)
            for gs in group_specs
        )
        backend, backend_options = self._backend_args(backend, backend_options)
        queue_kw = dict(queueing) if queueing is not None else None
        fold_hook = self.faults.on_fold if self.faults is not None else None

        def compute() -> ReducedSpace:
            from repro.queueing.dispatcher import Figure10Reducer

            f10 = None
            pass_consumers = list(consumers)
            if queue_kw is not None:
                f10 = Figure10Reducer(**queue_kw)
                pass_consumers.append(f10)
            start_block = 0
            initial = None
            checkpoint_save = None
            budget = (
                self.memory_budget_mb if memory_budget_mb is None
                else memory_budget_mb
            )
            if checkpoint is not None:
                plan = _executor.space_block_plan(
                    group_specs,
                    max_workers=self.max_workers,
                    memory_budget_mb=budget,
                    backend=backend,
                    backend_options=backend_options,
                )
                plan_fp = stable_hash(
                    ("block-plan", tuple((t.counts, t.rows) for t in plan))
                )
                if resume:
                    initial = checkpoint.load(plan_fingerprint=plan_fp)
                    if initial is not None:
                        start_block = int(initial["blocks_done"])

                def checkpoint_save(state: Dict[str, Any]) -> None:
                    state["plan_fingerprint"] = plan_fp
                    checkpoint.save(state)

            start = time.perf_counter()
            reduced = reduce_space_blocks(
                _executor.iter_space_groups_chunked(
                    group_specs,
                    params,
                    units,
                    max_workers=self.max_workers,
                    memory_budget_mb=budget,
                    policy=self.resilience,
                    injector=self.faults,
                    emit=self.emit,
                    start_block=start_block,
                    backend=backend,
                    backend_options=backend_options,
                    reduce=None if consumers else {"queueing": queue_kw},
                ),
                consumers=pass_consumers,
                fold_hook=fold_hook,
                checkpoint_save=checkpoint_save,
                checkpoint_every=(
                    checkpoint.every if checkpoint is not None else 8
                ),
                initial=initial,
            )
            if f10 is not None:
                reduced.queueing = f10.finish()
            self.emit(
                "space.reduced",
                rows=reduced.total_rows,
                blocks=reduced.num_blocks,
                full_nbytes=reduced.full_nbytes,
                peak_block_nbytes=reduced.peak_block_nbytes,
                resumed_from_block=start_block,
                elapsed_s=time.perf_counter() - start,
            )
            return reduced

        if consumers or checkpoint is not None or fold_hook is not None:
            return compute()
        key = (
            self._space_key(group_specs, params, units),
            _plain_queueing_key(queue_kw),
        )
        return self.cache.get_or_compute("reduced", key, compute)

    def space_searched(
        self,
        group_specs: Sequence[GroupSpec],
        params: Mapping[str, NodeModelParams],
        units: float,
        search: Mapping[str, Any],
        best_known: Optional[Any] = None,
        checkpoint: Optional[CheckpointManager] = None,
        resume: bool = False,
        backend: Optional[Any] = None,
        backend_options: Optional[Mapping[str, Any]] = None,
    ):
        """Explore a k-group space with a search agent, memoized.

        The sampled twin of :meth:`space_reduced`: a
        :mod:`repro.search` agent (``search["strategy"]`` of
        ``"random"``/``"ga"``/``"anneal"``) proposes candidate batches
        under ``search["budget_rows"]`` (default: 5% of the space), the
        batches are evaluated through the context's execution backend,
        and the rows fold through the exact streaming reducer structure
        -- so the returned
        :class:`~repro.search.driver.SearchedSpace`'s ``reduced`` field
        feeds the frontier/regions stages unchanged.  The cache key is
        the space content *plus the full search config*: a sampled
        frontier is approximate and must never alias the exhaustive
        artifact.  ``best_known`` (a frontier) enables exact recall
        tracking in the trajectory; ``checkpoint``/``resume`` snapshot
        and restore the whole search loop bit-identically.
        """
        from repro.search import SearchSpace, make_source, run_search
        from repro.search.evaluator import CandidateGrids, _eval_candidate_chunk

        group_specs = tuple(
            gs if isinstance(gs, GroupSpec) else GroupSpec(*gs)
            for gs in group_specs
        )
        strategy = str(search.get("strategy", "random"))
        seed = search.get("seed")
        seed = self.seed if seed is None else int(seed)
        options = dict(search.get("options") or {})
        backend, backend_options = self._backend_args(backend, backend_options)

        def compute():
            space = SearchSpace(group_specs)
            budget = search.get("budget_rows")
            if budget is None:
                budget = max(1, int(0.05 * space.total_rows))
            batch_rows = int(search.get("batch_rows") or 4096)
            source = make_source(strategy, space, seed, options)
            grids = CandidateGrids.build(group_specs, params)

            def evaluate_fn(n, cores, f):
                rows = n.shape[1]
                if rows <= _SEARCH_PARALLEL_ROWS:
                    return _eval_candidate_chunk(
                        (group_specs, params, units, n, cores, f, grids)
                    )
                step = _SEARCH_PARALLEL_ROWS // 4
                chunks = [
                    (
                        group_specs, params, units,
                        n[:, lo:lo + step],
                        cores[:, lo:lo + step],
                        f[:, lo:lo + step],
                        grids,
                    )
                    for lo in range(0, rows, step)
                ]
                results = _executor.parallel_map(
                    _eval_candidate_chunk, chunks,
                    max_workers=self.max_workers,
                    policy=self.resilience, injector=self.faults,
                    emit=self.emit, backend=backend,
                    backend_options=backend_options,
                )
                return _concat_results(results)

            start = time.perf_counter()
            searched = run_search(
                group_specs, params, units,
                source=source,
                budget_rows=int(budget),
                batch_rows=batch_rows,
                evaluate_fn=evaluate_fn,
                best_known=best_known,
                seed=seed,
                space=space,
                emit=self.emit,
                checkpoint=checkpoint,
                resume=resume,
            )
            self.emit(
                "space.searched",
                strategy=strategy,
                rows_evaluated=searched.rows_evaluated,
                space_rows=searched.space_rows,
                coverage=searched.coverage,
                rounds=len(searched.trajectory.rounds),
                elapsed_s=time.perf_counter() - start,
            )
            return searched

        if checkpoint is not None or best_known is not None:
            # Observed (checkpointed) or instrumented (recall-tracked)
            # runs must actually run.
            return compute()
        key = (
            self._space_key(group_specs, params, units),
            _plain_search_key(search, seed),
        )
        return self.cache.get_or_compute("searched", key, compute)

    def space(
        self,
        spec_a: NodeSpec,
        max_a: int,
        spec_b: NodeSpec,
        max_b: int,
        params: Mapping[str, NodeModelParams],
        units: float,
        counts_a: Optional[Sequence[int]] = None,
        counts_b: Optional[Sequence[int]] = None,
        settings_a: Optional[Sequence[Tuple[int, float]]] = None,
        settings_b: Optional[Sequence[Tuple[int, float]]] = None,
    ) -> ConfigSpaceResult:
        """Two-type sugar for :meth:`space_groups`.

        Signature mirrors :func:`repro.core.evaluate.evaluate_space`;
        delegates to the group-table path (sharing its cache entries).
        """
        return self.space_groups(
            (
                GroupSpec(spec_a, max_a, counts=counts_a, settings=settings_a),
                GroupSpec(spec_b, max_b, counts=counts_b, settings=settings_b),
            ),
            params,
            units,
        )

    # ---- replication fan-out -------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        backend: Optional[Any] = None,
        backend_options: Optional[Mapping[str, Any]] = None,
    ) -> List[Any]:
        """Order-preserving parallel map over independent replications.

        ``fn`` must be a picklable top-level callable (process pools
        cannot ship closures); execution degrades to a serial map when
        pooling is unavailable.
        """
        backend, backend_options = self._backend_args(backend, backend_options)
        return _executor.parallel_map(
            fn, items, max_workers=self.max_workers,
            backend=backend, backend_options=backend_options,
        )


_DEFAULT_CONTEXT: Optional[RunContext] = None


def default_context() -> RunContext:
    """The process-wide shared context (created on first use).

    The CLI, the reporting builders, and the benchmark fixtures all share
    this context, which is what lets one process build many artifacts
    while performing each distinct calibration and space evaluation once.
    """
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = RunContext()
    return _DEFAULT_CONTEXT


def set_default_context(ctx: Optional[RunContext]) -> Optional[RunContext]:
    """Swap the process-wide context (pass ``None`` to reset); returns the old one."""
    global _DEFAULT_CONTEXT
    old, _DEFAULT_CONTEXT = _DEFAULT_CONTEXT, ctx
    return old
