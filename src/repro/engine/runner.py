"""Execute a :class:`~repro.engine.scenario.Scenario` end-to-end.

One call runs the paper's whole pipeline -- simulator-backed calibration
(or catalog ground truth), vectorized configuration-space evaluation
over any number of node-type groups, the energy-deadline Pareto
frontier (whole-space and per-group homogeneous), sweet/overlap region
decomposition, and the Fig. 10 queueing extension -- as an explicit
*stage graph* (:mod:`repro.engine.stagegraph`): one calibrate node per
node type, then ``space`` -> ``frontier`` -> ``regions`` / ``queueing``,
each with a content-addressed identity, executed in topological order
through a cached, parallel :class:`~repro.engine.context.RunContext`.

Re-running the same scenario on the same context is a pure cache hit;
attaching a persistent :class:`~repro.store.ArtifactStore` (``store=``
or ``ctx.store``) makes the same true *across processes*: stages whose
identities are already stored load instead of computing, and an edited
hardware or workload spec invalidates -- and recomputes -- exactly the
stages downstream of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.configuration import GroupSpec  # noqa: F401  (re-export compat)
from repro.core.evaluate import ConfigSpaceResult
from repro.core.params import NodeModelParams
from repro.core.pareto import ParetoFrontier
from repro.core.regions import RegionReport, regions_from_composition
from repro.core.streaming import ReducedSpace, SpaceSpill, count_space_rows
from repro.engine.checkpoint import CheckpointManager
from repro.engine.context import RunContext, default_context
from repro.engine.hashing import stable_hash
from repro.engine.scenario import Scenario
from repro.engine.stagegraph import (
    StageNode,
    StagePlan,
    build_stage_plan,
    frontier_artifact_from_reduced,
    run_plan,
)
from repro.queueing.dispatcher import WindowPoint
from repro.search.driver import SearchedSpace


@dataclass
class ScenarioResult:
    """Everything a scenario produced, stage by stage.

    Stages the scenario did not request are ``None``.  ``timings_s``
    records wall time per stage (cache hits show up as ~0),
    ``stage_cache_stats`` records the cache/store counter deltas each
    stage observed (hits, misses, disk reads, quarantines), and
    ``cache_stats`` snapshots the aggregate context counters after the
    run.  ``group_frontiers`` holds one homogeneous frontier per
    node-type group (``None`` where that group alone never appears);
    ``only_a_frontier``/``only_b_frontier`` mirror its first two entries.
    """

    scenario: Scenario
    params: Dict[str, NodeModelParams]
    #: The streamed space stage's compact artifact.
    reduced: Optional[ReducedSpace] = None
    frontier: Optional[ParetoFrontier] = None
    group_frontiers: Optional[Tuple[Optional[ParetoFrontier], ...]] = None
    only_a_frontier: Optional[ParetoFrontier] = None
    only_b_frontier: Optional[ParetoFrontier] = None
    regions: Optional[RegionReport] = None
    queueing: Optional[Dict[float, List[WindowPoint]]] = None
    #: The search provenance (strategy, budget, convergence trajectory)
    #: when a non-exhaustive ``scenario.search`` drove the space stage;
    #: ``None`` on exhaustive runs.  ``reduced`` aliases
    #: ``search.reduced`` so downstream consumers are uniform.
    search: Optional[SearchedSpace] = None
    timings_s: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    stage_cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Per-stage execution statuses (``"stored"`` / ``"computed"``).
    stage_statuses: Dict[str, str] = field(default_factory=dict)
    #: Produces :attr:`space` on its first read; ``None`` on searched runs.
    space_source: Optional[Callable[[], ConfigSpaceResult]] = field(
        default=None, repr=False, compare=False
    )
    _space: Optional[ConfigSpaceResult] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def space(self) -> Optional[ConfigSpaceResult]:
        """The whole configuration space of an exhaustive run.

        Memmap-backed when ``spill_dir`` kept the streamed blocks;
        otherwise evaluated on first read through the run's context, so
        only a caller that needs every row pays for them.  ``None`` on
        searched runs, which never visit the whole space.
        """
        if self._space is None and self.space_source is not None:
            self._space = self.space_source()
            self.space_source = None
        return self._space

    def min_energy_for_deadline(self, deadline_s: float) -> Optional[float]:
        """Frontier lookup sugar (requires the ``frontier`` stage)."""
        if self.frontier is None:
            raise ValueError("scenario did not run the 'frontier' stage")
        return self.frontier.min_energy_for_deadline(deadline_s)

    @property
    def num_configurations(self) -> int:
        """Rows in the evaluated space (never builds :attr:`space`)."""
        assert self.reduced is not None
        return self.reduced.total_rows

    def summary(self) -> Dict[str, object]:
        """Small plain-data digest for reporting sinks and CLIs."""
        out: Dict[str, object] = {
            "workload": self.scenario.workload,
            "node_types": [g.node for g in self.scenario.groups],
            "configurations": self.num_configurations,
            "timings_s": dict(self.timings_s),
            "cache_per_stage": {
                stage: dict(counters)
                for stage, counters in self.stage_cache_stats.items()
            },
        }
        if self.frontier is not None:
            out["frontier_points"] = len(self.frontier)
            out["fastest_time_s"] = self.frontier.fastest_time_s
            out["min_energy_j"] = self.frontier.min_energy_j
        if self.regions is not None:
            out["has_sweet_region"] = self.regions.has_sweet_region
            out["has_overlap_region"] = self.regions.has_overlap_region
        if self.search is not None:
            out["search_strategy"] = self.search.strategy
            out["search_budget_rows"] = self.search.budget_rows
            out["search_space_rows"] = self.search.space_rows
            out["search_coverage"] = self.search.coverage
            out["search_rounds"] = len(self.search.trajectory.rounds)
        if self.queueing is not None:
            out["queueing_utilizations"] = sorted(self.queueing)
        return out


def run_scenario(
    scenario: Scenario,
    ctx: Optional[RunContext] = None,
    spill_dir=None,
    checkpoint_dir=None,
    resume: bool = False,
    checkpoint_every: int = 8,
    store=None,
) -> ScenarioResult:
    """Run ``scenario`` through ``ctx`` (the shared default when omitted).

    An exhaustive space stage streams memory-bounded blocks through the
    reducers; ``result.space`` is built only when a caller reads it.
    ``spill_dir`` additionally spills the streamed blocks to
    memory-mapped ``.npy`` columns there, and ``result.space`` comes
    back memmap-backed -- full-space reporting without a full-space
    allocation.

    ``checkpoint_dir`` persists reducer (or search loop) state
    every ``checkpoint_every`` blocks under a file named by the
    scenario's cache identity; ``resume=True`` restores a valid
    checkpoint and re-evaluates only the unfinished blocks, producing
    artifacts bit-identical to an uninterrupted run.  ``checkpoint_dir``
    and ``spill_dir`` are mutually exclusive -- the spill consumer is
    append-only and cannot be snapshotted -- and passing both raises
    ``ValueError`` immediately, before any work starts.

    ``store`` attaches a persistent :class:`~repro.store.ArtifactStore`
    (defaulting to ``ctx.store`` when the context carries one): stage
    artifacts load from it when their content identities match and are
    persisted into it otherwise, so a warm-store rerun computes nothing
    and produces bit-identical results.
    """
    if checkpoint_dir is not None and spill_dir is not None:
        raise ValueError(
            "run_scenario() cannot take both checkpoint_dir and spill_dir: "
            "they are incompatible because the spill consumer is append-only "
            "and cannot be snapshotted; run the spill pass and the "
            "checkpointed pass separately"
        )
    searching = scenario.search_active
    if searching and scenario.wants("queueing"):
        raise ValueError(
            "search strategies cannot run the queueing stage: the window "
            "series is a full-space aggregate and a sampled subset would "
            "silently misstate it -- drop 'queueing' from stages or use "
            "search={'strategy': 'exhaustive'}"
        )
    if searching and spill_dir is not None:
        raise ValueError(
            "spill_dir requires an exhaustive sweep: a searched run "
            "evaluates a budgeted subset in discovery order, so spilled "
            "columns would not be the configuration space"
        )
    ctx = ctx if ctx is not None else default_context()
    if store is None:
        store = getattr(ctx, "store", None)
    checkpoint = None
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if checkpoint_dir is not None:
        fingerprint = stable_hash(
            ("scenario-checkpoint", scenario.cache_identity())
        )
        checkpoint = CheckpointManager(
            directory=Path(checkpoint_dir),
            fingerprint=fingerprint,
            every=checkpoint_every,
            on_event=ctx.emit,
        )
    # A scenario that names its backend wins over the context default;
    # with no scenario backend, both None defers to the context/env.
    backend_kw = (
        {"backend": scenario.backend,
         "backend_options": scenario.backend_options}
        if scenario.backend is not None
        else {}
    )
    ctx.emit("scenario.start", scenario=scenario.cache_identity())

    plan = build_stage_plan(scenario, ctx)
    # The spill must see the real block stream, so the space stage
    # bypasses store *reads* on those runs; its artifact is still
    # persisted for later runs.  A stored space makes a checkpoint moot.
    bypass = ("space",) if spill_dir is not None else ()
    spilled: Dict[str, ConfigSpaceResult] = {}

    def compute_calibrate(node: StageNode, inputs: Dict[str, Any]):
        name = node.name.split(":", 1)[1]
        index, spec = plan.calibrations[name]
        return ctx.params(
            spec,
            plan.workload,
            calibrated=scenario.calibrated,
            noise=plan.noise,
            seed=scenario.seed,
            index=index,
        )

    def compute_space(node: StageNode, inputs: Dict[str, Any]):
        params = {
            name: inputs[f"calibrate:{name}"] for name in plan.calibrations
        }
        if searching:
            searched = ctx.space_searched(
                plan.group_specs,
                params,
                plan.units,
                scenario.search_config(),
                checkpoint=checkpoint,
                resume=resume,
                **backend_kw,
            )
            ctx.emit(
                "space.memory",
                mode="searched",
                rows=searched.rows_evaluated,
                peak_estimate_nbytes=searched.reduced.peak_block_nbytes,
                full_nbytes=searched.reduced.full_nbytes,
                budget_mb=None,
            )
            return searched
        spill = None
        if spill_dir is not None:
            spill = SpaceSpill(
                directory=spill_dir,
                nodes=tuple(plan.calibrations),
                units_total=plan.units,
                total_rows=count_space_rows(plan.group_specs),
            )
        reduced = ctx.space_reduced(
            plan.group_specs,
            params,
            plan.units,
            memory_budget_mb=scenario.memory_budget_mb,
            queueing=plan.queue_kw,
            consumers=(spill,) if spill is not None else (),
            checkpoint=checkpoint,
            resume=resume,
            **backend_kw,
        )
        if spill is not None:
            spilled["space"] = spill.finish()
        ctx.emit(
            "space.memory",
            mode="streaming",
            rows=reduced.total_rows,
            peak_estimate_nbytes=reduced.peak_block_nbytes,
            full_nbytes=reduced.full_nbytes,
            budget_mb=scenario.memory_budget_mb,
        )
        return reduced

    def compute_frontier(node: StageNode, inputs: Dict[str, Any]):
        space_art = inputs["space"]
        if isinstance(space_art, SearchedSpace):
            space_art = space_art.reduced
        return frontier_artifact_from_reduced(space_art)

    def compute_regions(node: StageNode, inputs: Dict[str, Any]):
        art = inputs["frontier"]
        return regions_from_composition(
            art.frontier, art.composition, len(plan.group_specs)
        )

    def compute_queueing(node: StageNode, inputs: Dict[str, Any]):
        # Folded into the block pass; this stage just surfaces it.
        return inputs["space"].queueing

    execution = run_plan(
        plan,
        ctx,
        {
            "calibrate": compute_calibrate,
            "space": compute_space,
            "frontier": compute_frontier,
            "regions": compute_regions,
            "queueing": compute_queueing,
        },
        store=store,
        bypass_store=bypass,
    )

    artifacts = execution.artifacts
    params = {
        name: artifacts[f"calibrate:{name}"] for name in plan.calibrations
    }
    space_art = artifacts["space"]
    if isinstance(space_art, SearchedSpace):
        result = ScenarioResult(
            scenario=scenario,
            params=params,
            reduced=space_art.reduced,
            search=space_art,
        )
    else:
        # The spill kept the cloud; otherwise the materialized space is
        # evaluated, bit for bit, only if a caller reads it.
        spilled_space = spilled.get("space")
        space_source = (
            (lambda: spilled_space) if spilled_space is not None
            else partial(
                ctx.space_groups, plan.group_specs, params, plan.units,
                **backend_kw,
            )
        )
        result = ScenarioResult(
            scenario=scenario,
            params=params,
            reduced=space_art,
            space_source=space_source,
        )

    if "frontier" in artifacts:
        art = artifacts["frontier"]
        result.frontier = art.frontier
        result.group_frontiers = art.group_frontiers
        result.only_a_frontier = art.group_frontiers[0]
        if len(plan.group_specs) >= 2:
            result.only_b_frontier = art.group_frontiers[1]
    if "regions" in artifacts:
        result.regions = artifacts["regions"]
    if "queueing" in artifacts:
        result.queueing = artifacts["queueing"]

    result.timings_s = execution.timings_s
    result.cache_stats = ctx.cache.stats.as_dict()
    result.stage_cache_stats = execution.stage_cache
    result.stage_statuses = execution.statuses
    ctx.emit("scenario.done", summary=result.summary())
    return result


def explain_scenario(
    scenario: Scenario,
    ctx: Optional[RunContext] = None,
    store=None,
) -> Tuple[StagePlan, List[Dict[str, Any]]]:
    """Dry-run: the resolved stage plan plus per-stage store status.

    Nothing is calibrated, evaluated, or stored -- resolution and
    hashing only.  Returns ``(plan, rows)`` where each row carries the
    stage name, kind, dependencies, content identity, and store status
    (``hit`` / ``stale`` / ``miss``; always ``miss`` without a store).
    """
    from repro.engine.stagegraph import explain_plan

    ctx = ctx if ctx is not None else default_context()
    if store is None:
        store = getattr(ctx, "store", None)
    plan = build_stage_plan(scenario, ctx)
    return plan, explain_plan(plan, store)
