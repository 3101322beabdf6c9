"""The scenario pipeline as an explicit stage graph.

:func:`repro.engine.runner.run_scenario` used to be one monolithic
function: calibrate, evaluate, frontier, regions, queueing inlined in
sequence, with the result cache as the only record that any of it
happened.  This module makes the pipeline's real shape a first-class
value: a :class:`StagePlan` of declared :class:`StageNode`\\ s -- one
calibrate node per node type, then ``space`` -> ``frontier`` ->
``regions`` / ``queueing`` -- each with named dependencies and a
*content-addressed identity* derived through
:func:`repro.engine.hashing.stable_hash` from everything that determines
its artifact (resolved hardware/workload specs, space axes, queueing
knobs, and upstream identities, so edits propagate exactly as far as
they reach).

A small DAG driver (:func:`run_plan`) executes a plan in topological
order through the existing :class:`~repro.engine.context.RunContext`
machinery (backends, resilience, worker-side reduction all apply
per stage), consulting an optional
:class:`~repro.store.ArtifactStore` before computing anything: a stage
whose identity is already stored is a pure load, and a run against a
warm store recomputes nothing at all.  :func:`explain_plan` is the
dry-run twin -- it reports each stage's identity and store status
(``hit`` / ``stale`` / ``miss``) without executing a thing.

The ``space`` stage always streams: its artifact is the reduced
summary of one block pass.  The analysis stages key on the space
*content* only, so their identities are those the materialized pipeline
gave the same bit-identical artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult
from repro.core.pareto import ParetoFrontier
from repro.core.streaming import ReducedSpace, composition_labels, solo_groups
from repro.engine.hashing import stable_hash
from repro.engine.scenario import Scenario
from repro.search.agents import SEARCH_STREAM
from repro.hardware.specs import NodeSpec
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.workloads.base import WorkloadSpec

#: Calibration-campaign constants mirrored from ``RunContext.params``
#: defaults; part of the calibrate stage identity so a changed campaign
#: shape could never alias a stored artifact.
_BASELINE_UNITS = 5_000.0
_REPETITIONS = 3


def scenario_identity(scenario: Scenario) -> str:
    """Content-addressed identity of a scenario's *declaration*.

    Built on :meth:`Scenario.cache_identity`, so it is stable across the
    pair/group spellings and across every execution knob -- but note it
    references node types and workload *by name*: editing a spec behind
    a name changes the affected stage identities, not the scenario's.
    That is what lets a store track one scenario across hardware edits
    and tell exactly which of its stages went stale.
    """
    return stable_hash(("scenario", scenario.cache_identity()))


def spec_key(kind: str, name: str) -> str:
    """The dependency-graph pseudo-node for a named hardware/workload spec."""
    return f"spec:{kind}:{name}"


@dataclass(frozen=True)
class StageNode:
    """One declared pipeline stage: identity, dependencies, artifact kind.

    ``name`` is unique within a plan (``calibrate:<node>``, ``space``,
    ``frontier``, ...); ``kind`` selects the compute implementation;
    ``deps`` are upstream stage names in the same plan; ``spec_deps``
    are the :func:`spec_key` pseudo-nodes the stage reads, recorded as
    store dependency edges so spec edits invalidate exactly this
    stage's cone.
    """

    name: str
    kind: str
    identity: str
    deps: Tuple[str, ...] = ()
    spec_deps: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FrontierArtifact:
    """The frontier stage's artifact, mode-independent and store-friendly.

    Everything the regions stage, the reporting layer, and the query
    service need about a frontier: the Pareto points themselves, the
    per-group homogeneous frontiers, per-point composition labels, and
    the ``(G, F)`` node counts of each frontier point (the deployable
    answer to "cheapest config for deadline D").  The streamed stage
    and :func:`frontier_artifact_from_space` produce bit-identical
    instances.
    """

    frontier: ParetoFrontier
    group_frontiers: Tuple[Optional[ParetoFrontier], ...]
    composition: Tuple[str, ...]
    frontier_n: np.ndarray


@dataclass
class StagePlan:
    """A scenario resolved against a context: stages, identities, inputs.

    Plans are cheap to build -- resolution and hashing only, no
    simulation or evaluation -- which is what makes ``--explain``
    (and store-status queries) free.
    """

    scenario: Scenario
    scenario_id: str
    workload: WorkloadSpec
    units: float
    #: Ordered as ``scenario.groups``; duplicates collapse by name with
    #: the last index winning, mirroring ``RunContext.params_for``.
    calibrations: Dict[str, Tuple[int, NodeSpec]]
    group_specs: Tuple[GroupSpec, ...]
    noise: NoiseModel
    queue_kw: Optional[Dict[str, Any]]
    nodes: Tuple[StageNode, ...] = ()
    space_content_id: str = ""
    _by_name: Dict[str, StageNode] = field(default_factory=dict, repr=False)

    def node(self, name: str) -> StageNode:
        return self._by_name[name]

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def spec_records(self) -> List[Tuple[str, str, Any]]:
        """Every (kind, name, spec) this plan resolved, for store recording."""
        records: List[Tuple[str, str, Any]] = [
            ("workload", self.workload.name, self.workload)
        ]
        for name, (_, spec) in self.calibrations.items():
            records.append(("node", name, spec))
        return records


def _calibrate_identity(
    scenario: Scenario,
    spec: NodeSpec,
    workload: WorkloadSpec,
    noise: NoiseModel,
    index: int,
) -> str:
    """Mirror of the ``RunContext.params`` content key, as a stage identity."""
    if not scenario.calibrated:
        return stable_hash(("stage:calibrate", "ground-truth", spec, workload))
    return stable_hash(
        (
            "stage:calibrate", "calibrated", spec, workload, noise,
            scenario.seed, f"params-{spec.name}", index,
            _BASELINE_UNITS, _REPETITIONS,
        )
    )


def _queueing_key(queue_kw: Mapping[str, Any]) -> Tuple:
    """Queueing knobs as a canonical hashable tuple."""
    return tuple(
        sorted(
            (k, tuple(v) if isinstance(v, (list, tuple)) else v)
            for k, v in queue_kw.items()
        )
    )


def build_stage_plan(scenario: Scenario, ctx) -> StagePlan:
    """Resolve ``scenario`` through ``ctx`` into an executable stage plan.

    Resolution (catalog/registry lookups) and identity hashing happen
    here; nothing is simulated or evaluated.  The returned plan's
    ``nodes`` are in topological order.
    """
    workload = ctx.resolve_workload(scenario.workload)
    groups = scenario.groups
    specs = [ctx.resolve_node(g.node) for g in groups]
    units = scenario.units
    if units is None:
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
    noise = CALIBRATED_NOISE.scaled(scenario.noise_scale)
    group_specs = tuple(
        GroupSpec(spec, g.max_nodes, counts=g.counts, settings=g.settings)
        for spec, g in zip(specs, groups)
    )
    queue_kw = (
        {
            "idle_powers_w": tuple(spec.idle_power_w for spec in specs),
            "utilizations": scenario.utilizations,
            "window_s": scenario.window_s,
        }
        if scenario.wants("queueing")
        else None
    )

    calibrations: Dict[str, Tuple[int, NodeSpec]] = {}
    for index, spec in enumerate(specs):
        calibrations[spec.name] = (index, spec)

    plan = StagePlan(
        scenario=scenario,
        scenario_id=scenario_identity(scenario),
        workload=workload,
        units=float(units),
        calibrations=calibrations,
        group_specs=group_specs,
        noise=noise,
        queue_kw=queue_kw,
    )

    nodes: List[StageNode] = []
    cal_ids: Dict[str, str] = {}
    for name, (index, spec) in calibrations.items():
        identity = _calibrate_identity(scenario, spec, workload, noise, index)
        cal_ids[name] = identity
        nodes.append(
            StageNode(
                name=f"calibrate:{name}",
                kind="calibrate",
                identity=identity,
                spec_deps=(spec_key("node", name), spec_key("workload", workload.name)),
            )
        )

    axes = tuple(
        (g.node, int(g.max_nodes), g.counts, g.settings) for g in groups
    )
    # An active search IS part of the space-content identity -- a
    # sampled frontier is approximate, so it must never alias the
    # exhaustive artifact (or a differently-budgeted sample) -- and so
    # is the agents' draw-stream version, which decides the rows it
    # samples.  Exhaustive scenarios hash exactly as before the search
    # layer existed.
    content_token: Tuple = (
        "stage:space-content", tuple(sorted(cal_ids.items())), axes, plan.units,
    )
    if scenario.search_active:
        content_token = content_token + (scenario.search_config(), SEARCH_STREAM)
    space_content_id = stable_hash(content_token)
    plan.space_content_id = space_content_id

    queueing_key = _queueing_key(queue_kw) if queue_kw is not None else None
    # The space artifact is the streamed summary, which folds the
    # queueing series into the same pass, so its knobs join the key.
    # The "streaming" token keeps the identities of artifacts stored
    # before the materialized space left the pipeline.
    space_id = stable_hash(
        ("stage:space", "streaming", space_content_id, queueing_key)
    )
    cal_names = tuple(f"calibrate:{name}" for name in calibrations)
    nodes.append(
        StageNode(name="space", kind="space", identity=space_id, deps=cal_names)
    )

    frontier_id = stable_hash(("stage:frontier", space_content_id))
    if scenario.wants("frontier"):
        nodes.append(
            StageNode(
                name="frontier", kind="frontier",
                identity=frontier_id, deps=("space",),
            )
        )
    if scenario.wants("regions"):
        nodes.append(
            StageNode(
                name="regions", kind="regions",
                identity=stable_hash(("stage:regions", frontier_id)),
                deps=("space", "frontier"),
            )
        )
    if scenario.wants("queueing"):
        nodes.append(
            StageNode(
                name="queueing", kind="queueing",
                identity=stable_hash(
                    ("stage:queueing", space_content_id, queueing_key)
                ),
                deps=("space",),
            )
        )

    plan.nodes = tuple(nodes)
    plan._by_name = {n.name: n for n in nodes}
    return plan


# ---- execution -----------------------------------------------------------


@dataclass
class PlanExecution:
    """What :func:`run_plan` produced: artifacts plus per-stage accounting."""

    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: Wall time per stage *kind* (calibrate nodes aggregate), matching
    #: the historical ``ScenarioResult.timings_s`` keys.
    timings_s: Dict[str, float] = field(default_factory=dict)
    #: Per-stage-kind cache/store counter deltas (hits, misses,
    #: disk_hits, quarantined) observed while the stage ran.
    stage_cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: ``"stored"`` for store hits, ``"computed"`` otherwise.
    statuses: Dict[str, str] = field(default_factory=dict)


def run_plan(
    plan: StagePlan,
    ctx,
    compute_fns: Mapping[str, Callable[[StageNode, Dict[str, Any]], Any]],
    store=None,
    bypass_store: Sequence[str] = (),
) -> PlanExecution:
    """Execute ``plan`` in topological order; load stored stages, compute the rest.

    ``compute_fns`` maps a stage *kind* to its implementation, called as
    ``fn(node, inputs)`` with ``inputs`` keyed by dependency stage name.
    When ``store`` is given, each stage first tries
    ``store.get(node.identity)``; hits skip compute entirely, misses
    compute and persist the artifact with its dependency edges.  Stage
    names in ``bypass_store`` always compute (used when side effects --
    spill consumers, checkpoint observers -- must see the real stream),
    though their artifacts are still stored for later runs.
    """
    execution = PlanExecution()
    bypass = set(bypass_store)
    stats = ctx.cache.stats
    if store is not None:
        for kind, name, spec in plan.spec_records():
            staled = store.record_spec(kind, name, spec)
            if staled:
                ctx.emit(
                    "store.invalidated",
                    spec=spec_key(kind, name),
                    downstream=len(staled),
                )
        store.record_scenario(plan.scenario_id, plan.scenario)

    for node in plan.nodes:
        inputs = {dep: execution.artifacts[dep] for dep in node.deps}
        before = stats.as_dict()
        start = time.perf_counter()
        value = None
        loaded = False
        if store is not None and node.name not in bypass:
            value, loaded = store.get(node.identity)
        if not loaded:
            value = compute_fns[node.kind](node, inputs)
            if store is not None:
                parents = [plan.node(d).identity for d in node.deps]
                parents.extend(node.spec_deps)
                store.put(
                    node.identity,
                    value,
                    kind=node.kind,
                    scenario_id=plan.scenario_id,
                    stage=node.name,
                    deps=parents,
                )
        elapsed = time.perf_counter() - start
        execution.artifacts[node.name] = value
        execution.statuses[node.name] = "stored" if loaded else "computed"
        execution.timings_s[node.kind] = (
            execution.timings_s.get(node.kind, 0.0) + elapsed
        )
        after = stats.as_dict()
        delta = {k: after[k] - before[k] for k in after}
        bucket = execution.stage_cache.setdefault(
            node.kind, {k: 0 for k in after}
        )
        for k, v in delta.items():
            bucket[k] += v
        ctx.emit(
            "stage.done",
            stage=node.name,
            kind=node.kind,
            identity=node.identity,
            status=execution.statuses[node.name],
            elapsed_s=elapsed,
            **{f"cache_{k}": v for k, v in delta.items()},
        )
    return execution


def explain_plan(plan: StagePlan, store=None) -> List[Dict[str, Any]]:
    """Dry-run report: one row per stage with identity and store status.

    Status is ``"hit"`` (a fresh artifact is stored under this exact
    identity), ``"stale"`` (the store holds a superseded or invalidated
    artifact for this scenario stage -- an upstream spec changed), or
    ``"miss"``.  Without a store every stage reports ``"miss"``: there
    is nowhere an artifact could be waiting.
    """
    rows: List[Dict[str, Any]] = []
    for node in plan.nodes:
        if store is None:
            status = "miss"
        else:
            status = store.stage_status(
                plan.scenario_id, node.name, node.identity
            )
        rows.append(
            {
                "stage": node.name,
                "kind": node.kind,
                "identity": node.identity,
                "deps": list(node.deps),
                "status": status,
            }
        )
    return rows


# ---- stage artifact derivations (shared by runner and tests) -------------


def frontier_artifact_from_space(space: ConfigSpaceResult) -> FrontierArtifact:
    """Derive the frontier artifact from a materialized space.

    The oracle for the streamed frontier stage: bit-identical to the
    streaming reducer's frontier fields (pinned by
    ``tests/property/test_streaming_properties.py`` equivalences): each
    row's solo group is computed once, as the streaming pass does, and
    drives both the composition labels and the per-group frontiers;
    ``frontier_n`` stacks ``space.n[:, frontier.indices]``.
    """
    frontier = ParetoFrontier.from_points(space.times_s, space.energies_j)
    solo = solo_groups(space.n)
    group_rows = [np.flatnonzero(solo == g) for g in range(space.num_groups)]
    group_frontiers = tuple(
        ParetoFrontier.from_points(space.times_s[rows], space.energies_j[rows])
        if rows.size else None
        for rows in group_rows
    )
    return FrontierArtifact(
        frontier=frontier,
        group_frontiers=group_frontiers,
        composition=composition_labels(solo[frontier.indices]),
        frontier_n=space.n[:, frontier.indices],
    )


def frontier_artifact_from_reduced(reduced: ReducedSpace) -> FrontierArtifact:
    """Lift the streaming pass's frontier fields into the stage artifact."""
    assert reduced.frontier is not None
    return FrontierArtifact(
        frontier=reduced.frontier,
        group_frontiers=reduced.group_frontiers,
        composition=reduced.composition,
        frontier_n=reduced.frontier_n,
    )

