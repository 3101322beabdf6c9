"""The experiment engine: one cached, parallel path through the pipeline.

The paper's workflow is a single pipeline -- calibrate per-node model
inputs from simulator traces, evaluate the configuration space, derive
the energy-deadline Pareto frontier, layer region and queueing analysis
on top.  This package is the one place that pipeline is wired:

* :class:`Scenario` -- a whole experiment as declarative, JSON
  round-trippable data;
* :class:`RunContext` -- seed discipline, the content-addressed result
  cache, hardware/workload resolution, reporting sinks, and the parallel
  executor, threaded through every stage;
* :func:`run_scenario` -- execute a scenario end-to-end into a
  :class:`ScenarioResult`;
* :func:`evaluate_space_groups_chunked` / :func:`parallel_map` -- the executor
  primitives, usable directly;
* :class:`ResultCache` -- the memoization layer, with an optional
  on-disk tier (conventionally ``results/.cache/``), checksummed and
  self-quarantining;
* :mod:`repro.engine.backends` -- the pluggable execution-backend
  registry (``serial``, ``process_pool``) every executor entry point
  resolves through; backends are selected by name, per
  :class:`Scenario` or per :class:`RunContext`, and all of them produce
  bit-identical artifacts;
* :mod:`repro.engine.resilience` / :mod:`repro.engine.faults` /
  :mod:`repro.engine.checkpoint` -- the fault-tolerance layer: retries
  with deterministic backoff, dead-worker pool replacement, graceful
  degradation to serial execution, checkpoint/resume for streaming
  runs, and a seedable fault-injection harness for testing all of it.

The CLI, the reporting builders, the examples, and the benchmarks all run
through :func:`default_context`, so one process performs each distinct
calibration and space evaluation exactly once however many artifacts it
builds.
"""

from repro.engine.backends import (
    ExecutionBackend,
    backend_class,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
    validate_backend_options,
)
from repro.engine.cache import CacheStats, ResultCache
from repro.engine.checkpoint import CheckpointManager
from repro.engine.context import RunContext, default_context, set_default_context
from repro.engine.executor import (
    evaluate_space_groups_chunked,
    iter_space_groups_chunked,
    parallel_map,
)
from repro.engine.faults import (
    CacheCorrupt,
    CheckpointCorrupt,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceError,
    TaskTimeout,
    WorkerCrash,
)
from repro.engine.hashing import stable_hash
from repro.engine.resilience import ResiliencePolicy
from repro.engine.runner import ScenarioResult, explain_scenario, run_scenario
from repro.engine.scenario import STAGES, Scenario
from repro.engine.stagegraph import (
    FrontierArtifact,
    StageNode,
    StagePlan,
    build_stage_plan,
    scenario_identity,
)

__all__ = [
    "CacheCorrupt",
    "CacheStats",
    "ExecutionBackend",
    "backend_class",
    "backend_names",
    "create_backend",
    "register_backend",
    "resolve_backend",
    "validate_backend_options",
    "CheckpointCorrupt",
    "CheckpointManager",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FrontierArtifact",
    "InjectedFault",
    "ResilienceError",
    "ResiliencePolicy",
    "ResultCache",
    "RunContext",
    "STAGES",
    "Scenario",
    "ScenarioResult",
    "StageNode",
    "StagePlan",
    "TaskTimeout",
    "WorkerCrash",
    "build_stage_plan",
    "default_context",
    "evaluate_space_groups_chunked",
    "explain_scenario",
    "iter_space_groups_chunked",
    "parallel_map",
    "run_scenario",
    "scenario_identity",
    "set_default_context",
    "stable_hash",
]
