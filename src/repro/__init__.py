"""repro: a full reproduction of *Modeling the Energy Efficiency of
Heterogeneous Clusters* (Ramapantulu, Tudor, Loghin, Vu, Teo -- ICPP 2014).

The library implements the paper's trace-driven analytical model of
execution time and energy for clusters mixing high-performance (AMD
Opteron K10) and low-power (ARM Cortex-A9) nodes, its *mix-and-match*
workload-splitting technique, the energy-deadline Pareto-frontier
analysis, power-budget substitution, and the M/D/1 job-queueing
extension -- plus a simulated heterogeneous-cluster testbed standing in
for the paper's physical boards (see DESIGN.md).

Quick start
-----------
>>> from repro import quick
>>> result = quick.pareto("ep")           # Fig. 4 in three lines
>>> result.frontier.min_energy_j > 0
True

Subpackages
-----------
``repro.hardware``
    Node catalog (Table 1), DVFS tables, power profiles.
``repro.workloads``
    The six paper workloads and micro-benchmarks as calibrated
    service-demand descriptors.
``repro.simulator``
    The measurement substrate: phase-level node/cluster simulator,
    perf-style counters, power meter.
``repro.core``
    The contribution: time/energy model (Eqs. 1-19), matching,
    configuration enumeration, Pareto tools, regions, power budgets,
    calibration, analyses.
``repro.queueing``
    M/D/1 (M/M/1, M/G/1) models, queue DES, window energy (Fig. 10).
``repro.scheduling``
    Baselines: naive splits and the switching policy.
``repro.validation``
    Tables 3-4 model-vs-testbed validation harness.
``repro.reporting``
    Builders for every table and figure, text rendering, CSV export.
``repro.engine``
    The experiment engine: declarative :class:`Scenario` descriptions,
    a :class:`RunContext` with content-addressed caching and pluggable
    execution backends (serial, process pool), and
    :func:`run_scenario` executing the pipeline as an explicit stage
    graph -- calibrate -> configuration space -> analyses -- with
    content-addressed per-stage identities.
``repro.store``
    Persistent sqlite-backed :class:`ArtifactStore`: scenarios, stage
    artifacts, dependency edges, spec-edit invalidation.
``repro.service``
    ``repro serve``: planner queries (cheapest config for a deadline,
    frontier under a power budget, regions, what-if deltas) over
    HTTP/JSON from a populated store.
"""

from repro import quick
from repro.core.calibration import calibrate_node, ground_truth_params
from repro.core.evaluate import evaluate_config, evaluate_space
from repro.core.matching import GroupSetting, match_split
from repro.core.pareto import ParetoFrontier
from repro.core.params import NodeModelParams
from repro.core.streaming import ReducedSpace, streaming_frontier
from repro.core.timemodel import predict_node_time
from repro.core.energymodel import predict_node_energy
from repro.engine import (
    ExecutionBackend,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    ResultCache,
    RunContext,
    Scenario,
    ScenarioResult,
    backend_names,
    create_backend,
    default_context,
    register_backend,
    resolve_backend,
    run_scenario,
)
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9, ETHERNET_SWITCH
from repro.store import ArtifactStore
from repro.workloads.suite import PAPER_WORKLOADS, workload_by_name

__version__ = "1.0.0"

__all__ = [
    "quick",
    "calibrate_node",
    "ground_truth_params",
    "evaluate_config",
    "evaluate_space",
    "GroupSetting",
    "match_split",
    "ParetoFrontier",
    "NodeModelParams",
    "ReducedSpace",
    "streaming_frontier",
    "ExecutionBackend",
    "backend_names",
    "create_backend",
    "register_backend",
    "resolve_backend",
    "FaultPlan",
    "FaultSpec",
    "ResiliencePolicy",
    "ArtifactStore",
    "ResultCache",
    "RunContext",
    "Scenario",
    "ScenarioResult",
    "default_context",
    "run_scenario",
    "predict_node_time",
    "predict_node_energy",
    "AMD_K10",
    "ARM_CORTEX_A9",
    "ETHERNET_SWITCH",
    "PAPER_WORKLOADS",
    "workload_by_name",
    "__version__",
]
