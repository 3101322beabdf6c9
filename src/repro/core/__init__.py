"""The paper's contribution: trace-driven model, mix-and-match, Pareto analysis.

Pipeline (Fig. 1 of the paper):

1. **Calibrate** (:mod:`repro.core.calibration`): run representative
   subsets and micro-benchmarks on the testbed (our simulator), read
   counters and the power meter, and fit the model inputs
   (:class:`~repro.core.params.NodeModelParams`).
2. **Predict** (:mod:`repro.core.timemodel`, :mod:`repro.core.energymodel`):
   closed-form execution time (Eqs. 1-11) and energy (Eqs. 12-19) for any
   (nodes, cores, frequency) setting.
3. **Match** (:mod:`repro.core.matching`): split the job between node
   types so all nodes finish simultaneously (Eq. 1).
4. **Enumerate** (:mod:`repro.core.configuration`,
   :mod:`repro.core.evaluate`): the full configuration space (36,380
   points for 10 ARM x 10 AMD), evaluated vectorized -- streamed as
   memory-bounded blocks through the incremental reducers of
   :mod:`repro.core.streaming`, or materialized whole where a caller
   needs every row.
5. **Select** (:mod:`repro.core.pareto`, :mod:`repro.core.regions`):
   the energy-deadline Pareto frontier, its heterogeneous "sweet region"
   and homogeneous "overlap region".
6. **Analyze** (:mod:`repro.core.power_budget`, :mod:`repro.core.analysis`):
   power-budget mixes, PPR, and the paper's Observations 1-4.
"""

from repro.core.params import NodeModelParams, SpiMemFit
from repro.core.timemodel import TimeBreakdown, predict_node_time
from repro.core.energymodel import EnergyBreakdown, predict_node_energy
from repro.core.matching import GroupSetting, MatchResult, match_split
from repro.core.configuration import ClusterConfig, enumerate_configs, count_configs
from repro.core.evaluate import ConfigPoint, ConfigSpaceResult, evaluate_config, evaluate_space
from repro.core.pareto import ParetoFrontier, pareto_indices
from repro.core.regions import RegionReport, analyze_regions
from repro.core.power_budget import (
    cluster_peak_power,
    substitution_ratio,
    budget_mixes,
    scaled_mixes,
    Mix,
)
from repro.core.calibration import calibrate_node, ground_truth_params
from repro.core.reduction import (
    ReductionReport,
    reduced_space,
    reduction_summary,
    undominated_settings,
)
from repro.core.multiway import (
    MultiMatchResult,
    MultiwayOutcome,
    evaluate_multiway,
    match_multiway,
)
from repro.core import analysis, planner, sensitivity, whatif
from repro.core.planner import SLO, Plan, plan_cluster, plan_candidates
from repro.core.streaming import (
    FrontierReducer,
    ReducedSpace,
    SpaceBlock,
    SpaceSpill,
    TopKReducer,
    iter_space_blocks,
    load_spilled_space,
    reduce_space_blocks,
    streaming_frontier,
)

__all__ = [
    "NodeModelParams",
    "SpiMemFit",
    "TimeBreakdown",
    "predict_node_time",
    "EnergyBreakdown",
    "predict_node_energy",
    "GroupSetting",
    "MatchResult",
    "match_split",
    "ClusterConfig",
    "enumerate_configs",
    "count_configs",
    "ConfigPoint",
    "ConfigSpaceResult",
    "evaluate_config",
    "evaluate_space",
    "ParetoFrontier",
    "pareto_indices",
    "RegionReport",
    "analyze_regions",
    "cluster_peak_power",
    "substitution_ratio",
    "budget_mixes",
    "scaled_mixes",
    "Mix",
    "calibrate_node",
    "ground_truth_params",
    "ReductionReport",
    "reduced_space",
    "reduction_summary",
    "undominated_settings",
    "MultiMatchResult",
    "MultiwayOutcome",
    "evaluate_multiway",
    "match_multiway",
    "analysis",
    "planner",
    "sensitivity",
    "whatif",
    "SLO",
    "Plan",
    "plan_cluster",
    "plan_candidates",
    "FrontierReducer",
    "ReducedSpace",
    "SpaceBlock",
    "SpaceSpill",
    "TopKReducer",
    "iter_space_blocks",
    "load_spilled_space",
    "reduce_space_blocks",
    "streaming_frontier",
]
