"""Builders for every table and figure of the paper's evaluation.

Each ``build_*`` function returns plain data (a :class:`Table`, series
dictionaries, or both) so benchmarks can assert on shapes and the CLI can
render text.  Expensive inputs (validation campaigns) accept ``seed`` and
noise controls for reproducibility.

Index (see DESIGN.md Section 5): Table 1 node catalog; Fig. 2 WPI/SPI_core
scale constancy; Fig. 3 SPI_mem-vs-frequency regression; Table 3
single-node validation; Table 4 cluster validation; Table 5 PPR; Fig. 4/5
Pareto frontiers; Fig. 6/7 power-budget mixes; Fig. 8/9 cluster-size
scaling; Fig. 10 queueing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import analysis
from repro.core.calibration import (
    calibrate_node,
    ground_truth_params,
    measure_scale_constancy,
)
from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult
from repro.core.pareto import ParetoFrontier
from repro.engine.context import RunContext, default_context
from repro.core.power_budget import Mix, budget_mixes, scaled_mixes
from repro.core.regions import RegionReport, analyze_regions
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9, ETHERNET_SWITCH, table1_rows
from repro.queueing.dispatcher import WindowPoint
from repro.reporting.tables import Table
from repro.simulator.batch import repeat_settings
from repro.simulator.node import NodeSimulator
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.util.rng import RngStream, SeedLike
from repro.util.stats import linear_fit
from repro.util.units import seconds_to_ms
from repro.validation.harness import validate_cluster, validate_single_node
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import EP, MEMCACHED, PAPER_WORKLOADS, X264


@dataclass
class FigureSeries:
    """One plotted line/cloud: x-y arrays plus a label and axis names."""

    label: str
    x: np.ndarray
    y: np.ndarray
    x_name: str = "x"
    y_name: str = "y"
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape:
            raise ValueError("series x and y must be parallel")


def suite_params(
    workload: WorkloadSpec,
    calibrated: bool = False,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    ctx: Optional[RunContext] = None,
):
    """Model inputs for the paper's two node types, keyed by node name.

    Routed through the engine's :class:`RunContext` (the shared default
    when ``ctx`` is omitted), so repeated figure builds in one process
    calibrate each (node, workload, seed) pair exactly once.  The RNG
    derivation matches the pre-engine one child-for-child.
    """
    ctx = ctx if ctx is not None else default_context()
    return ctx.params_for(
        (ARM_CORTEX_A9, AMD_K10),
        workload,
        calibrated=calibrated,
        noise=noise,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def build_table1() -> Table:
    """Table 1: the two node types."""
    table = Table(
        ["Node", AMD_K10.name, ARM_CORTEX_A9.name],
        title="Table 1: Types of heterogeneous nodes",
    )
    for attribute, amd_value, arm_value in table1_rows():
        table.add_row([attribute, amd_value, arm_value])
    return table


def build_table3(
    workloads: Sequence[WorkloadSpec] = PAPER_WORKLOADS,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    repetitions: int = 3,
    units_override: Optional[float] = None,
) -> Tuple[Table, List]:
    """Table 3: single-node validation errors for the whole suite."""
    table = Table(
        [
            "Domain",
            "Program",
            "Bottleneck",
            "AMD time err%",
            "AMD time std",
            "ARM time err%",
            "ARM time std",
            "AMD energy err%",
            "AMD energy std",
            "ARM energy err%",
            "ARM energy std",
        ],
        title="Table 3: Single-node validation (model vs simulated testbed)",
    )
    results = []
    for w_index, workload in enumerate(workloads):
        cells: Dict[str, object] = {}
        for node in (AMD_K10, ARM_CORTEX_A9):
            report = validate_single_node(
                node,
                workload,
                units=units_override,
                noise=noise,
                seed=RngStream(seed).child(f"t3-{workload.name}-{node.name}", w_index).rng,
                repetitions=repetitions,
            )
            results.append(report)
            key = "amd" if node is AMD_K10 else "arm"
            cells[f"{key}_time"] = report.time_errors
            cells[f"{key}_energy"] = report.energy_errors
        table.add_row(
            [
                workload.domain,
                workload.name,
                workload.bottleneck.value,
                f"{cells['amd_time'].mean:.0f}",
                f"{cells['amd_time'].std:.0f}",
                f"{cells['arm_time'].mean:.0f}",
                f"{cells['arm_time'].std:.0f}",
                f"{cells['amd_energy'].mean:.0f}",
                f"{cells['amd_energy'].std:.0f}",
                f"{cells['arm_energy'].mean:.0f}",
                f"{cells['arm_energy'].std:.0f}",
            ]
        )
    return table, results


def build_table4(
    workloads: Sequence[WorkloadSpec] = PAPER_WORKLOADS,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    units_override: Optional[float] = None,
) -> Tuple[Table, List]:
    """Table 4: cluster validation on 8 ARM + {1, 0} AMD."""
    table = Table(
        ["Program", "ARM nodes", "AMD nodes", "Time err%", "Energy err%"],
        title="Table 4: Cluster validation (model vs simulated testbed)",
    )
    results = []
    for w_index, workload in enumerate(workloads):
        for n_amd in (1, 0):
            report = validate_cluster(
                ARM_CORTEX_A9,
                8,
                AMD_K10,
                n_amd,
                workload,
                units=units_override,
                noise=noise,
                seed=RngStream(seed).child(
                    f"t4-{workload.name}-{n_amd}", w_index
                ).rng,
            )
            results.append(report)
            table.add_row(
                [
                    workload.name,
                    8,
                    n_amd,
                    f"{report.time_error_pct:.0f}",
                    f"{report.energy_error_pct:.0f}",
                ]
            )
    return table, results


def build_table5(
    workloads: Sequence[WorkloadSpec] = PAPER_WORKLOADS,
    calibrated: bool = False,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
) -> Tuple[Table, List]:
    """Table 5: performance-to-power ratio per workload and node type."""

    def params_fn(node, workload):
        if calibrated:
            return calibrate_node(node, workload, noise=noise, seed=seed)
        return ground_truth_params(node, workload)

    rows = analysis.table5_rows(workloads, (AMD_K10, ARM_CORTEX_A9), params_fn)
    table = Table(
        ["Program", "PPR unit", "AMD node", "ARM node", "winner"],
        title="Table 5: Performance-to-power ratio (most efficient setting)",
    )
    def fmt(value: float) -> str:
        return f"{value:,.0f}" if value >= 100 else f"{value:.2f}"

    for name, unit, values in rows:
        amd = values.get(AMD_K10.name, float("nan"))
        arm = values.get(ARM_CORTEX_A9.name, float("nan"))
        winner = "AMD" if amd >= arm else "ARM"
        table.add_row([name, unit, fmt(amd), fmt(arm), winner])
    return table, rows


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def build_fig2(
    workload: WorkloadSpec = EP,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    sizes: Sequence[str] = ("A", "B", "C"),
) -> Dict[str, FigureSeries]:
    """Fig. 2: WPI and SPI_core across problem sizes, both node types."""
    series: Dict[str, FigureSeries] = {}
    size_map = {s: workload.problem_sizes[s] for s in sizes}
    for node in (AMD_K10, ARM_CORTEX_A9):
        measured = measure_scale_constancy(
            node, workload, size_map, noise=noise, seed=seed
        )
        xs = np.arange(len(sizes), dtype=float)
        for metric in ("wpi", "spi_core"):
            key = f"{node.name}:{metric}"
            series[key] = FigureSeries(
                label=key,
                x=xs,
                y=np.asarray([measured[s][metric] for s in sizes]),
                x_name="problem size index (A, B, C)",
                y_name="cycles per instruction",
                meta={"sizes": list(sizes), "node": node.name, "metric": metric},
            )
    return series


def build_fig3(
    workload: WorkloadSpec = X264,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    baseline_units: float = 50.0,
    repetitions: int = 3,
) -> Dict[str, FigureSeries]:
    """Fig. 3: measured SPI_mem vs core frequency with the linear fit's r^2.

    Measured at 1 core and at the node's full core count, like the
    paper's four panels; each panel's frequency sweep runs through one
    :meth:`NodeSimulator.run_batch` pass.
    """
    series: Dict[str, FigureSeries] = {}
    stream = RngStream(seed)
    for node in (AMD_K10, ARM_CORTEX_A9):
        sim = NodeSimulator(node, noise=noise)
        for cores in (1, node.cores.count):
            pstates = node.cores.pstates_ghz
            rows = repeat_settings([(cores, f) for f in pstates], repetitions)
            seeds = [
                stream.child(f"f3-{node.name}-{cores}-{f_index}", rep)
                for f_index in range(len(pstates))
                for rep in range(repetitions)
            ]
            batch = sim.run_batch(workload, baseline_units, rows, seeds)
            xs = list(pstates)
            ys = [
                batch.merged_counters(f_index * repetitions, repetitions).spi_mem
                for f_index in range(len(pstates))
            ]
            fit = linear_fit(xs, ys)
            key = f"{node.name}:cores={cores}"
            series[key] = FigureSeries(
                label=key,
                x=np.asarray(xs),
                y=np.asarray(ys),
                x_name="core frequency [GHz]",
                y_name="SPI_mem",
                meta={"r2": fit.r2, "slope": fit.slope, "intercept": fit.intercept},
            )
    return series


@dataclass
class ParetoFigure:
    """Fig. 4/5 bundle: all configurations plus the three highlighted curves."""

    workload: str
    space: ConfigSpaceResult
    frontier: ParetoFrontier
    arm_only_frontier: ParetoFrontier
    amd_only_frontier: ParetoFrontier
    regions: RegionReport

    def cloud_series(self) -> FigureSeries:
        """Every configuration (the grey dots)."""
        return FigureSeries(
            label="all configurations",
            x=seconds_to_ms(self.space.times_s),
            y=self.space.energies_j,
            x_name="deadline [ms]",
            y_name="energy [J]",
        )

    def frontier_series(self) -> FigureSeries:
        return FigureSeries(
            label="Pareto frontier",
            x=seconds_to_ms(self.frontier.times_s),
            y=self.frontier.energies_j,
            x_name="deadline [ms]",
            y_name="energy [J]",
        )


def build_fig4_fig5(
    workload: WorkloadSpec,
    max_arm: int = 10,
    max_amd: int = 10,
    units: Optional[float] = None,
    calibrated: bool = False,
    seed: SeedLike = 0,
    ctx: Optional[RunContext] = None,
) -> ParetoFigure:
    """Figs. 4 (EP) and 5 (memcached): the 10x10 Pareto analysis.

    Calibration and space evaluation run through the engine context, so
    rebuilding the same figure in one process is a cache hit.  The
    figure plots every configuration, so the space is materialized.
    """
    ctx = ctx if ctx is not None else default_context()
    if units is None:
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
    params = suite_params(workload, calibrated=calibrated, seed=seed, ctx=ctx)
    space = ctx.space(ARM_CORTEX_A9, max_arm, AMD_K10, max_amd, params, units)
    frontier = ParetoFrontier.from_points(space.times_s, space.energies_j)
    arm_only = space.subset(space.is_only_a)
    amd_only = space.subset(space.is_only_b)
    return ParetoFigure(
        workload=workload.name,
        space=space,
        frontier=frontier,
        arm_only_frontier=ParetoFrontier.from_points(
            arm_only.times_s, arm_only.energies_j
        ),
        amd_only_frontier=ParetoFrontier.from_points(
            amd_only.times_s, amd_only.energies_j
        ),
        regions=analyze_regions(space, frontier),
    )


def build_fig6_fig7(
    workload: WorkloadSpec,
    budget_w: float = 1000.0,
    units: Optional[float] = None,
    calibrated: bool = False,
    seed: SeedLike = 0,
    deadline_points: int = 48,
    ctx: Optional[RunContext] = None,
) -> Dict[str, FigureSeries]:
    """Figs. 6 (memcached) and 7 (EP): budget-constrained mixes.

    One min-energy-vs-deadline line per mix of the paper's legend
    (ARM 0:AMD 16 ... ARM 128:AMD 0 under 1 kW at 8:1).
    """
    ctx = ctx if ctx is not None else default_context()
    if units is None:
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
    params = suite_params(workload, calibrated=calibrated, seed=seed, ctx=ctx)
    mixes = budget_mixes(ARM_CORTEX_A9, AMD_K10, budget_w, ETHERNET_SWITCH)
    return _mix_series(workload, mixes, params, units, deadline_points, ctx=ctx)


def build_fig8_fig9(
    workload: WorkloadSpec,
    factors: Sequence[int] = (1, 2, 4, 8, 16),
    units: Optional[float] = None,
    calibrated: bool = False,
    seed: SeedLike = 0,
    deadline_points: int = 48,
    ctx: Optional[RunContext] = None,
) -> Dict[str, FigureSeries]:
    """Figs. 8 (memcached) and 9 (EP): scaling the cluster at fixed ratio."""
    ctx = ctx if ctx is not None else default_context()
    if units is None:
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
    params = suite_params(workload, calibrated=calibrated, seed=seed, ctx=ctx)
    mixes = scaled_mixes(Mix(8, 1), factors)
    # Figures 8-9 treat a mix as the *available* cluster: configurations
    # may power off unused nodes, which is what grows the sweet region's
    # configuration count with scale (Observation 3).
    return _mix_series(
        workload, mixes, params, units, deadline_points, pinned=False, ctx=ctx
    )


def _mix_series(
    workload: WorkloadSpec,
    mixes: Sequence[Mix],
    params,
    units: float,
    deadline_points: int,
    pinned: bool = True,
    ctx: Optional[RunContext] = None,
) -> Dict[str, FigureSeries]:
    """Shared Fig. 6-9 machinery: per-mix min-energy over a common grid.

    ``pinned=True`` (Figures 6-7): every node of the mix participates in
    every job -- the budget lines stay distinct per mix.  ``pinned=False``
    (Figures 8-9): any subset may be used, unused nodes off.  Per-mix
    spaces mirror :func:`repro.core.analysis.fixed_mix_space` /
    :func:`~repro.core.analysis.subset_mix_space`, evaluated through the
    engine context's cache.
    """
    ctx = ctx if ctx is not None else default_context()
    spaces: Dict[str, ConfigSpaceResult] = {}
    fastest, slowest = np.inf, 0.0
    for mix in mixes:
        if mix.n_low == 0 and mix.n_high == 0:
            raise ValueError("mix needs at least one node")
        if pinned:
            space = ctx.space(
                ARM_CORTEX_A9,
                max(mix.n_low, 1),
                AMD_K10,
                max(mix.n_high, 1),
                params,
                units,
                counts_a=[mix.n_low],
                counts_b=[mix.n_high],
            )
        else:
            space = ctx.space(
                ARM_CORTEX_A9, mix.n_low, AMD_K10, mix.n_high, params, units
            )
        spaces[mix.label()] = space
        frontier = ParetoFrontier.from_points(space.times_s, space.energies_j)
        fastest = min(fastest, frontier.fastest_time_s)
        slowest = max(slowest, float(frontier.times_s[-1]))
    # The paper's Figs. 6-9 relax deadlines over ~1.5 orders of magnitude;
    # extend well past the slowest frontier point so flat tails show.
    grid = analysis.deadline_grid(
        fastest, max(slowest * 2.0, fastest * 40.0), deadline_points
    )
    series: Dict[str, FigureSeries] = {}
    for label, space in spaces.items():
        energies = analysis.min_energy_series(space, grid)
        mask = np.asarray([e is not None for e in energies])
        ys = np.asarray([e if e is not None else np.nan for e in energies])
        series[label] = FigureSeries(
            label=label,
            x=seconds_to_ms(grid[mask]),
            y=ys[mask],
            x_name="deadline [ms]",
            y_name="minimum energy [J]",
            meta={
                "workload": workload.name,
                "min_feasible_deadline_ms": float(seconds_to_ms(grid[mask][0]))
                if mask.any()
                else None,
            },
        )
    return series


def build_fig10(
    workload: WorkloadSpec = MEMCACHED,
    n_arm: int = 16,
    n_amd: int = 14,
    utilizations: Sequence[float] = (0.05, 0.25, 0.50),
    window_s: float = 20.0,
    units: Optional[float] = None,
    calibrated: bool = False,
    seed: SeedLike = 0,
    ctx: Optional[RunContext] = None,
    memory_budget_mb: Optional[float] = None,
) -> Dict[float, List[WindowPoint]]:
    """Fig. 10: queueing-aware window energy on the 16 ARM + 14 AMD cluster.

    Configurations may use any subset of the nodes (unused nodes are off),
    so the space spans all counts up to the cluster size.  The blocks
    stream through per-utilization frontier reducers under
    ``memory_budget_mb``; the space is never materialized, and the
    series are bit-identical to :func:`~repro.queueing.dispatcher.figure10_series`
    over the whole space.
    """
    ctx = ctx if ctx is not None else default_context()
    if units is None:
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
    params = suite_params(workload, calibrated=calibrated, seed=seed, ctx=ctx)
    reduced = ctx.space_reduced(
        (GroupSpec(ARM_CORTEX_A9, n_arm), GroupSpec(AMD_K10, n_amd)),
        params,
        units,
        memory_budget_mb=memory_budget_mb,
        queueing={
            "idle_powers_w": (ARM_CORTEX_A9.idle_power_w, AMD_K10.idle_power_w),
            "utilizations": tuple(utilizations),
            "window_s": window_s,
        },
    )
    return reduced.queueing
