"""Trace-driven calibration: measure model inputs off the testbed.

This is the paper's Section II-D, executed against our simulated cluster:

* **workload characterization** -- run the representative subset ``Ps``
  (a batch of work units) at every (cores, frequency) setting, read the
  ``perf``-style counters, and derive ``IPs``, ``WPI``, ``SPI_core``,
  ``U_CPU``, and the per-core-count linear regression of ``SPI_mem``
  over frequency;
* **power characterization** -- point the meter at the node while the
  CPU-max and stall micro-benchmarks run, measure idle and NIC power, and
  take memory power from the specification (as the paper does, citing
  DDR datasheets).

Because the testbed is noisy, calibrated parameters differ slightly from
ground truth -- exactly the situation the paper's validation quantifies.
:func:`ground_truth_params` provides the noiseless ideal for analyses and
tests.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.params import NodeModelParams, SpiMemFit
from repro.hardware.specs import NodeSpec
from repro.simulator.batch import repeat_settings
from repro.simulator.counters import CounterSet
from repro.simulator.node import NodeSimulator
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.simulator.power_meter import PowerMeter
from repro.util.rng import RngStream, SeedLike
from repro.util.stats import LinearFit, linear_fit
from repro.workloads.base import WorkloadSpec


def calibrate_node(
    node: NodeSpec,
    workload: WorkloadSpec,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    baseline_units: float = 5_000.0,
    repetitions: int = 3,
) -> NodeModelParams:
    """Measure all model inputs for ``(node, workload)`` off the testbed.

    Parameters
    ----------
    node, workload:
        The pair to characterize; the workload must carry a profile for
        this node type.
    noise:
        Testbed noise model (pass :data:`~repro.simulator.noise.NOISELESS`
        for exact parameters).
    seed:
        Root of the calibration campaign's reproducible RNG tree.
    baseline_units:
        Work units per baseline run -- the size of the ``Ps`` batch.
    repetitions:
        Counter runs averaged per (cores, frequency) setting.  The whole
        counter campaign runs through :meth:`NodeSimulator.run_batch`
        (one NumPy pass); row ``i`` draws from
        ``RngStream(seed).child("baseline", i)``.

    Returns
    -------
    NodeModelParams
        Measured inputs, with provenance ``source="calibrated"`` and a
        ``diagnostics`` dict recording WPI spread and worst SPI_mem r^2.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    if baseline_units <= 0:
        raise ValueError("baseline batch must contain work")
    workload.profile_for(node.name)  # raise early on missing profile

    stream = RngStream(seed)
    sim = NodeSimulator(node, noise=noise)
    pstates = node.cores.pstates_ghz

    # ---- counter measurements over the (cores, frequency) grid ---------
    # Grid order is setting-major, repetition-minor: the row index picks
    # each run's child stream, so this order is part of the output.
    grid = [
        (cores, f)
        for cores in range(1, node.cores.count + 1)
        for f in pstates
    ]
    rows = repeat_settings(grid, repetitions)
    seeds = [stream.child("baseline", i) for i in range(len(rows))]
    batch = sim.run_batch(workload, baseline_units, rows, seeds)
    counters: Dict[tuple, CounterSet] = {
        setting: batch.merged_counters(s_index * repetitions, repetitions)
        for s_index, setting in enumerate(grid)
    }

    # IPs: instructions per unit, averaged over the whole grid.
    ips_samples = [
        c.instructions / (baseline_units * repetitions) for c in counters.values()
    ]
    ips = float(np.mean(ips_samples))

    # WPI / SPI_core: scale- and setting-constant (Section III-B);
    # average across the grid and record the spread as a diagnostic.
    wpi_samples = [c.wpi for c in counters.values()]
    spi_core_samples = [c.spi_core for c in counters.values()]
    wpi = float(np.mean(wpi_samples))
    spi_core = float(np.mean(spi_core_samples))

    # U_CPU from the observed concurrency.
    u_cpu = float(np.mean([c.cpu_utilization for c in counters.values()]))

    # SPI_mem ~ f, one regression per core count (Section III-C).
    fits: Dict[int, LinearFit] = {}
    for cores in range(1, node.cores.count + 1):
        xs = list(pstates)
        ys = [counters[(cores, f)].spi_mem for f in pstates]
        fits[cores] = _fit_or_zero(xs, ys)
    spimem = SpiMemFit(fits)

    # I/O demand from counters; bandwidth and arrival come from the
    # datasheet / load-generator configuration, as in the paper.
    io_samples = [
        c.io_bytes / (baseline_units * repetitions) for c in counters.values()
    ]
    io_bytes_per_unit = float(np.mean(io_samples))

    # ---- power characterization -----------------------------------------
    meter = PowerMeter(node, noise=noise, seed=stream.child("meter").rng)
    # Active + stall sweeps, three idle reads, io-active + idle.
    meter.prefetch_readings(2 * len(pstates) * node.cores.count + 3 + 2)
    p_act = {f: meter.characterize_core_active(f) for f in pstates}
    p_stall = {f: meter.characterize_core_stall(f) for f in pstates}
    p_idle = meter.characterize_idle()
    p_io = meter.characterize_io()
    p_mem = node.power.mem_active_w  # from specification, as the paper does

    diagnostics = {
        "wpi_rel_spread": float(np.std(wpi_samples) / wpi) if wpi else 0.0,
        "spi_core_rel_spread": (
            float(np.std(spi_core_samples) / spi_core) if spi_core else 0.0
        ),
        "spimem_worst_r2": spimem.worst_r2(),
        "baseline_units": float(baseline_units),
        "repetitions": float(repetitions),
    }

    return NodeModelParams(
        node_name=node.name,
        workload_name=workload.name,
        instructions_per_unit=ips,
        wpi=wpi,
        spi_core=spi_core,
        spimem=spimem,
        u_cpu=u_cpu,
        io_bytes_per_unit=io_bytes_per_unit,
        io_bandwidth_bytes_s=node.io.bandwidth_bytes_per_s,
        io_job_arrival_rate=workload.io_job_arrival_rate,
        p_core_act_w=p_act,
        p_core_stall_w=p_stall,
        p_mem_w=p_mem,
        p_io_w=p_io,
        p_idle_w=p_idle,
        source="calibrated",
        diagnostics=diagnostics,
    )


def ground_truth_params(node: NodeSpec, workload: WorkloadSpec) -> NodeModelParams:
    """Noiseless model inputs straight from the catalog and workload specs.

    Mirrors what calibration converges to as noise goes to zero and
    repetitions to infinity: ``SPI_mem`` regressions are fitted on the
    exact latency curve evaluated at the node's P-states (so the model's
    *structure* -- a linear fit per core count -- is identical to the
    calibrated case; only the measurement noise is absent).
    """
    profile = workload.profile_for(node.name)
    pstates = node.cores.pstates_ghz
    fmax = node.cores.fmax_ghz

    fits: Dict[int, LinearFit] = {}
    for cores in range(1, node.cores.count + 1):
        c_act = profile.cpu_utilization * cores
        xs = list(pstates)
        ys = [
            profile.spi_mem(node.memory.latency_ns(c_act, f / fmax), f)
            for f in pstates
        ]
        fits[cores] = _fit_or_zero(xs, ys)

    p_act = {f: node.power.core_active.watts(f) for f in pstates}
    p_stall = {f: node.power.core_stall.watts(f) for f in pstates}

    return NodeModelParams(
        node_name=node.name,
        workload_name=workload.name,
        instructions_per_unit=profile.instructions_per_unit,
        wpi=profile.wpi,
        spi_core=profile.spi_core,
        spimem=SpiMemFit(fits),
        u_cpu=profile.cpu_utilization,
        io_bytes_per_unit=workload.io_bytes_per_unit,
        io_bandwidth_bytes_s=node.io.bandwidth_bytes_per_s,
        io_job_arrival_rate=workload.io_job_arrival_rate,
        p_core_act_w=p_act,
        p_core_stall_w=p_stall,
        p_mem_w=node.power.mem_active_w,
        p_io_w=node.power.io_active_w,
        p_idle_w=node.power.idle_w,
        source="ground-truth",
    )


def params_for(
    nodes,
    workload: WorkloadSpec,
    calibrated: bool = False,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
) -> Dict[str, NodeModelParams]:
    """Model inputs for several node types at once, keyed by node name."""
    result: Dict[str, NodeModelParams] = {}
    for index, node in enumerate(nodes):
        if calibrated:
            result[node.name] = calibrate_node(
                node,
                workload,
                noise=noise,
                seed=RngStream(seed).child(node.name, index).rng,
            )
        else:
            result[node.name] = ground_truth_params(node, workload)
    return result


def measure_scale_constancy(
    node: NodeSpec,
    workload: WorkloadSpec,
    sizes,
    cores: Optional[int] = None,
    f_ghz: Optional[float] = None,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
) -> Dict[str, Dict[str, float]]:
    """Measure WPI and SPI_core across problem sizes (the Fig. 2 experiment).

    Returns ``{size_name: {"wpi": ..., "spi_core": ..., "units": ...}}``.
    The paper's hypothesis -- both ratios stay constant as the program
    scales from ``Ps`` to ``P`` -- holds when the returned values are
    flat across sizes (property-tested, and plotted by the Fig. 2 bench).
    """
    cores = cores if cores is not None else node.cores.count
    f_ghz = f_ghz if f_ghz is not None else node.cores.fmax_ghz
    sim = NodeSimulator(node, noise=noise)
    stream = RngStream(seed)
    out: Dict[str, Dict[str, float]] = {}
    for index, (size_name, units) in enumerate(dict(sizes).items()):
        rng = stream.child("scale", index).rng
        result = sim.run(workload, units, cores, f_ghz, seed=rng)
        out[size_name] = {
            "wpi": result.counters.wpi,
            "spi_core": result.counters.spi_core,
            "units": float(units),
        }
    return out


def _fit_or_zero(xs, ys) -> LinearFit:
    """Linear fit, degrading gracefully when the workload never stalls.

    A workload with zero LLC misses measures SPI_mem = 0 at every
    frequency; the regression is then the zero line with perfect r^2.
    """
    if all(y == 0.0 for y in ys):
        return LinearFit(slope=0.0, intercept=0.0, r2=1.0)
    if len(xs) < 2:
        # Single P-state: constant model.
        return LinearFit(slope=0.0, intercept=float(ys[0]), r2=1.0)
    return linear_fit(xs, ys)
