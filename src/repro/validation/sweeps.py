"""Validation sweeps: how model error scales with testbed conditions.

The paper reports one error figure per cell; a reproduction can do more.
These sweeps re-run the Table 3 experiment while scaling a condition and
report the error trend:

* :func:`noise_sweep` -- scale every noise magnitude together.  Errors
  should extrapolate to the small structural floor at zero noise and
  grow ~linearly with the scale, confirming the validation measures
  measurement irregularity rather than model brokenness.
* :func:`problem_size_sweep` -- grow the problem size.  Per-phase noise
  averages out (CLT) but the run-systematic factors do not, so the error
  should *plateau*, not vanish -- the reason real clusters never
  validate to 0% however long the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.hardware.specs import NodeSpec
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.util.rng import SeedLike
from repro.validation.harness import validate_single_node
from repro.workloads.base import WorkloadSpec

#: Order-preserving map over independent sweep points.  The default is
#: the builtin serial map; pass ``RunContext.map`` (or
#: :func:`repro.engine.parallel_map`) to fan replications across a
#: process pool -- every worker payload here is top-level and picklable.
MapFn = Callable[[Callable, Iterable], Iterable]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample."""

    x: float
    time_error_pct: float
    energy_error_pct: float


def _sweep_point(
    args: Tuple[NodeSpec, WorkloadSpec, float, float, NoiseModel, SeedLike, int],
) -> SweepPoint:
    """Evaluate one sweep sample (top-level so process pools can pickle it)."""
    node, workload, x, units, noise, seed, repetitions = args
    report = validate_single_node(
        node,
        workload,
        units=units,
        noise=noise,
        seed=seed,
        repetitions=repetitions,
    )
    return SweepPoint(
        x=float(x),
        time_error_pct=report.time_errors.mean,
        energy_error_pct=report.energy_errors.mean,
    )


def noise_sweep(
    node: NodeSpec,
    workload: WorkloadSpec,
    scales: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    units: float = 1e6,
    seed: SeedLike = 0,
    repetitions: int = 2,
    base: NoiseModel = CALIBRATED_NOISE,
    map_fn: Optional[MapFn] = None,
) -> List[SweepPoint]:
    """Mean validation error at each overall noise scale."""
    if not scales:
        raise ValueError("need at least one scale")
    tasks = [
        (node, workload, float(scale), units, base.scaled(scale), seed, repetitions)
        for scale in scales
    ]
    return list((map_fn or map)(_sweep_point, tasks))


def problem_size_sweep(
    node: NodeSpec,
    workload: WorkloadSpec,
    sizes: Sequence[float] = (1e4, 1e5, 1e6, 1e8),
    seed: SeedLike = 0,
    repetitions: int = 2,
    noise: NoiseModel = CALIBRATED_NOISE,
    map_fn: Optional[MapFn] = None,
) -> List[SweepPoint]:
    """Mean validation error at each problem size."""
    if not sizes:
        raise ValueError("need at least one size")
    tasks = [
        (node, workload, float(size), float(size), noise, seed, repetitions)
        for size in sizes
    ]
    return list((map_fn or map)(_sweep_point, tasks))
