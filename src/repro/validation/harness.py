"""Validation experiments: single-node (Table 3) and cluster (Table 4).

Workflow per (workload, node):

1. calibrate model inputs from noisy baseline runs
   (:func:`repro.core.calibration.calibrate_node`) with one seed;
2. predict time and energy for the full problem size at each machine
   setting;
3. "measure" the same runs on the simulated testbed with *different*
   seeds (fresh noise draws -- crucial: reusing the calibration seed
   would leak the noise into the prediction and understate error);
4. aggregate |prediction - measurement| / measurement percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.calibration import calibrate_node
from repro.core.energymodel import predict_node_energy
from repro.core.matching import GroupSetting, match_split
from repro.core.params import NodeModelParams
from repro.core.timemodel import predict_node_time
from repro.hardware.specs import NodeSpec
from repro.simulator.batch import repeat_settings
from repro.simulator.cluster import ClusterSimulator, GroupAssignment
from repro.simulator.node import NodeSimulator
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.util.rng import RngStream, SeedLike
from repro.util.stats import ErrorSummary
from repro.validation.metrics import ValidationRecord, aggregate_records
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class SingleNodeValidation:
    """Table 3 cell: one workload on one node type."""

    workload: str
    node: str
    bottleneck: str
    time_errors: ErrorSummary
    energy_errors: ErrorSummary
    records: Tuple[ValidationRecord, ...]


@dataclass(frozen=True)
class ClusterValidation:
    """Table 4 row: one workload on one cluster composition."""

    workload: str
    n_a: int
    n_b: int
    time_error_pct: float
    energy_error_pct: float
    record: ValidationRecord


def validate_single_node(
    node: NodeSpec,
    workload: WorkloadSpec,
    units: Optional[float] = None,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    repetitions: int = 3,
    params: Optional[NodeModelParams] = None,
) -> SingleNodeValidation:
    """Validate time/energy predictions on one node across all settings.

    ``units`` defaults to the workload's Table 3 problem size when one is
    declared, else its default job size.  ``repetitions`` independent
    measured runs per setting feed the error statistics (the paper's
    mean +/- std per cell).  The measurement campaign runs through one
    :meth:`NodeSimulator.run_batch` pass.
    """
    if units is None:
        units = workload.problem_sizes.get("table3", workload.default_job_units)
    stream = RngStream(seed)
    if params is None:
        params = calibrate_node(
            node,
            workload,
            noise=noise,
            seed=stream.child("calibration").rng,
        )

    sim = NodeSimulator(node, noise=noise)
    grid = [
        (cores, f)
        for cores in range(1, node.cores.count + 1)
        for f in node.cores.pstates_ghz
    ]
    predictions = {}
    for cores, f in grid:
        times = predict_node_time(params, units, 1, cores, f)
        predictions[(cores, f)] = (
            times.time_s,
            predict_node_energy(params, times).energy_j,
        )

    def record(cores, f, measured_time_s, measured_energy_j) -> ValidationRecord:
        predicted_time, predicted_energy = predictions[(cores, f)]
        return ValidationRecord(
            workload=workload.name,
            node=node.name,
            setting=f"c={cores} f={f}",
            predicted_time_s=predicted_time,
            measured_time_s=measured_time_s,
            predicted_energy_j=predicted_energy,
            measured_energy_j=measured_energy_j,
        )

    rows = repeat_settings(grid, repetitions)
    seeds = [stream.child("measure", i) for i in range(len(rows))]
    batch = sim.run_batch(workload, units, rows, seeds)
    records: List[ValidationRecord] = [
        record(cores, f, float(batch.time_s[i]), float(batch.energy_j[i]))
        for i, (cores, f) in enumerate(rows)
    ]
    time_summary, energy_summary = aggregate_records(records)
    return SingleNodeValidation(
        workload=workload.name,
        node=node.name,
        bottleneck=workload.bottleneck.value,
        time_errors=time_summary,
        energy_errors=energy_summary,
        records=tuple(records),
    )


def validate_cluster(
    node_a: NodeSpec,
    n_a: int,
    node_b: NodeSpec,
    n_b: int,
    workload: WorkloadSpec,
    units: Optional[float] = None,
    noise: NoiseModel = CALIBRATED_NOISE,
    seed: SeedLike = 0,
    params: Optional[Dict[str, NodeModelParams]] = None,
) -> ClusterValidation:
    """Validate one cluster composition (Table 4 uses 8 ARM + {0,1} AMD).

    Prediction: matched split, model time and energy (Eqs. 1-19).
    Measurement: the cluster simulator with the same split -- the
    measured job reproduces the schedule the model prescribed, exactly as
    the paper deploys its model-derived configuration on the testbed.
    """
    if n_a < 0 or n_b < 0 or (n_a == 0 and n_b == 0):
        raise ValueError("cluster needs non-negative counts and at least one node")
    if units is None:
        units = workload.problem_sizes.get("table3", workload.default_job_units)
    stream = RngStream(seed)
    if params is None:
        params = {}
        for label, node in (("a", node_a), ("b", node_b)):
            params[node.name] = calibrate_node(
                node,
                workload,
                noise=noise,
                seed=stream.child(f"cal-{label}").rng,
            )

    cores_a, f_a = node_a.cores.count, node_a.cores.fmax_ghz
    cores_b, f_b = node_b.cores.count, node_b.cores.fmax_ghz
    group_a = GroupSetting(params[node_a.name], n_a, cores_a, f_a)
    group_b = GroupSetting(params[node_b.name], n_b, cores_b, f_b)
    match = match_split(units, group_a, group_b)

    predicted_energy = 0.0
    for group, w in ((group_a, match.units_a), (group_b, match.units_b)):
        if group.n_nodes == 0:
            continue
        times = predict_node_time(
            group.params, w, group.n_nodes, group.cores, group.f_ghz
        )
        predicted_energy += predict_node_energy(
            group.params, times, job_time_s=match.time_s
        ).energy_j

    assignments = []
    if n_a > 0:
        assignments.append(
            GroupAssignment(node_a, n_a, cores_a, f_a, match.units_a)
        )
    if n_b > 0:
        assignments.append(
            GroupAssignment(node_b, n_b, cores_b, f_b, match.units_b)
        )
    cluster = ClusterSimulator(noise=noise)
    measured = cluster.run_job(workload, assignments, seed=stream.child("job").rng)

    record = ValidationRecord(
        workload=workload.name,
        node=f"{n_a}x{node_a.name}+{n_b}x{node_b.name}",
        setting=f"{n_a}:{n_b}",
        predicted_time_s=match.time_s,
        measured_time_s=measured.time_s,
        predicted_energy_j=predicted_energy,
        measured_energy_j=measured.energy_j,
    )
    return ClusterValidation(
        workload=workload.name,
        n_a=n_a,
        n_b=n_b,
        time_error_pct=record.time_error_pct,
        energy_error_pct=record.energy_error_pct,
        record=record,
    )
