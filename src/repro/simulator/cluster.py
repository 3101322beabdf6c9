"""Multi-node job execution on the simulated testbed.

A *job* is ``W`` work units of one workload, split across groups of
identical nodes (one group per node type).  Within a group the units are
divided equally (the paper's policy); across groups the caller chooses
the split -- the whole point of mix-and-match is choosing it so both
groups finish together.

The cluster layer adds the one effect individual nodes cannot see:
**imbalance idling**.  The job is done when its *last* node finishes;
nodes that finish earlier sit idle at ``P_idle`` until then (datacenter
cores stay in C-state 0, Section II-A).  Mix-and-match exists precisely
to drive this term to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.hardware.specs import NodeSpec
from repro.simulator.node import NodeRunResult, NodeSimulator
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.util.rng import RngStream, SeedLike
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class GroupAssignment:
    """Work assigned to one group of identical nodes.

    Attributes
    ----------
    node:
        The node type of every machine in the group.
    n_nodes:
        Group size; zero is allowed (the group is simply absent).
    cores, f_ghz:
        Machine setting applied uniformly across the group.
    units:
        Total work units for the whole group (divided equally).
    """

    node: NodeSpec
    n_nodes: int
    cores: int
    f_ghz: float
    units: float

    def __post_init__(self) -> None:
        if self.n_nodes < 0:
            raise ValueError(f"group size must be non-negative, got {self.n_nodes}")
        if self.units < 0:
            raise ValueError(f"units must be non-negative, got {self.units}")
        if self.n_nodes == 0 and self.units > 0:
            raise ValueError("cannot assign work to an empty group")
        if self.n_nodes > 0:
            self.node.cores.validate_setting(self.cores, self.f_ghz)


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job execution on the cluster."""

    #: Job completion time: the slowest node's finish, seconds.
    time_s: float
    #: Total energy over all nodes, including imbalance idling, joules.
    energy_j: float
    #: Per-group completion times (group order as submitted), seconds.
    group_times_s: tuple
    #: Per-group energy including the group's imbalance idling, joules.
    group_energies_j: tuple
    #: Energy burned by nodes idling after their own work finished, joules.
    imbalance_energy_j: float
    #: Per-node results, keyed by (group_index, node_index).
    node_results: Dict[tuple, NodeRunResult] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_s < 0 or self.energy_j < 0:
            raise ValueError("negative job time or energy")


class ClusterSimulator:
    """Runs jobs over heterogeneous groups of simulated nodes."""

    def __init__(self, noise: NoiseModel = CALIBRATED_NOISE, n_batches: int = 64):
        self.noise = noise
        self.n_batches = n_batches

    def run_job(
        self,
        workload: WorkloadSpec,
        assignments: Sequence[GroupAssignment],
        seed: SeedLike = 0,
    ) -> JobResult:
        """Execute one job and return cluster-level observables.

        Every node gets an independent noise stream derived from ``seed``,
        so two nodes of the same type do not finish at exactly the same
        instant -- the residual imbalance a real cluster would show.
        Each group's nodes run through one :meth:`NodeSimulator.run_batch`
        pass.
        """
        active = [a for a in assignments if a.n_nodes > 0]
        if not active:
            raise ValueError("job needs at least one non-empty node group")
        total_units = sum(a.units for a in active)
        if total_units <= 0:
            raise ValueError("job must contain positive total work")

        stream = RngStream(seed)
        per_node: Dict[tuple, NodeRunResult] = {}
        group_raw_times: List[List[float]] = []
        group_raw_energies: List[float] = []

        for g_index, assignment in enumerate(active):
            sim = NodeSimulator(
                assignment.node, noise=self.noise, n_batches=self.n_batches
            )
            arrival_floor = self._arrival_floor(workload, assignment)
            units_per_node = assignment.units / assignment.n_nodes
            settings = [(assignment.cores, assignment.f_ghz)] * assignment.n_nodes
            seeds = [
                stream.child(f"g{g_index}-node", i)
                for i in range(assignment.n_nodes)
            ]
            batch = sim.run_batch(
                workload,
                units_per_node,
                settings,
                seeds,
                arrival_floor_s=arrival_floor,
            )
            times: List[float] = []
            energy = 0.0
            for i in range(assignment.n_nodes):
                per_node[(g_index, i)] = batch.row(i)
                times.append(float(batch.time_s[i]))
                energy += float(batch.energy_j[i])
            group_raw_times.append(times)
            group_raw_energies.append(energy)

        job_time = max(max(times) for times in group_raw_times)

        # Imbalance idling: every node waits at P_idle from its own finish
        # until the job completes.
        imbalance = 0.0
        group_energies: List[float] = []
        group_times: List[float] = []
        for assignment, times, energy in zip(
            active, group_raw_times, group_raw_energies
        ):
            idle_w = assignment.node.power.idle_w
            group_idle = sum((job_time - t) * idle_w for t in times)
            imbalance += group_idle
            group_energies.append(energy + group_idle)
            group_times.append(max(times))

        return JobResult(
            time_s=job_time,
            energy_j=sum(group_energies),
            group_times_s=tuple(group_times),
            group_energies_j=tuple(group_energies),
            imbalance_energy_j=imbalance,
            node_results=per_node,
        )

    @staticmethod
    def _arrival_floor(workload: WorkloadSpec, assignment: GroupAssignment) -> float:
        """Per-node I/O arrival floor: ``(1/lambda_IO) / n`` of Eq. 11."""
        if workload.io_job_arrival_rate is None:
            return 0.0
        return (1.0 / workload.io_job_arrival_rate) / assignment.n_nodes
