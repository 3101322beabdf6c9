"""Operational planner: from an SLO to a deployable cluster plan.

The library's pieces answer one research question each; an operator has
one compound question: *"given my SLO and constraints, what do I buy,
what do I power on, and how do I split the work?"*  The planner composes
the pipeline into a single call:

1. constrain the cluster to a peak-power budget (8:1 substitution
   arithmetic, switch power included);
2. evaluate the admissible configuration space (optionally via the
   setting reducer);
3. apply the queueing layer for the target utilization -- mean response
   by default, an exact M/D/1 percentile if the SLO is a tail;
4. return the cheapest feasible plan: node counts, per-type settings,
   the matched work split, and the predicted time/energy/window cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult, evaluate_space
from repro.core.params import NodeModelParams
from repro.core.power_budget import cluster_peak_power, max_nodes_within_budget
from repro.core.streaming import TopKReducer, iter_space_blocks
from repro.hardware.specs import NodeSpec, SwitchSpec
from repro.queueing.tail import MD1WaitDistribution


@dataclass(frozen=True)
class SLO:
    """What the operator promises.

    Attributes
    ----------
    deadline_s:
        Response-time bound per job.
    percentile:
        Fraction of jobs that must meet it.  0.5 means "mean response"
        (the paper's Fig. 10 convention, since the M/D/1 median is near
        the mean at these loads); higher values use the exact M/D/1
        waiting-time distribution.
    utilization:
        Expected cluster utilization ``U = lambda T`` in [0, 1).
    """

    deadline_s: float
    percentile: float = 0.5
    utilization: float = 0.25

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("deadline must be positive")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        if not 0.0 <= self.utilization < 1.0:
            raise ValueError("utilization must be in [0, 1)")


@dataclass(frozen=True)
class Plan:
    """A deployable answer."""

    n_low: int
    cores_low: int
    f_low_ghz: float
    n_high: int
    cores_high: int
    f_high_ghz: float
    units_low: float
    units_high: float
    service_s: float
    response_s: float
    job_energy_j: float
    window_energy_j: float
    peak_power_w: float

    def describe(self, low_name: str = "ARM", high_name: str = "AMD") -> str:
        parts = []
        if self.n_low:
            parts.append(
                f"{self.n_low}x {low_name} (c={self.cores_low}, "
                f"f={self.f_low_ghz} GHz) <- {self.units_low:,.0f} units"
            )
        if self.n_high:
            parts.append(
                f"{self.n_high}x {high_name} (c={self.cores_high}, "
                f"f={self.f_high_ghz} GHz) <- {self.units_high:,.0f} units"
            )
        return (
            " + ".join(parts)
            + f"; service {self.service_s * 1e3:.1f} ms, response "
            f"{self.response_s * 1e3:.1f} ms, {self.job_energy_j:.2f} J/job, "
            f"peak {self.peak_power_w:.0f} W"
        )


def plan_cluster(
    spec_low: NodeSpec,
    spec_high: NodeSpec,
    params: Mapping[str, NodeModelParams],
    units: float,
    slo: SLO,
    budget_w: Optional[float] = None,
    switch: Optional[SwitchSpec] = None,
    max_low: int = 32,
    max_high: int = 16,
    window_s: float = 20.0,
    use_reduction: bool = True,
) -> Optional[Plan]:
    """Cheapest window-energy plan meeting the SLO, or ``None``.

    Parameters
    ----------
    budget_w:
        Peak-power cap; node maxima are trimmed so even the largest
        admissible homogeneous cluster fits.  ``None`` = unconstrained.
    use_reduction:
        Evaluate only per-type undominated settings (exactness certified
        for the paper's workloads; see :mod:`repro.core.reduction`).
    """
    if units <= 0:
        raise ValueError("job must contain positive work")
    if max_low < 0 or max_high < 0 or (max_low == 0 and max_high == 0):
        raise ValueError("need some nodes to plan with")

    if budget_w is not None:
        max_low = min(max_low, max_nodes_within_budget(spec_low, budget_w, switch))
        max_high = min(max_high, max_nodes_within_budget(spec_high, budget_w))
        if max_low == 0 and max_high == 0:
            return None

    if use_reduction:
        from repro.core.reduction import reduced_space

        space, _, _ = reduced_space(
            spec_low, max_low, spec_high, max_high, params, units
        )
    else:
        space = evaluate_space(
            spec_low, max_low, spec_high, max_high, params, units
        )

    return _cheapest_feasible(
        space, spec_low, spec_high, slo, budget_w, switch, window_s
    )


def _feasible_plan_for_row(
    space: ConfigSpaceResult,
    i: int,
    spec_low: NodeSpec,
    spec_high: NodeSpec,
    slo: SLO,
    budget_w: Optional[float],
    switch: Optional[SwitchSpec],
    window_s: float,
) -> Optional[Plan]:
    """Row ``i``'s plan if it meets the SLO and budget, else ``None``.

    The single feasibility/cost computation shared by the sorted scan
    (:func:`_cheapest_feasible`) and the streaming top-k selection --
    one implementation is what makes the two paths' plans identical.
    """
    service = float(space.times_s[i])
    if service > slo.deadline_s:
        return None
    u = slo.utilization
    n_low = int(space.n[0, i])
    n_high = int(space.n[1, i])
    peak = cluster_peak_power(spec_low, n_low, spec_high, n_high, switch)
    if budget_w is not None and peak > budget_w + 1e-9:
        return None
    if u > 0:
        dist = MD1WaitDistribution(service, u / service)
        try:
            response = (
                dist.response_percentile(slo.percentile)
                if slo.percentile > dist.no_wait_probability
                else service
            )
        except ValueError:
            return None  # beyond the stable tail domain: treat infeasible
        if response > slo.deadline_s:
            return None
        jobs = u * window_s / service
    else:
        response = service
        jobs = 0.0
    idle_w = n_low * spec_low.idle_power_w + n_high * spec_high.idle_power_w
    window_energy = jobs * float(space.energies_j[i]) + (
        1.0 - u
    ) * window_s * idle_w
    return Plan(
        n_low=n_low,
        cores_low=int(space.cores[0, i]),
        f_low_ghz=float(space.f[0, i]),
        n_high=n_high,
        cores_high=int(space.cores[1, i]),
        f_high_ghz=float(space.f[1, i]),
        units_low=float(space.units[0, i]),
        units_high=float(space.units[1, i]),
        service_s=service,
        response_s=float(response),
        job_energy_j=float(space.energies_j[i]),
        window_energy_j=float(window_energy),
        peak_power_w=peak,
    )


def _candidate_items(
    space: ConfigSpaceResult,
    start_row: int,
    spec_low: NodeSpec,
    spec_high: NodeSpec,
    slo: SLO,
    budget_w: Optional[float],
    switch: Optional[SwitchSpec],
    window_s: float,
) -> Iterator[Tuple[Tuple[float, float, int], Plan]]:
    """Keyed feasible plans of one space (or block of one).

    Keys are ``(window_energy, service, global_row)`` -- total order
    with the global row index as the final tiebreak, so top-k selection
    is deterministic and identical whether rows arrive whole or in
    blocks (``start_row`` offsets block-local rows to global ones).
    """
    within = np.flatnonzero(
        np.asarray(space.times_s, dtype=float) <= slo.deadline_s
    )
    for i in within:
        plan = _feasible_plan_for_row(
            space, int(i), spec_low, spec_high, slo, budget_w, switch, window_s
        )
        if plan is not None:
            yield (
                (plan.window_energy_j, plan.service_s, start_row + int(i)),
                plan,
            )


def plan_candidates(
    spec_low: NodeSpec,
    spec_high: NodeSpec,
    params: Mapping[str, NodeModelParams],
    units: float,
    slo: SLO,
    k: int = 3,
    budget_w: Optional[float] = None,
    switch: Optional[SwitchSpec] = None,
    max_low: int = 32,
    max_high: int = 16,
    window_s: float = 20.0,
    use_reduction: bool = True,
    memory_budget_mb: Optional[float] = None,
) -> List[Plan]:
    """The ``k`` cheapest feasible plans, best first (possibly fewer).

    The top-k generalization of :func:`plan_cluster`, with a total
    deterministic order -- candidates rank by
    ``(window_energy, service, row)`` -- so folding the space's blocks
    through a :class:`~repro.core.streaming.TopKReducer` under the
    ``memory_budget_mb`` cap, never materializing the space, selects
    bit for bit what ranking the whole space would.
    """
    if units <= 0:
        raise ValueError("job must contain positive work")
    if max_low < 0 or max_high < 0 or (max_low == 0 and max_high == 0):
        raise ValueError("need some nodes to plan with")
    if budget_w is not None:
        max_low = min(max_low, max_nodes_within_budget(spec_low, budget_w, switch))
        max_high = min(max_high, max_nodes_within_budget(spec_high, budget_w))
        if max_low == 0 and max_high == 0:
            return []

    settings_low = settings_high = None
    if use_reduction:
        from repro.core.reduction import undominated_settings

        settings_low = list(undominated_settings(spec_low, params[spec_low.name]).kept)
        settings_high = list(undominated_settings(spec_high, params[spec_high.name]).kept)

    topk: TopKReducer = TopKReducer(k)
    group_specs = (
        GroupSpec(spec_low, max_low, settings=settings_low),
        GroupSpec(spec_high, max_high, settings=settings_high),
    )
    for block in iter_space_blocks(
        group_specs, params, units, memory_budget_mb=memory_budget_mb
    ):
        topk.update(
            _candidate_items(
                block.data, block.start_row, spec_low, spec_high,
                slo, budget_w, switch, window_s,
            )
        )
    return [plan for _, plan in topk.finish()]


def _cheapest_feasible(
    space: ConfigSpaceResult,
    spec_low: NodeSpec,
    spec_high: NodeSpec,
    slo: SLO,
    budget_w: Optional[float],
    switch: Optional[SwitchSpec],
    window_s: float,
) -> Optional[Plan]:
    best: Optional[Plan] = None
    for i in np.argsort(space.times_s):
        if float(space.times_s[i]) > slo.deadline_s:
            break  # sorted: nothing further can qualify
        plan = _feasible_plan_for_row(
            space, int(i), spec_low, spec_high, slo, budget_w, switch, window_s
        )
        if plan is None:
            continue
        if best is None or plan.window_energy_j < best.window_energy_j:
            best = plan
    return best
