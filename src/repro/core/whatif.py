"""What-if hardware analysis: redesign a node, re-run the frontier.

The paper's model exists to answer design questions without building the
hardware.  This module makes those questions one call each: take a
calibrated parameter set, apply a hypothetical hardware change --
a faster NIC, cheaper idle power, a deeper DVFS range -- and compare the
energy-deadline frontier before and after.

Changes operate on :class:`NodeModelParams` (and, where the setting grid
itself changes, on the :class:`NodeSpec`), so what-ifs compose with both
ground-truth and calibrated inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.core.configuration import GroupSpec
from repro.core.params import NodeModelParams
from repro.core.pareto import ParetoFrontier
from repro.core.streaming import streaming_frontier
from repro.hardware.specs import NodeSpec

#: A what-if is a named transformation of one node's model inputs.
WhatIf = Callable[[NodeModelParams], NodeModelParams]


def faster_nic(factor: float) -> WhatIf:
    """Scale the node's NIC bandwidth (e.g. 10.0 = upgrade 100M -> 1G)."""
    if factor <= 0:
        raise ValueError("bandwidth factor must be positive")

    def apply(params: NodeModelParams) -> NodeModelParams:
        return dataclasses.replace(
            params, io_bandwidth_bytes_s=params.io_bandwidth_bytes_s * factor
        )

    return apply


def cheaper_idle(factor: float) -> WhatIf:
    """Scale the node's idle power (e.g. 0.2 = energy-proportional PSU)."""
    if factor < 0:
        raise ValueError("idle factor must be non-negative")

    def apply(params: NodeModelParams) -> NodeModelParams:
        return dataclasses.replace(params, p_idle_w=params.p_idle_w * factor)

    return apply


def faster_memory(latency_factor: float) -> WhatIf:
    """Scale memory stall costs (e.g. 0.5 = halve effective miss latency).

    Operates on the fitted ``SPI_mem`` model, which is proportional to
    the miss latency.
    """
    if latency_factor < 0:
        raise ValueError("latency factor must be non-negative")

    def apply(params: NodeModelParams) -> NodeModelParams:
        from repro.core.params import SpiMemFit
        from repro.util.stats import LinearFit

        fits = {
            c: LinearFit(
                slope=f.slope * latency_factor,
                intercept=f.intercept * latency_factor,
                r2=f.r2,
            )
            for c, f in params.spimem.fits.items()
        }
        return dataclasses.replace(params, spimem=SpiMemFit(fits))

    return apply


def better_isa(instruction_factor: float) -> WhatIf:
    """Scale the per-unit instruction count (e.g. 0.2 = add a crypto unit)."""
    if instruction_factor <= 0:
        raise ValueError("instruction factor must be positive")

    def apply(params: NodeModelParams) -> NodeModelParams:
        return dataclasses.replace(
            params,
            instructions_per_unit=params.instructions_per_unit
            * instruction_factor,
        )

    return apply


def compose(*changes: WhatIf) -> WhatIf:
    """Apply several what-ifs in order."""
    if not changes:
        raise ValueError("compose needs at least one change")

    def apply(params: NodeModelParams) -> NodeModelParams:
        for change in changes:
            params = change(params)
        return params

    return apply


@dataclass(frozen=True)
class WhatIfReport:
    """Frontier comparison before/after a hardware change."""

    label: str
    baseline: ParetoFrontier
    modified: ParetoFrontier
    #: Relative change of the global minimum energy (negative = cheaper).
    min_energy_change: float
    #: Relative change of the tightest achievable deadline (negative = faster).
    fastest_time_change: float
    #: Max energy saving across deadlines both frontiers can meet.
    best_saving: float
    at_deadline_s: Optional[float]

    def __str__(self) -> str:
        return (
            f"{self.label}: min energy {self.min_energy_change:+.1%}, "
            f"fastest deadline {self.fastest_time_change:+.1%}, "
            f"best saving {self.best_saving:.1%}"
        )


def what_if(
    spec_a: NodeSpec,
    max_a: int,
    spec_b: NodeSpec,
    max_b: int,
    params: Mapping[str, NodeModelParams],
    units: float,
    change_node: str,
    change: WhatIf,
    label: str = "what-if",
    deadline_points: int = 40,
    memory_budget_mb: Optional[float] = None,
) -> WhatIfReport:
    """Evaluate a hardware change's effect on the Pareto frontier.

    Parameters
    ----------
    change_node:
        Name of the node type the change applies to.
    change:
        The transformation (one of the factories above, or any callable).
    memory_budget_mb:
        Both spaces fold through the online frontier under this block
        budget; the frontiers are bit-identical to those of the whole
        spaces.
    """
    if change_node not in params:
        raise ValueError(
            f"no model parameters for node type {change_node!r}; "
            f"available: {sorted(params)}"
        )
    modified_params: Dict[str, NodeModelParams] = dict(params)
    modified_params[change_node] = change(params[change_node])

    group_specs = (GroupSpec(spec_a, max_a), GroupSpec(spec_b, max_b))
    baseline = streaming_frontier(
        group_specs, params, units, memory_budget_mb=memory_budget_mb
    )
    modified = streaming_frontier(
        group_specs, modified_params, units, memory_budget_mb=memory_budget_mb
    )

    min_energy_change = modified.min_energy_j / baseline.min_energy_j - 1.0
    fastest_change = modified.fastest_time_s / baseline.fastest_time_s - 1.0

    start = max(baseline.fastest_time_s, modified.fastest_time_s)
    stop = max(float(baseline.times_s[-1]), float(modified.times_s[-1]))
    best_saving = 0.0
    best_deadline: Optional[float] = None
    if stop > start:
        grid = np.logspace(np.log10(start), np.log10(stop), deadline_points)
        for d in grid:
            e_base = baseline.min_energy_for_deadline(float(d))
            e_mod = modified.min_energy_for_deadline(float(d))
            if e_base is None or e_mod is None or e_base <= 0:
                continue
            saving = 1.0 - e_mod / e_base
            if saving > best_saving:
                best_saving = saving
                best_deadline = float(d)

    return WhatIfReport(
        label=label,
        baseline=baseline,
        modified=modified,
        min_energy_change=min_energy_change,
        fastest_time_change=fastest_change,
        best_saving=best_saving,
        at_deadline_s=best_deadline,
    )
