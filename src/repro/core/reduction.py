"""Configuration-space reduction (the paper's stated open problem).

Section IV-B: "An approach to reduce the configuration space is beyond
the scope of this paper."  This module supplies one.

**Per-type setting pruning.**  Fix a workload and node type.  Every
(cores, frequency) setting contributes exactly two per-node constants to
the model (see :func:`repro.core.evaluate._setting_grid`):

* ``s`` -- seconds per work unit per node (``slope_node``), and
* ``k`` -- joules per work unit (``k_joules_per_unit``).

Replace a group's setting by one with ``s' <= s`` and ``k' <= k``,
*keeping the work split fixed*: the group's time can only shrink (so the
job time and every idle term shrink) and its work energy can only
shrink, while the other group and the I/O terms are untouched -- the new
configuration weakly dominates the old one point-for-point.  Pruning
each type's settings to their (s, k) Pareto set before taking the cross
product therefore discards only configurations that a surviving
configuration can mimic *at the same split*.

This makes the reduction a certified heuristic, not a theorem: the
evaluated space holds each configuration at its time-minimal matched
split, and matching can exploit a dominated setting -- slowing the
energy-expensive node sheds work onto the cheap one, occasionally
producing true frontier points the pruned space lacks.  On all six
paper workloads the frontier is preserved *exactly*
(:func:`reduction_summary` certifies it per space, and the benchmark
asserts it); on adversarial random workloads the property tests bound
the coverage gap to a few percent of energy at equal deadlines.

Payoff: the catalog's 20 ARM x 18 AMD settings collapse to a handful per
type, shrinking the 36,380-point space by well over an order of
magnitude with an identical frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult, _setting_grid, evaluate_space
from repro.core.params import NodeModelParams
from repro.core.pareto import ParetoFrontier
from repro.core.streaming import count_space_rows, streaming_frontier
from repro.hardware.specs import NodeSpec


@dataclass(frozen=True)
class ReductionReport:
    """What pruning kept, per node type."""

    node_name: str
    kept: Tuple[Tuple[int, float], ...]  # (cores, f_ghz) settings retained
    total_settings: int

    def __post_init__(self) -> None:
        if not self.kept:
            raise ValueError("pruning must keep at least one setting")
        if self.total_settings < len(self.kept):
            raise ValueError("kept more settings than exist")

    @property
    def kept_count(self) -> int:
        return len(self.kept)

    @property
    def reduction_factor(self) -> float:
        """How many times fewer settings survive."""
        return self.total_settings / self.kept_count


def undominated_settings(spec: NodeSpec, params: NodeModelParams) -> ReductionReport:
    """The (time-slope, energy-per-unit) Pareto set of a node's settings.

    A setting survives unless some other setting is at least as fast
    *and* at least as cheap per unit, with one of the two strict.
    """
    grid = _setting_grid(spec, params)
    s = grid.slope_node
    k = grid.k_joules_per_unit
    n = s.size
    keep = []
    for i in range(n):
        dominated = np.any(
            (s <= s[i]) & (k <= k[i]) & ((s < s[i]) | (k < k[i]))
        )
        if not dominated:
            keep.append(i)
    keep.sort(key=lambda i: (int(grid.cores[i]), float(grid.f_ghz[i])))
    kept = tuple((int(grid.cores[i]), float(grid.f_ghz[i])) for i in keep)
    return ReductionReport(node_name=spec.name, kept=kept, total_settings=n)


def reduced_space(
    spec_a: NodeSpec,
    max_a: int,
    spec_b: NodeSpec,
    max_b: int,
    params: Mapping[str, NodeModelParams],
    units: float,
) -> Tuple[ConfigSpaceResult, ReductionReport, ReductionReport]:
    """Evaluate only the pruned configuration space.

    Returns ``(space, report_a, report_b)``.  Unlike masking the full
    evaluation, this never computes the dominated configurations at all
    -- the point of the reduction.
    """
    report_a = undominated_settings(spec_a, params[spec_a.name])
    report_b = undominated_settings(spec_b, params[spec_b.name])
    space = evaluate_space(
        spec_a,
        max_a,
        spec_b,
        max_b,
        params,
        units,
        settings_a=list(report_a.kept),
        settings_b=list(report_b.kept),
    )
    return space, report_a, report_b


def frontier_preserved_frontiers(
    f_full: ParetoFrontier, f_reduced: ParetoFrontier, rtol: float = 1e-9
) -> bool:
    """Whether two already-built frontiers coincide (up to ``rtol``).

    The comparison core of :func:`frontier_preserved`, split out so the
    streaming certificate can hand in frontiers computed without ever
    materializing the spaces behind them.
    """
    if len(f_full) != len(f_reduced):
        return False
    return bool(
        np.allclose(f_full.times_s, f_reduced.times_s, rtol=rtol)
        and np.allclose(f_full.energies_j, f_reduced.energies_j, rtol=rtol)
    )


def frontier_preserved(
    full: ConfigSpaceResult, reduced: ConfigSpaceResult, rtol: float = 1e-9
) -> bool:
    """Whether the reduced space's Pareto frontier equals the full one's."""
    f_full = ParetoFrontier.from_points(full.times_s, full.energies_j)
    f_reduced = ParetoFrontier.from_points(reduced.times_s, reduced.energies_j)
    return frontier_preserved_frontiers(f_full, f_reduced, rtol=rtol)


def reduction_summary(
    spec_a: NodeSpec,
    max_a: int,
    spec_b: NodeSpec,
    max_b: int,
    params: Mapping[str, NodeModelParams],
    units: float,
    memory_budget_mb: Optional[float] = None,
) -> dict:
    """Sizes plus the per-space exactness certificate (needs a full pass).

    The certificate's full-space pass streams through the online
    frontier under ``memory_budget_mb``, so certifying a reduction costs
    no full-space allocation; the frontier is bit-identical to the
    whole space's.
    """
    reduced, report_a, report_b = reduced_space(
        spec_a, max_a, spec_b, max_b, params, units
    )
    f_reduced = ParetoFrontier.from_points(reduced.times_s, reduced.energies_j)
    group_specs = (GroupSpec(spec_a, max_a), GroupSpec(spec_b, max_b))
    full_size = count_space_rows(group_specs)
    f_full = streaming_frontier(
        group_specs, params, units, memory_budget_mb=memory_budget_mb
    )
    return {
        "full_size": full_size,
        "reduced_size": len(reduced),
        "reduction_factor": full_size / max(1, len(reduced)),
        "settings_a": (report_a.kept_count, report_a.total_settings),
        "settings_b": (report_b.kept_count, report_b.total_settings),
        "frontier_preserved": frontier_preserved_frontiers(f_full, f_reduced),
    }
