"""Sweet and overlap regions of the Pareto frontier (Section IV-B).

The paper divides the frontier into:

* a **sweet region**: the stretch of *heterogeneous* mixes where relaxing
  the deadline buys an approximately linear energy reduction, bounded
  above by the best homogeneous high-performance configuration and below
  by the best homogeneous low-power one;
* an **overlap region**: a suffix of *homogeneous low-power* points that
  extends the frontier to the right.  It exists only for compute-bound
  programs -- there, dropping cores or frequency trades time for energy;
  for I/O-bound programs performance only scales with node count, so the
  frontier ends where the low-power configurations start (Fig. 5 vs
  Fig. 4).

:func:`analyze_regions` classifies every frontier point by its
configuration's composition and reports both regions plus the linearity
(r^2 of energy vs deadline) of the sweet region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.evaluate import ConfigSpaceResult
from repro.core.pareto import ParetoFrontier
from repro.core.streaming import composition_labels, solo_groups
from repro.util.stats import linear_fit


@dataclass(frozen=True)
class Region:
    """A contiguous stretch of the frontier."""

    #: Positions within the frontier arrays (start inclusive, stop exclusive).
    start: int
    stop: int
    times_s: np.ndarray
    energies_j: np.ndarray

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError("region bounds out of order")

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def deadline_span_s(self) -> Tuple[float, float]:
        """(earliest, latest) deadline covered."""
        return float(self.times_s[0]), float(self.times_s[-1])

    @property
    def energy_span_j(self) -> Tuple[float, float]:
        """(max, min) energy across the region (energies decrease)."""
        return float(self.energies_j[0]), float(self.energies_j[-1])

    def linearity_r2(self) -> Optional[float]:
        """r^2 of the energy-vs-deadline line over the region (None if < 3 pts)."""
        if len(self) < 3:
            return None
        return linear_fit(self.times_s, self.energies_j).r2


#: Minimum fractional energy reduction across the trailing homogeneous run
#: for it to count as a real overlap region.  The paper's I/O-bound case
#: (memcached, Fig. 5) shows *constant* homogeneous energy as the deadline
#: relaxes -- numerically our frontier can still carry a couple of trailing
#: low-power points whose energies differ by well under a percent, which is
#: measurement dust, not an overlap region.
OVERLAP_MATERIALITY = 0.02


@dataclass(frozen=True)
class RegionReport:
    """Frontier decomposition: sweet region, overlap region, composition."""

    frontier: ParetoFrontier
    #: Per-frontier-point composition: "hetero" for mixes, or
    #: "only-<letter>" for single-group points ("only-a", "only-b",
    #: "only-c", ... -- one letter per node-type group, in group order).
    composition: Tuple[str, ...]
    sweet: Optional[Region]
    overlap: Optional[Region]

    @property
    def has_sweet_region(self) -> bool:
        return self.sweet is not None and len(self.sweet) >= 2

    @property
    def overlap_energy_drop(self) -> float:
        """Fractional energy reduction across the trailing homogeneous run."""
        if self.overlap is None or len(self.overlap) < 2:
            return 0.0
        high, low = self.overlap.energy_span_j
        if high <= 0:
            return 0.0
        return (high - low) / high

    @property
    def has_overlap_region(self) -> bool:
        """A material overlap region: >= 2 points and a real energy drop.

        Compute-bound programs (EP) trade cores/frequency for energy and
        show drops of several percent; I/O-bound programs (memcached) show
        essentially zero (Section IV-B's contrast between Figs. 4 and 5).
        """
        return (
            self.overlap is not None
            and len(self.overlap) >= 2
            and self.overlap_energy_drop >= OVERLAP_MATERIALITY
        )


def analyze_regions(
    space: ConfigSpaceResult,
    frontier: Optional[ParetoFrontier] = None,
    low_power_side: str = "a",
) -> RegionReport:
    """Decompose a configuration space's frontier into its regions.

    Parameters
    ----------
    space:
        The evaluated space (times, energies, composition arrays).
    frontier:
        Pre-computed frontier of ``space``; built here when omitted.
    low_power_side:
        Which group is the low-power type whose homogeneous
        configurations can form the overlap region, as its letter in
        group order ("a" for group 0, "b" for group 1, ...).  The
        paper's ARM is group a throughout this library.
    """
    if frontier is None:
        frontier = ParetoFrontier.from_points(space.times_s, space.energies_j)

    composition = composition_labels(solo_groups(space.n[:, frontier.indices]))
    return regions_from_composition(
        frontier, composition, space.num_groups, low_power_side
    )


def regions_from_composition(
    frontier: ParetoFrontier,
    composition: Tuple[str, ...],
    num_groups: int,
    low_power_side: str = "a",
) -> RegionReport:
    """Region decomposition from per-point composition labels alone.

    The space-free half of :func:`analyze_regions`: everything the
    region analysis needs is the frontier plus each point's composition
    label, both of which the streaming pipeline carries at
    frontier-size.  ``composition`` must be one label per frontier
    point, in frontier order.
    """
    letters = [_group_letter(g) for g in range(num_groups)]
    if low_power_side not in letters:
        raise ValueError(
            f"low_power_side must be one of {letters}, got {low_power_side!r}"
        )
    if len(composition) != len(frontier):
        raise ValueError(
            f"{len(composition)} composition labels for "
            f"{len(frontier)} frontier points"
        )

    # Sweet region: the (first) maximal run of heterogeneous points.
    sweet = _longest_run(frontier, composition, lambda c: c == "hetero")
    # Overlap region: the trailing run of homogeneous low-power points.
    low_label = f"only-{low_power_side}"
    overlap = _trailing_run(frontier, composition, lambda c: c == low_label)

    return RegionReport(
        frontier=frontier,
        composition=composition,
        sweet=sweet,
        overlap=overlap,
    )


def _group_letter(g: int) -> str:
    """The composition letter of group ``g`` ("a" for 0, "b" for 1, ...)."""
    return chr(ord("a") + g)


def _longest_run(frontier: ParetoFrontier, composition, pred) -> Optional[Region]:
    """Longest contiguous run of points satisfying ``pred``."""
    best: Optional[Tuple[int, int]] = None
    start = None
    for i, label in enumerate(composition):
        if pred(label):
            if start is None:
                start = i
        else:
            if start is not None:
                if best is None or (i - start) > (best[1] - best[0]):
                    best = (start, i)
                start = None
    if start is not None:
        i = len(composition)
        if best is None or (i - start) > (best[1] - best[0]):
            best = (start, i)
    if best is None:
        return None
    lo, hi = best
    return Region(
        start=lo,
        stop=hi,
        times_s=frontier.times_s[lo:hi],
        energies_j=frontier.energies_j[lo:hi],
    )


def _trailing_run(frontier: ParetoFrontier, composition, pred) -> Optional[Region]:
    """Maximal run of satisfying points at the frontier's relaxed end."""
    n = len(composition)
    i = n
    while i > 0 and pred(composition[i - 1]):
        i -= 1
    if i == n:
        return None
    return Region(
        start=i,
        stop=n,
        times_s=frontier.times_s[i:n],
        energies_j=frontier.energies_j[i:n],
    )
