"""Energy-deadline Pareto frontier (Section IV-B).

A configuration is Pareto-optimal when no other configuration is both at
least as fast and at least as energy-frugal.  Sorted by execution time,
the frontier is the staircase of strictly decreasing minimum energies;
``min_energy_for_deadline(d)`` answers the paper's operational question
-- the least energy that meets deadline ``d`` -- by looking up the last
frontier point with time <= d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


#: Clouds below this many rows skip the prefilter: one lexsort is cheap.
_PREFILTER_MIN_ROWS = 8192
#: About how many evenly strided rows build the prefilter's staircase.
_PREFILTER_SAMPLE = 4096


def pareto_indices(times_s: Sequence[float], energies_j: Sequence[float]) -> np.ndarray:
    """Indices of the Pareto-optimal points, ordered by increasing time.

    O(n log n), fully vectorized: lexsort by (time, energy), take the
    running energy minimum with ``np.minimum.accumulate``, and keep each
    point that strictly improves on the minimum *before* it.  Duplicate
    times keep only the cheapest point; a point that ties the running
    minimum is dominated (weakly) and dropped, so frontier energies are
    strictly decreasing.

    Clouds of ``_PREFILTER_MIN_ROWS`` or more rows first pass an exact
    prefilter, so the lexsort sees about as many rows as survive it.
    The frontier of an evenly strided sample is a staircase of real
    rows; one ``searchsorted`` finds each row's step (the last staircase
    point with time <= its own), and the row is dropped when the step's
    energy is <= its own, unless it is an exact ``(time, energy)``
    duplicate of the step.  Exact: a dropped row comes strictly after a
    kept row in lexsort order with energy >= that row's, so the running
    minimum drops it anyway and removing it cannot lower the minimum for
    any later row; survivors keep their relative order, so stable ties
    and the indices are unchanged.  NaN compares false, so rows with NaN
    time or energy are never dropped and behave as without the prefilter.
    """
    t = np.asarray(times_s, dtype=float)
    e = np.asarray(energies_j, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError("times and energies must be equal-length 1-D arrays")
    if t.size < _PREFILTER_MIN_ROWS:
        return _lexsort_staircase(t, e)
    sample = np.arange(0, t.size, t.size // _PREFILTER_SAMPLE)
    anchors = sample[_lexsort_staircase(t[sample], e[sample])]
    # Anchor times strictly increase (NaN sorts last); rows before the
    # first anchor get step 0 and fail ``step_t <= t``.
    anchor_t, anchor_e = t[anchors], e[anchors]
    step = np.maximum(np.searchsorted(anchor_t, t, side="right") - 1, 0)
    step_t, step_e = anchor_t[step], anchor_e[step]
    drop = (step_t <= t) & (step_e <= e) & ((step_t < t) | (step_e < e))
    survivors = np.flatnonzero(~drop)
    return survivors[_lexsort_staircase(t[survivors], e[survivors])]


def _lexsort_staircase(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The plain pass: lexsort, running minimum, strict improvements."""
    if t.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((e, t))
    e_sorted = e[order]
    running_min = np.minimum.accumulate(e_sorted)
    keep = np.empty(order.size, dtype=bool)
    keep[0] = True
    keep[1:] = e_sorted[1:] < running_min[:-1]
    return order[keep]


def reject_nan_energies(energies_j: np.ndarray) -> None:
    """Raise on a NaN energy, which has no single frontier.

    The batch pass's running minimum carries a NaN energy to every later
    row, which a block-wise fold cannot see, so the two would disagree:
    times ``[1, 2, 3, 4]`` with energies ``[5, nan, 4, 3]`` give ``[0]``
    in one pass and ``[0, 2, 3]`` folded in two blocks.  Every frontier
    builder rejects NaN energies instead.
    """
    if np.isnan(energies_j).any():
        raise ValueError("frontier energies must not be NaN")


@dataclass(frozen=True)
class ParetoFrontier:
    """The frontier as parallel arrays plus the original point indices."""

    times_s: np.ndarray
    energies_j: np.ndarray
    indices: np.ndarray  # into the arrays the frontier was built from

    def __post_init__(self) -> None:
        if not (len(self.times_s) == len(self.energies_j) == len(self.indices)):
            raise ValueError("frontier arrays must be parallel")
        if len(self.times_s) == 0:
            raise ValueError("a frontier needs at least one point")
        if np.any(np.diff(self.times_s) <= 0):
            raise ValueError("frontier times must be strictly increasing")
        if np.any(np.diff(self.energies_j) >= 0):
            raise ValueError("frontier energies must be strictly decreasing")

    @classmethod
    def from_points(
        cls,
        times_s: Sequence[float],
        energies_j: Sequence[float],
    ) -> "ParetoFrontier":
        """Build the frontier of a point cloud (NaN energies raise)."""
        e_all = np.asarray(energies_j, dtype=float)
        reject_nan_energies(e_all)
        idx = pareto_indices(times_s, e_all)
        t = np.asarray(times_s, dtype=float)[idx]
        e = e_all[idx]
        return cls(times_s=t, energies_j=e, indices=idx)

    def __len__(self) -> int:
        return int(self.times_s.size)

    @property
    def fastest_time_s(self) -> float:
        """The tightest deadline any configuration can meet."""
        return float(self.times_s[0])

    @property
    def min_energy_j(self) -> float:
        """The global energy minimum (met at the most relaxed deadline)."""
        return float(self.energies_j[-1])

    def min_energy_for_deadline(self, deadline_s: float) -> Optional[float]:
        """Least energy meeting ``deadline_s``, or ``None`` if unmeetable."""
        if deadline_s < self.times_s[0]:
            return None
        pos = int(np.searchsorted(self.times_s, deadline_s, side="right")) - 1
        return float(self.energies_j[pos])

    def config_index_for_deadline(self, deadline_s: float) -> Optional[int]:
        """Original-point index of the config chosen for ``deadline_s``."""
        if deadline_s < self.times_s[0]:
            return None
        pos = int(np.searchsorted(self.times_s, deadline_s, side="right")) - 1
        return int(self.indices[pos])

    def dominates(self, time_s: float, energy_j: float) -> bool:
        """Whether some frontier point weakly dominates ``(time, energy)``."""
        best = self.min_energy_for_deadline(time_s)
        return best is not None and best <= energy_j

    def savings_vs(self, other: "ParetoFrontier", deadline_s: float) -> Optional[float]:
        """Fractional energy saving of this frontier over ``other`` at a deadline.

        Returns ``None`` when either frontier cannot meet the deadline.
        Positive means this frontier is cheaper.
        """
        mine = self.min_energy_for_deadline(deadline_s)
        theirs = other.min_energy_for_deadline(deadline_s)
        if mine is None or theirs is None or theirs == 0.0:
            return None
        return (theirs - mine) / theirs
