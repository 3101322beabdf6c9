"""Search agents over the configuration space.

Exhaustive enumeration dies combinatorially: four node types is already
~1.6 M rows and six types with realistic DVFS grids is billions.  This
package finds the energy-deadline frontier by *searching* the space
through the :class:`repro.core.candidates.CandidateSource` protocol
instead of sweeping it:

* :mod:`repro.search.space` -- the genome view of a k-group space
  (one packed ``int64`` code per configuration, mixing per-group
  ``(count, setting)`` gene codes, with admissible presence masks) that
  every agent proposes over, as arrays;
* :mod:`repro.search.evaluator` -- evaluate explicit candidate rows
  through the exact vectorized arithmetic of
  :func:`repro.core.evaluate.evaluate_space_groups` (same config, same
  bits -- what makes frontier recall an exact set comparison);
* :mod:`repro.search.agents` -- the seeded sources: random-walk
  baseline, genetic algorithm with Pareto-rank selection, simulated
  annealing over scalarized objectives;
* :mod:`repro.search.trajectory` -- per-round convergence records
  (rows evaluated, hypervolume, frontier recall vs best-known);
* :mod:`repro.search.driver` -- the feedback loop: propose, evaluate,
  fold through :class:`repro.core.streaming.FrontierReducer`, observe --
  producing a :class:`~repro.search.driver.SearchedSpace` whose
  ``reduced`` artifact plugs into the unchanged frontier/regions
  stages.
"""

from repro.search.agents import (
    SEARCH_STREAM,
    AnnealingSource,
    GeneticSource,
    RandomWalkSource,
    make_source,
)
from repro.search.driver import SearchedSpace, run_search
from repro.search.evaluator import evaluate_candidate_rows
from repro.search.space import SearchSpace
from repro.search.trajectory import SearchRound, SearchTrajectory

__all__ = [
    "SEARCH_STREAM",
    "AnnealingSource",
    "GeneticSource",
    "RandomWalkSource",
    "SearchRound",
    "SearchSpace",
    "SearchTrajectory",
    "SearchedSpace",
    "evaluate_candidate_rows",
    "make_source",
    "run_search",
]
