"""The search feedback loop: propose, evaluate, fold, observe.

:func:`run_search` drives any :class:`~repro.core.candidates.CandidateSource`
to a :class:`SearchedSpace`: per round it asks the source for a batch,
deduplicates rows by genome code against everything already evaluated
(cached rows cost no budget and are fed back from memory), pushes the genuinely new rows
through an injectable ``evaluate_fn`` (the engine supplies one that
fans out over the execution backends), folds the evaluated columns
through the streaming pipeline's own
:class:`~repro.core.streaming.ReducerPass` -- whole-space frontier with
composition and node-count payloads, per-group frontiers with running
offsets -- and hands the combined time/energy columns back to the
source.

The resulting :class:`~repro.core.streaming.ReducedSpace` is therefore
shaped identically to a streamed exhaustive reduction (row indices are
first-evaluation order instead of canonical sweep order), so the
frontier, regions, and reporting stages consume it unchanged.

Termination: the row budget runs out, the source runs dry, or the
source stalls (``stall_rounds`` consecutive rounds proposing nothing
new).  On dry/stall, if the rows never evaluated fit in the remaining
budget the driver finishes the space with a deterministic *completion
sweep* -- which is what guarantees 100% frontier recall on small spaces
whenever the budget covers them.

Checkpoint/resume rides the engine's
:class:`~repro.engine.checkpoint.CheckpointManager`: every
``checkpoint_every`` rounds the full loop state (reducers, source,
evaluated codes with their values, trajectory) is snapshotted under the
agents' :data:`~repro.search.agents.SEARCH_STREAM` version, and a resumed
run continues bit-identically because every piece of state round-trips
exactly.  A checkpoint of another stream version is invalidated and the
search starts cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.candidates import CandidateSource
from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult
from repro.core.params import NodeModelParams
from repro.core.pareto import ParetoFrontier
from repro.core.streaming import ReducedSpace, ReducerPass, SpaceBlock
from repro.search.agents import SEARCH_STREAM
from repro.search.evaluator import CandidateGrids, evaluate_candidate_rows
from repro.search.space import SearchSpace, first_occurrences, isin_sorted
from repro.search.trajectory import (
    SearchRound,
    SearchTrajectory,
    frontier_recall,
    hypervolume_2d,
)

#: Type of the injectable batch evaluator: (n, cores, f) -> result.
EvaluateFn = Callable[[np.ndarray, np.ndarray, np.ndarray], ConfigSpaceResult]


@dataclass
class SearchedSpace:
    """A searched (sampled) space: the reduced artifact plus provenance.

    ``reduced`` is a genuine :class:`~repro.core.streaming.ReducedSpace`
    over the *evaluated subset* -- its frontier indices are
    first-evaluation row order -- so every downstream stage that accepts
    a reduced space accepts this.  The extra fields say how the subset
    was chosen, and ``trajectory`` records the convergence path.
    """

    reduced: ReducedSpace
    trajectory: SearchTrajectory
    strategy: str
    budget_rows: int
    space_rows: int

    @property
    def rows_evaluated(self) -> int:
        return self.reduced.total_rows

    @property
    def coverage(self) -> float:
        """Fraction of the full space actually evaluated."""
        if not self.space_rows:
            return 0.0
        return self.rows_evaluated / self.space_rows

    @property
    def frontier(self) -> Optional[ParetoFrontier]:
        return self.reduced.frontier

    def summary(self) -> Dict[str, Any]:
        out = self.reduced.summary()
        out.update(
            strategy=self.strategy,
            budget_rows=self.budget_rows,
            space_rows=self.space_rows,
            rows_evaluated=self.rows_evaluated,
            coverage=self.coverage,
            rounds=len(self.trajectory.rounds),
        )
        if self.trajectory.final_recall is not None:
            out["frontier_recall"] = self.trajectory.final_recall
        return out


def run_search(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
    units: float,
    source: CandidateSource,
    budget_rows: int,
    batch_rows: int = 4096,
    evaluate_fn: Optional[EvaluateFn] = None,
    best_known: Optional[ParetoFrontier] = None,
    composition: bool = True,
    group_frontiers: bool = True,
    seed: int = 0,
    space: Optional[SearchSpace] = None,
    emit: Optional[Callable[..., None]] = None,
    checkpoint: Optional[Any] = None,
    resume: bool = False,
    checkpoint_every: int = 4,
    stall_rounds: int = 3,
) -> SearchedSpace:
    """Drive ``source`` over the space under a row budget.

    ``budget_rows`` counts *newly evaluated* rows only -- proposing an
    already-evaluated configuration costs nothing (its cached values are
    fed back to the source).  ``evaluate_fn(n, cores, f)`` evaluates one
    batch of new rows; when omitted, evaluation runs in-process through
    :func:`~repro.search.evaluator.evaluate_candidate_rows` (the engine
    injects a backend-parallel one).  ``best_known`` enables exact
    frontier-recall tracking in the trajectory.  ``checkpoint`` is an
    engine :class:`~repro.engine.checkpoint.CheckpointManager`; with
    ``resume`` the loop restores the last snapshot and continues
    bit-identically.
    """
    if budget_rows < 1:
        raise ValueError("search row budget must be at least one row")
    if batch_rows < 1:
        raise ValueError("search batch size must be at least one row")
    if stall_rounds < 1:
        raise ValueError("stall detection needs at least one round")
    if checkpoint_every < 1:
        raise ValueError("checkpoint interval must be at least one round")
    group_specs = tuple(group_specs)
    if space is None:
        space = SearchSpace(group_specs)
    if evaluate_fn is None:
        grids = CandidateGrids.build(group_specs, params)

        def evaluate_fn(n, cores, f):
            return evaluate_candidate_rows(
                group_specs, params, units, n, cores, f, grids=grids
            )

    budget = min(int(budget_rows), space.total_rows)
    reducers = ReducerPass(composition, group_frontiers)
    # Every evaluated row: sorted codes and their times and energies.
    seen = np.empty(0, dtype=np.int64)
    seen_t = np.empty(0)
    seen_e = np.empty(0)
    trajectory = SearchTrajectory(
        strategy=source.name,
        seed=int(seed),
        budget_rows=budget,
        space_rows=space.total_rows,
    )
    nadir = [-np.inf, -np.inf]
    round_index = 0
    stall = 0
    since_save = 0

    if checkpoint is not None and resume:
        state = checkpoint.load(search_stream=SEARCH_STREAM)
        if state is not None:
            reducers.load_state(state["reducers"])
            seen, seen_t, seen_e = state["seen"]
            source.load_state(state["source"])
            trajectory = SearchTrajectory.from_dict(state["trajectory"])
            nadir = list(state["nadir"])
            round_index = int(state["round_index"])
            stall = int(state["stall"])

    def _save_checkpoint() -> None:
        checkpoint.save(
            {
                "search_stream": SEARCH_STREAM,
                "reducers": reducers.state_dict(),
                "seen": (seen, seen_t, seen_e),
                "source": source.state_dict(),
                "trajectory": trajectory.to_dict(),
                "nadir": list(nadir),
                "round_index": round_index,
                "stall": stall,
            }
        )

    def _evaluate_new(codes: np.ndarray, n, cores, f) -> None:
        nonlocal seen, seen_t, seen_e
        data = evaluate_fn(n, cores, f)
        if len(data) != codes.size:
            raise ValueError(
                f"evaluator returned {len(data)} rows for {codes.size} "
                "candidates"
            )
        reducers.fold(
            SpaceBlock(
                index=reducers.num_blocks, start_row=reducers.total_rows,
                data=data,
            )
        )
        order = np.argsort(codes)
        at = np.searchsorted(seen, codes[order])
        seen = np.insert(seen, at, codes[order])
        seen_t = np.insert(seen_t, at, data.times_s[order])
        seen_e = np.insert(seen_e, at, data.energies_j[order])
        nadir[0] = max(nadir[0], float(data.times_s.max()))
        nadir[1] = max(nadir[1], float(data.energies_j.max()))

    def _record_round(batch_size: int, new_rows: int) -> None:
        nonlocal round_index, since_save
        frontier = reducers.main.finish() if reducers.main else None
        round_ = SearchRound(
            index=round_index,
            batch_rows=batch_size,
            new_rows=new_rows,
            rows_evaluated=reducers.total_rows,
            frontier_points=0 if frontier is None else len(frontier),
            hypervolume=hypervolume_2d(frontier, (nadir[0], nadir[1])),
            recall=frontier_recall(frontier, best_known),
        )
        trajectory.add_round(round_)
        if emit is not None:
            emit(
                "search.round",
                strategy=source.name,
                round=round_.index,
                batch_rows=round_.batch_rows,
                new_rows=round_.new_rows,
                rows_evaluated=round_.rows_evaluated,
                frontier_points=round_.frontier_points,
                hypervolume=round_.hypervolume,
                recall=round_.recall,
            )
        round_index += 1
        since_save += 1
        if checkpoint is not None and since_save >= checkpoint_every:
            _save_checkpoint()
            since_save = 0

    def _completion_sweep() -> None:
        """Evaluate every never-seen row, in canonical order."""
        codes = space.all_codes()
        for lo in range(0, codes.size, batch_rows):
            chunk = codes[lo:lo + batch_rows]
            fresh = chunk[~isin_sorted(chunk, seen)]
            if fresh.size:
                _evaluate_new(fresh, *space.decode(fresh))
                _record_round(batch_size=fresh.size, new_rows=fresh.size)

    while reducers.total_rows < budget:
        asked = min(batch_rows, budget - reducers.total_rows)
        batch = source.propose(asked)
        if batch is None:
            break
        if len(batch) > asked:
            raise ValueError(
                f"search source {source.name!r} proposed {len(batch)} rows "
                f"for a batch of at most {asked}"
            )
        codes = space.encode(batch.n, batch.cores, batch.f)
        fresh = first_occurrences(codes, seen)
        if fresh.size:
            stall = 0
            _evaluate_new(
                codes[fresh],
                batch.n[:, fresh], batch.cores[:, fresh], batch.f[:, fresh],
            )
        else:
            stall += 1
        # Feed the source the values of every proposed row, cached or new.
        at = np.searchsorted(seen, codes)
        source.observe(batch, seen_t[at], seen_e[at])
        _record_round(batch_size=len(batch), new_rows=fresh.size)
        if stall >= stall_rounds:
            break

    unseen = space.total_rows - seen.size
    if 0 < unseen <= budget - reducers.total_rows:
        _completion_sweep()

    if checkpoint is not None and since_save > 0:
        _save_checkpoint()

    reduced = reducers.finish()
    return SearchedSpace(
        reduced=reduced,
        trajectory=trajectory,
        strategy=source.name,
        budget_rows=budget,
        space_rows=space.total_rows,
    )
