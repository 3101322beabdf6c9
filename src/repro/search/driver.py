"""The search feedback loop: propose, evaluate, fold, observe.

:func:`run_search` drives any :class:`~repro.core.candidates.CandidateSource`
to a :class:`SearchedSpace`: per round it asks the source for a batch,
deduplicates rows against everything already evaluated (cached rows cost
no budget and are fed back from memory), pushes the genuinely new rows
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
dedup table, trajectory) is snapshotted, and a resumed run continues
bit-identically because every piece of state round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.candidates import CandidateBatch, CandidateSource
from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult
from repro.core.params import NodeModelParams
from repro.core.pareto import ParetoFrontier
from repro.core.streaming import ReducedSpace, ReducerPass, SpaceBlock
from repro.search.evaluator import evaluate_candidate_rows
from repro.search.space import SearchSpace
from repro.search.trajectory import (
    SearchRound,
    SearchTrajectory,
    frontier_recall,
    hypervolume_2d,
)

RowKey = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[float, ...]]

#: Type of the injectable batch evaluator: (n, cores, f) -> result.
EvaluateFn = Callable[[np.ndarray, np.ndarray, np.ndarray], ConfigSpaceResult]


def row_keys(n: np.ndarray, cores: np.ndarray, f: np.ndarray) -> List[RowKey]:
    """Hashable per-row identities of candidate columns: tuples of
    Python ints and floats, the format checkpoints store."""
    return list(zip(
        map(tuple, np.asarray(n, dtype=np.int64).T.tolist()),
        map(tuple, np.asarray(cores, dtype=np.int64).T.tolist()),
        map(tuple, np.asarray(f, dtype=float).T.tolist()),
    ))


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
        def evaluate_fn(n, cores, f):
            return evaluate_candidate_rows(group_specs, params, units, n, cores, f)

    budget = min(int(budget_rows), space.total_rows)
    reducers = ReducerPass(composition, group_frontiers)
    seen: Dict[RowKey, Tuple[float, float]] = {}
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
        state = checkpoint.load()
        if state is not None:
            reducers.load_state(state["reducers"])
            seen = {
                (tuple(a), tuple(b), tuple(c)): (float(t), float(e))
                for (a, b, c), (t, e) in state["seen"]
            }
            source.load_state(state["source"])
            trajectory = SearchTrajectory.from_dict(state["trajectory"])
            nadir = list(state["nadir"])
            round_index = int(state["round_index"])
            stall = int(state["stall"])

    def _save_checkpoint() -> None:
        checkpoint.save(
            {
                "reducers": reducers.state_dict(),
                "seen": [(k, v) for k, v in seen.items()],
                "source": source.state_dict(),
                "trajectory": trajectory.to_dict(),
                "nadir": list(nadir),
                "round_index": round_index,
                "stall": stall,
            }
        )

    def _evaluate_new(
        n: np.ndarray, cores: np.ndarray, f: np.ndarray, keys: List[RowKey]
    ) -> ConfigSpaceResult:
        data = evaluate_fn(n, cores, f)
        if len(data) != len(keys):
            raise ValueError(
                f"evaluator returned {len(data)} rows for {len(keys)} "
                "candidates"
            )
        reducers.fold(
            SpaceBlock(
                index=reducers.num_blocks, start_row=reducers.total_rows,
                data=data,
            )
        )
        seen.update(
            zip(keys, zip(data.times_s.tolist(), data.energies_j.tolist()))
        )
        nadir[0] = max(nadir[0], float(data.times_s.max()))
        nadir[1] = max(nadir[1], float(data.energies_j.max()))
        return data

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
        pending: List = []
        for genome in space.all_genomes():
            pending.append(genome)
            if len(pending) < batch_rows:
                continue
            _sweep_batch(pending)
            pending = []
        if pending:
            _sweep_batch(pending)

    def _sweep_batch(genomes: List) -> None:
        n, cores, f = space.decode(genomes)
        keys = row_keys(n, cores, f)
        fresh = [i for i, k in enumerate(keys) if k not in seen]
        if not fresh:
            return
        idx = np.asarray(fresh, dtype=np.int64)
        _evaluate_new(
            n[:, idx], cores[:, idx], f[:, idx], [keys[i] for i in fresh]
        )
        _record_round(batch_size=len(fresh), new_rows=len(fresh))

    while reducers.total_rows < budget:
        remaining = budget - reducers.total_rows
        batch = source.propose(min(batch_rows, remaining))
        if batch is None:
            break
        keys = row_keys(batch.n, batch.cores, batch.f)
        fresh = [i for i, k in enumerate(keys) if k not in seen]
        # Within-batch duplicates: keep the first occurrence only.
        first_of: Dict[RowKey, int] = {}
        fresh = [
            i for i in fresh
            if first_of.setdefault(keys[i], i) == i
        ]
        fresh = fresh[:remaining]
        if fresh:
            stall = 0
            idx = np.asarray(fresh, dtype=np.int64)
            _evaluate_new(
                batch.n[:, idx], batch.cores[:, idx], batch.f[:, idx],
                [keys[i] for i in fresh],
            )
        else:
            stall += 1
        # Feed the source the values of every proposed row, cached or new.
        known = [i for i, k in enumerate(keys) if k in seen]
        if len(known) == len(keys):
            times = np.asarray([seen[k][0] for k in keys])
            energies = np.asarray([seen[k][1] for k in keys])
            source.observe(batch, times, energies)
        else:
            # Rows past the budget cut were never evaluated; observe the
            # known prefix only.
            sub = np.asarray(known, dtype=np.int64)
            meta = batch.meta
            if isinstance(meta, tuple):
                meta = tuple(meta[i] for i in known)
            elif isinstance(meta, dict):
                meta = {
                    key: tuple(val[i] for i in known)
                    for key, val in meta.items()
                }
            source.observe(
                CandidateBatch(
                    n=batch.n[:, sub],
                    cores=batch.cores[:, sub],
                    f=batch.f[:, sub],
                    meta=meta,
                ),
                np.asarray([seen[keys[i]][0] for i in known]),
                np.asarray([seen[keys[i]][1] for i in known]),
            )
        _record_round(batch_size=len(batch), new_rows=len(fresh))
        if stall >= stall_rounds:
            break

    unseen = space.total_rows - len(seen)
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
