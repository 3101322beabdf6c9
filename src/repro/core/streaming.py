"""Streaming configuration-space pipeline: memory-bounded block reducers.

The vectorized evaluator (:mod:`repro.core.evaluate`) materializes the
whole ``(G, N)`` column stack before anything downstream touches it.  A
three-type scenario is already 84,644 rows; four or five node types push
into hundreds of millions of rows that no single allocation can hold.
This module re-expresses the evaluate -> frontier -> regions ->
planner -> queueing path as a *stream of columnar blocks*:

* :class:`SpaceBlock` -- one contiguous chunk of the space, in the exact
  global row order of :func:`~repro.core.evaluate.evaluate_space_groups`
  (a thin wrapper around a :class:`~repro.core.evaluate.ConfigSpaceResult`
  slice, annotated with its global row offset);
* :func:`plan_block_tasks` -- the deterministic decomposition of a
  k-group space into blocks no larger than a row budget (each
  presence-mask block partitioned over its lead group's counts);
* :func:`iter_space_blocks` -- a serial block source; the engine's
  source (:func:`repro.engine.executor.iter_space_groups_chunked`)
  evaluates each block, and folds it, on an execution backend;
* :class:`FrontierReducer` -- an online Pareto frontier whose final
  point set, order, and original-row indices are **bit-identical** to
  the batch :func:`~repro.core.pareto.pareto_indices` (merging runs the
  same lexsort + ``np.minimum.accumulate`` over the sorted union of the
  running frontier and each block's local frontier);
* :class:`TopKReducer` -- bounded best-k candidate selection (the
  planner's and what-if's streaming picks);
* :class:`ReducerPass` -- the one fold of evaluated rows into the
  frontier, per-group homogeneous frontiers, and region-composition
  reducers (plus any extra consumers, e.g. the queueing layer's
  :class:`~repro.queueing.dispatcher.Figure10Reducer`), and the merge of
  two such folds, finishing as a compact :class:`ReducedSpace`;
  :func:`reduce_space_blocks` drives one pass over a plan-ordered stream
  of blocks or of block-task folds;
* :class:`SpaceSpill` / :func:`load_spilled_space` -- optional
  memory-mapped ``.npy`` spill for when the full space must be retained
  for reporting without holding it in RAM.

No stage ever holds more than the configured ``memory_budget_mb`` of
rows: blocks are sized by :func:`max_rows_for_budget` from the row width
(including the vectorized evaluator's transient arrays), and every
reducer's state is frontier-sized, not space-sized.  Streaming changes
*where* results live, never what they are -- property tests pin every
reduced artifact bit-for-bit against the materialized path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core import evaluate as _evaluate
from repro.core.candidates import BlockTask, ExhaustiveSource
from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult
from repro.core.params import NodeModelParams
from repro.core.pareto import ParetoFrontier, pareto_indices, reject_nan_energies

#: Default peak-memory budget for streaming evaluation, megabytes.
DEFAULT_MEMORY_BUDGET_MB = 256.0


def block_row_bytes(num_groups: int) -> int:
    """Peak bytes one configuration row costs while its block is live.

    The output columns are ``4 G + 2`` float64/int64 values per row
    (``n``/``cores``/``f``/``units`` per group plus time and energy); the
    vectorized evaluator additionally holds roughly six transient arrays
    per present group (broadcast count/setting indices, gammas, floors,
    work splits, per-group energies) while a block is being computed.
    ``80 G + 32`` bytes per row covers both with headroom.
    """
    if num_groups < 1:
        raise ValueError("need at least one node-type group")
    return 8 * (10 * num_groups + 4)


def max_rows_for_budget(
    memory_budget_mb: float,
    num_groups: int,
    inflight_blocks: int = 1,
) -> int:
    """Largest block row count that keeps peak memory under the budget.

    ``inflight_blocks`` is how many blocks can be alive at once -- 1 for
    the serial source, ``window + 1`` for the parallel source, which
    holds completed-but-unconsumed blocks in its re-ordering window.
    """
    if memory_budget_mb <= 0:
        raise ValueError("memory budget must be positive")
    budget_bytes = memory_budget_mb * 2**20
    per_row = block_row_bytes(num_groups) * max(1, int(inflight_blocks))
    return max(1, int(budget_bytes // per_row))


def plan_block_tasks(
    group_specs: Sequence[GroupSpec],
    max_block_rows: int,
    min_chunks: int = 1,
) -> List[BlockTask]:
    """Decompose a k-group space into ordered blocks under a row budget.

    A thin wrapper around
    :meth:`repro.core.candidates.ExhaustiveSource.plan_blocks`, where
    the canonical decomposition now lives (it mirrors
    :func:`~repro.core.evaluate.evaluate_space_groups`'s row order
    exactly; see that method for the chunking rules).  Kept here because
    the streaming pipeline and executor plan through this name.
    """
    return ExhaustiveSource(group_specs).plan_blocks(
        max_block_rows=max_block_rows, min_chunks=min_chunks
    )


def evaluate_block_task(
    group_specs: Tuple[GroupSpec, ...],
    params: Mapping[str, NodeModelParams],
    units: float,
    task_counts: Tuple[Tuple[int, ...], ...],
    grids: Optional[Sequence[Any]] = None,
) -> ConfigSpaceResult:
    """Evaluate one :class:`BlockTask` (top-level, so pools can pickle it);
    ``grids`` are the whole space's setting grids, built when omitted."""
    import dataclasses

    adjusted = tuple(
        dataclasses.replace(gs, counts=counts)
        for gs, counts in zip(group_specs, task_counts)
    )
    return _evaluate.evaluate_space_groups(adjusted, params, units, grids=grids)


@dataclass(frozen=True)
class SpaceBlock:
    """One streamed chunk of the configuration space.

    ``data`` holds the chunk's columns (a perfectly ordinary
    :class:`~repro.core.evaluate.ConfigSpaceResult`); ``start_row`` is
    the chunk's offset in the global row order, so
    ``start_row + i`` is row ``data[i]``'s index in the materialized
    space -- what keeps streamed frontier indices bit-identical to the
    batch ones.
    """

    index: int
    start_row: int
    data: ConfigSpaceResult

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def stop_row(self) -> int:
        return self.start_row + self.rows

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


def count_space_rows(group_specs: Sequence[GroupSpec]) -> int:
    """Exact row count of a k-group space without evaluating it."""
    total = 0
    for task in plan_block_tasks(tuple(group_specs), max_block_rows=2**62):
        total += task.rows
    return total


def iter_space_blocks(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
    units: float,
    memory_budget_mb: Optional[float] = None,
    max_block_rows: Optional[int] = None,
) -> Iterator[SpaceBlock]:
    """Serial block source: evaluate the space chunk by chunk, in order.

    Yields :class:`SpaceBlock`s in the exact global row order of
    :func:`~repro.core.evaluate.evaluate_space_groups`; concatenating
    every block's columns reproduces the materialized space bit-for-bit.
    Block sizes come from ``max_block_rows`` or, when omitted, from
    :func:`max_rows_for_budget` applied to ``memory_budget_mb`` (the
    module default when both are omitted).
    """
    if units <= 0:
        raise ValueError("job must contain positive work")
    group_specs = tuple(group_specs)
    if not group_specs:
        raise ValueError("need at least one node-type group")
    if max_block_rows is None:
        budget = (
            DEFAULT_MEMORY_BUDGET_MB if memory_budget_mb is None
            else float(memory_budget_mb)
        )
        max_block_rows = max_rows_for_budget(budget, len(group_specs))
    tasks = plan_block_tasks(group_specs, max_block_rows)
    if not tasks:
        raise ValueError(
            "no configurations to evaluate: the count lists admit neither a "
            "heterogeneous nor a homogeneous block"
        )
    grids = _evaluate._group_grids(group_specs, params)
    start = 0
    for index, task in enumerate(tasks):
        data = evaluate_block_task(
            group_specs, params, units, task.counts, grids=grids
        )
        yield SpaceBlock(index=index, start_row=start, data=data)
        start += len(data)


# ---------------------------------------------------------------------------
# Incremental reducers
# ---------------------------------------------------------------------------


class FrontierReducer:
    """Online energy-deadline Pareto frontier over streamed columns.

    Feed blocks of ``(times, energies)`` with their global row offsets;
    :meth:`finish` returns a :class:`~repro.core.pareto.ParetoFrontier`
    whose times, energies, *and original-point indices* are bit-identical
    to ``ParetoFrontier.from_points`` over the concatenated columns.

    The merge is exact, not approximate: each block is first reduced to
    its local frontier with :func:`~repro.core.pareto.pareto_indices`,
    then the union of (running frontier, local frontier) goes through the
    same lexsort + ``np.minimum.accumulate`` pass.  Because blocks arrive
    in global row order, running-frontier entries always precede
    same-valued block entries in the union array *and* carry smaller
    global indices, so the stable lexsort resolves duplicate
    ``(time, energy)`` points exactly as the batch path does (first
    occurrence wins).  State is frontier-sized, never space-sized.

    ``extra_names`` declares per-point payload columns (the queueing
    reducer's service times and node counts) that are selected and merged
    alongside the frontier.
    """

    def __init__(self, extra_names: Sequence[str] = ()):
        self._t = np.empty(0, dtype=float)
        self._e = np.empty(0, dtype=float)
        self._idx = np.empty(0, dtype=np.int64)
        self._extra: Dict[str, np.ndarray] = {
            name: np.empty(0) for name in extra_names
        }
        self._rows_seen = 0

    @property
    def rows_seen(self) -> int:
        """Rows consumed so far (the next implicit ``start_row``)."""
        return self._rows_seen

    def __len__(self) -> int:
        return int(self._t.size)

    def update(
        self,
        times_s: np.ndarray,
        energies_j: np.ndarray,
        start_row: Optional[int] = None,
        extra: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        """Fold one block of points into the running frontier."""
        times_s = np.asarray(times_s, dtype=float)
        energies_j = np.asarray(energies_j, dtype=float)
        if start_row is None:
            start_row = self._rows_seen
        if times_s.size == 0:
            return
        reject_nan_energies(energies_j)
        keep = pareto_indices(times_s, energies_j)
        cand_t = np.concatenate([self._t, times_s[keep]])
        cand_e = np.concatenate([self._e, energies_j[keep]])
        cand_idx = np.concatenate(
            [self._idx, keep.astype(np.int64) + int(start_row)]
        )
        sel = pareto_indices(cand_t, cand_e)
        self._t, self._e, self._idx = cand_t[sel], cand_e[sel], cand_idx[sel]
        for name in self._extra:
            if extra is None or name not in extra:
                raise ValueError(f"update is missing extra column {name!r}")
            vals = np.asarray(extra[name])
            cand = np.concatenate([self._extra[name], vals[keep]]) if (
                self._extra[name].size
            ) else vals[keep]
            self._extra[name] = cand[sel]
        self._rows_seen = int(start_row) + int(times_s.size)

    def merge(
        self, state: Mapping[str, Any], index_offset: int = 0
    ) -> None:
        """Fold another reducer's :meth:`state_dict` into this one.

        Bit-identical to having :meth:`update`-folded the other reducer's
        input blocks directly, provided this reducer's rows all precede
        the other's in the global row order (``index_offset`` shifts the
        other state's indices into that order; the whole-space reducer
        merges with offset 0 because block tasks record global rows).
        The identity holds because :func:`~repro.core.pareto.pareto_indices`
        is idempotent -- a block task's local frontier *is* ``block[keep]``
        from a direct fold, so the union arrays match element for
        element and the stable lexsort resolves duplicates identically.
        Merging is associative for the same reason: any parenthesization
        reduces the same ordered union.
        """
        if set(state["extra"]) != set(self._extra):
            raise ValueError(
                f"merge extras {sorted(state['extra'])} do not match "
                f"this reducer's {sorted(self._extra)}"
            )
        other_t = np.asarray(state["t"], dtype=float)
        other_e = np.asarray(state["e"], dtype=float)
        other_idx = np.asarray(state["idx"], dtype=np.int64)
        if other_t.size == 0 and int(state["rows_seen"]) == 0:
            return
        reject_nan_energies(other_e)
        cand_t = np.concatenate([self._t, other_t])
        cand_e = np.concatenate([self._e, other_e])
        cand_idx = np.concatenate(
            [self._idx, other_idx + int(index_offset)]
        )
        sel = pareto_indices(cand_t, cand_e)
        self._t, self._e, self._idx = cand_t[sel], cand_e[sel], cand_idx[sel]
        for name in self._extra:
            vals = np.asarray(state["extra"][name])
            cand = np.concatenate([self._extra[name], vals]) if (
                self._extra[name].size
            ) else vals
            self._extra[name] = cand[sel]
        self._rows_seen = int(index_offset) + int(state["rows_seen"])

    def extra(self, name: str) -> np.ndarray:
        """Payload column of the current frontier points, in frontier order."""
        return self._extra[name]

    def finish(self) -> Optional[ParetoFrontier]:
        """The final frontier, or ``None`` when no point was ever seen."""
        if self._t.size == 0:
            return None
        return ParetoFrontier(
            times_s=self._t, energies_j=self._e, indices=self._idx
        )

    # ---- checkpoint support --------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """A picklable snapshot; folding from it is bit-identical to never
        having paused (the state *is* the whole running frontier)."""
        return {
            "t": self._t.copy(),
            "e": self._e.copy(),
            "idx": self._idx.copy(),
            "extra": {name: col.copy() for name, col in self._extra.items()},
            "rows_seen": self._rows_seen,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (extras must match)."""
        if set(state["extra"]) != set(self._extra):
            raise ValueError(
                f"checkpoint extras {sorted(state['extra'])} do not match "
                f"this reducer's {sorted(self._extra)}"
            )
        self._t = np.asarray(state["t"], dtype=float).copy()
        self._e = np.asarray(state["e"], dtype=float).copy()
        self._idx = np.asarray(state["idx"], dtype=np.int64).copy()
        self._extra = {
            name: np.asarray(col).copy() for name, col in state["extra"].items()
        }
        self._rows_seen = int(state["rows_seen"])


class TopKReducer:
    """Keep the ``k`` lexicographically smallest (key, payload) pairs.

    Keys must be totally ordered tuples (callers append a global row
    index as the final component, making ties impossible); payloads are
    arbitrary objects (the planner streams :class:`~repro.core.planner.Plan`
    candidates through this).  State is ``O(k)``.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("top-k needs k >= 1")
        self.k = int(k)
        self._items: List[Tuple[Any, Any]] = []

    def __len__(self) -> int:
        return len(self._items)

    def update(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Fold a batch of (key, payload) candidates."""
        merged = list(self._items)
        merged.extend(items)
        merged.sort(key=lambda kv: kv[0])
        self._items = merged[: self.k]

    def merge(self, state: Mapping[str, Any]) -> None:
        """Fold another reducer's :meth:`state_dict` into this one.

        Keys are totally ordered (callers embed the global row index), so
        the merged top-k is independent of fold vs merge order --
        associativity for free.
        """
        if int(state["k"]) != self.k:
            raise ValueError(
                f"cannot merge a top-{state['k']} state into a "
                f"top-{self.k} reducer"
            )
        self.update(state["items"])

    def finish(self) -> List[Tuple[Any, Any]]:
        """The k best (key, payload) pairs, best first."""
        return list(self._items)

    def state_dict(self) -> Dict[str, Any]:
        """Checkpoint snapshot (see :func:`reduce_space_blocks`)."""
        return {"k": self.k, "items": list(self._items)}

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into this reducer."""
        if int(state["k"]) != self.k:
            raise ValueError(
                f"checkpoint holds a top-{state['k']} state, this reducer "
                f"keeps top-{self.k}"
            )
        self._items = list(state["items"])


def solo_groups(n: np.ndarray) -> np.ndarray:
    """Per-row single present group index, or -1 for heterogeneous rows."""
    present = n > 0
    # A single-group row's sum of present group indices is its group;
    # int16 sums are 4x faster than ``argmax`` along axis 0.
    count = present.sum(axis=0, dtype=np.int16)
    which = (np.arange(len(n), dtype=np.int16)[:, None] * present).sum(axis=0, dtype=np.int16)
    return np.where(count == 1, which, -1).astype(np.int64)


@dataclass
class ReducedSpace:
    """The streamed pipeline's compact artifact: reductions, not rows.

    This is what the engine's space stage caches -- everything the
    frontier, regions, reporting, and queueing stages need, at
    frontier-size instead of space-size.  ``frontier.indices`` (and the
    per-group frontiers' indices into their homogeneous subsets) are
    bit-identical to the materialized path's.
    """

    nodes: Tuple[str, ...]
    units_total: float
    total_rows: int
    num_blocks: int
    #: Bytes the materialized column stack would occupy.
    full_nbytes: int
    #: Largest single block observed during the pass.
    peak_block_nbytes: int
    frontier: Optional[ParetoFrontier] = None
    #: Per-frontier-point composition labels ("hetero" / "only-a" / ...).
    composition: Optional[Tuple[str, ...]] = None
    #: ``(G, F)`` node counts of each frontier point.
    frontier_n: Optional[np.ndarray] = None
    group_frontiers: Optional[Tuple[Optional[ParetoFrontier], ...]] = None
    #: Figure 10 window series, when a queueing consumer ran in the pass.
    queueing: Optional[Dict[float, List[Any]]] = None

    @property
    def num_groups(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return self.total_rows

    def summary(self) -> Dict[str, Any]:
        """Plain-data digest for reporting sinks."""
        out: Dict[str, Any] = {
            "nodes": list(self.nodes),
            "configurations": self.total_rows,
            "blocks": self.num_blocks,
            "full_nbytes": self.full_nbytes,
            "peak_block_nbytes": self.peak_block_nbytes,
        }
        if self.frontier is not None:
            out["frontier_points"] = len(self.frontier)
        return out


def composition_labels(solo: np.ndarray) -> Tuple[str, ...]:
    """Composition labels from per-point solo-group indices."""
    return tuple(
        "hetero" if g < 0 else f"only-{chr(ord('a') + int(g))}" for g in solo
    )


class ReducerPass:
    """The one fold over evaluated rows, and the merge of two such folds.

    Owns the whole-space :class:`FrontierReducer` (with a ``solo``
    composition payload and one ``n{g}`` node-count payload per group),
    one reducer per node-type group for the homogeneous frontiers with
    its running row offset, the row/block/byte counters a
    :class:`ReducedSpace` reports, and any extra ``consumers`` -- objects
    with ``update(block)`` (and, to merge or checkpoint, ``merge(state)``
    / ``state_dict()`` / ``load_state(state)``), e.g. the queueing
    layer's :class:`~repro.queueing.dispatcher.Figure10Reducer` or a
    :class:`SpaceSpill`.

    :meth:`fold` is the only per-block body.  A block task folds its
    block through a fresh pass and ships :meth:`state_dict`; the
    coordinator :meth:`merge`\\ s those states in plan order.  Merging is
    bit-identical to folding the same blocks here because
    :func:`~repro.core.pareto.pareto_indices` is idempotent: the task's
    local frontier is exactly the ``block[keep]`` subset a fold would
    form, whole-space indices are global already, and each group's
    local indices are shifted by this pass's running group offset.
    """

    def __init__(
        self,
        composition: bool = True,
        group_frontiers: bool = True,
        consumers: Sequence[Any] = (),
    ):
        self.composition = composition
        self.group_frontiers = group_frontiers
        self.consumers = list(consumers)
        self.main: Optional[FrontierReducer] = None
        self.per_group: List[FrontierReducer] = []
        self.group_offsets: List[int] = []
        self.nodes: Tuple[str, ...] = ()
        self.units_total = 0.0
        self.total_rows = 0
        self.num_blocks = 0
        self.full_nbytes = 0
        self.peak_block = 0

    def _start(self, nodes: Sequence[str], units_total: float) -> None:
        self.nodes = tuple(nodes)
        self.units_total = float(units_total)
        extras = (["solo"] if self.composition else []) + [
            f"n{g}" for g in range(len(self.nodes))
        ]
        self.main = FrontierReducer(extra_names=extras)
        if self.group_frontiers:
            self.per_group = [FrontierReducer() for _ in self.nodes]
            self.group_offsets = [0] * len(self.nodes)

    def _count(self, rows: int, num_blocks: int, nbytes: int, peak: int) -> None:
        self.total_rows += int(rows)
        self.num_blocks += int(num_blocks)
        self.full_nbytes += int(nbytes)
        self.peak_block = max(self.peak_block, int(peak))

    def fold(self, block: SpaceBlock) -> None:
        """Fold one evaluated block, whose rows start at ``block.start_row``."""
        data = block.data
        if self.main is None:
            self._start(data.nodes, data.units_total)
        extra: Dict[str, np.ndarray] = {
            f"n{g}": data.n[g] for g in range(data.num_groups)
        }
        solo = None
        if self.composition or self.group_frontiers:
            solo = solo_groups(data.n)
        if self.composition:
            extra["solo"] = solo
        self.main.update(
            data.times_s, data.energies_j, start_row=block.start_row,
            extra=extra,
        )
        for g, reducer in enumerate(self.per_group):
            mask = solo == g
            hit = int(np.count_nonzero(mask))
            if hit:
                reducer.update(
                    data.times_s[mask],
                    data.energies_j[mask],
                    start_row=self.group_offsets[g],
                )
            self.group_offsets[g] += hit
        for consumer in self.consumers:
            consumer.update(block)
        self._count(len(data), 1, data.nbytes, data.nbytes)

    def merge(self, state: Mapping[str, Any]) -> None:
        """Fold another pass's :meth:`state_dict`, whose rows follow this
        pass's rows in the global order."""
        if len(state["consumers"]) != len(self.consumers):
            raise ValueError(
                f"reducer state carries {len(state['consumers'])} consumer "
                f"states for {len(self.consumers)} consumers"
            )
        if self.main is None:
            self._start(state["nodes"], state["units_total"])
        self.main.merge(state["main"])
        if self.group_frontiers:
            if len(state["groups"]) != len(self.per_group):
                raise ValueError(
                    "reducer state's group-frontier count does not match "
                    "this pass"
                )
            for g, reducer in enumerate(self.per_group):
                reducer.merge(
                    state["groups"][g], index_offset=self.group_offsets[g]
                )
                self.group_offsets[g] += int(state["group_offsets"][g])
        for consumer, consumer_state in zip(self.consumers, state["consumers"]):
            consumer.merge(consumer_state)
        self._count(
            state["total_rows"], state["num_blocks"], state["full_nbytes"],
            state["peak_block_nbytes"],
        )

    def finish(self) -> ReducedSpace:
        """The compact artifact of everything folded or merged so far."""
        if self.main is None:
            raise ValueError("no rows to reduce: nothing was folded")
        frontier = self.main.finish()
        reduced = ReducedSpace(
            nodes=self.nodes,
            units_total=self.units_total,
            total_rows=self.total_rows,
            num_blocks=self.num_blocks,
            full_nbytes=self.full_nbytes,
            peak_block_nbytes=self.peak_block,
            frontier=frontier,
        )
        if frontier is not None:
            reduced.frontier_n = np.stack(
                [self.main.extra(f"n{g}") for g in range(len(self.nodes))]
            ).astype(np.int64)
            if self.composition:
                reduced.composition = composition_labels(
                    self.main.extra("solo")
                )
        if self.group_frontiers:
            reduced.group_frontiers = tuple(
                r.finish() for r in self.per_group
            )
        return reduced

    # ---- checkpoint support --------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The full snapshot one checkpoint stores (and one block task
        ships); every block folded so far is a plan prefix."""
        return {
            "blocks_done": self.num_blocks,
            "completed_blocks": tuple(range(self.num_blocks)),
            "nodes": self.nodes,
            "units_total": self.units_total,
            "total_rows": self.total_rows,
            "num_blocks": self.num_blocks,
            "full_nbytes": self.full_nbytes,
            "peak_block_nbytes": self.peak_block,
            "group_offsets": list(self.group_offsets),
            "main": None if self.main is None else self.main.state_dict(),
            "groups": [r.state_dict() for r in self.per_group],
            "consumers": [c.state_dict() for c in self.consumers],
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Also reads the search driver's snapshots, which carry no
        ``blocks_done``/``consumers`` and may hold ``main=None``.
        """
        saved_consumers = state.get("consumers", ())
        if len(saved_consumers) != len(self.consumers):
            raise ValueError(
                f"checkpoint carries {len(saved_consumers)} consumer states "
                f"for {len(self.consumers)} consumers"
            )
        self.nodes = tuple(state["nodes"])
        self.units_total = float(state["units_total"])
        self.total_rows = int(state["total_rows"])
        self.num_blocks = int(state["num_blocks"])
        self.full_nbytes = int(state["full_nbytes"])
        self.peak_block = int(state["peak_block_nbytes"])
        if state["main"] is not None:
            self._start(self.nodes, self.units_total)
            self.main.load_state(state["main"])
            if self.group_frontiers:
                if len(state["groups"]) != len(self.per_group):
                    raise ValueError(
                        "checkpoint group-frontier count does not match "
                        "this pass"
                    )
                for reducer, group_state in zip(self.per_group, state["groups"]):
                    reducer.load_state(group_state)
                self.group_offsets = list(state["group_offsets"])
        for consumer, consumer_state in zip(self.consumers, saved_consumers):
            consumer.load_state(consumer_state)


@dataclass(frozen=True)
class BlockReduction:
    """One block folded where it was evaluated: the :meth:`ReducerPass.state_dict`
    of a fresh pass over that block alone, tagged with its plan index."""

    index: int
    state: Dict[str, Any]


def fold_block_reduction(
    block: SpaceBlock, queueing: Optional[Mapping[str, Any]] = None
) -> BlockReduction:
    """Fold one block through a fresh :class:`ReducerPass` (the block task's
    half of the reduction).  ``queueing``, when given, is the keyword
    mapping a :class:`~repro.queueing.dispatcher.Figure10Reducer` is
    built from."""
    consumers = []
    if queueing is not None:
        from repro.queueing.dispatcher import Figure10Reducer

        consumers.append(Figure10Reducer(**dict(queueing)))
    reducers = ReducerPass(consumers=consumers)
    reducers.fold(block)
    return BlockReduction(index=block.index, state=reducers.state_dict())


def reduce_space_blocks(
    blocks: Iterable[Any],
    group_frontiers: bool = True,
    composition: bool = True,
    consumers: Sequence[Any] = (),
    fold_hook: Optional[Any] = None,
    checkpoint_save: Optional[Any] = None,
    checkpoint_every: int = 8,
    initial: Optional[Mapping[str, Any]] = None,
) -> ReducedSpace:
    """Drive one :class:`ReducerPass` over a plan-ordered stream.

    ``blocks`` yields :class:`SpaceBlock`\\ s, which are folded here, or
    :class:`BlockReduction`\\ s folded where they were evaluated, which
    are merged; either way the result is the same :class:`ReducedSpace`.
    ``consumers`` receive every folded block (or merge every shipped
    consumer state, position for position).

    Checkpoint/resume: when ``checkpoint_save`` is given, the pass's
    :meth:`~ReducerPass.state_dict` is handed to it every
    ``checkpoint_every`` blocks (and once more at the end); ``initial``
    restores such a snapshot, in which case ``blocks`` must yield exactly
    the plan's remaining blocks (indices ``blocks_done``, ``+1``, ...).
    Because blocks arrive in plan order and every reducer is
    deterministic, a resumed pass is bit-identical to an uninterrupted
    one.  ``fold_hook(block_index)`` runs in-process before each block --
    the fault-injection point for simulated mid-stream aborts.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint interval must be at least one block")
    if checkpoint_save is not None:
        opaque = [
            type(c).__name__ for c in consumers if not hasattr(c, "state_dict")
        ]
        if opaque:
            raise ValueError(
                f"cannot checkpoint consumers without state_dict/load_state: "
                f"{opaque}"
            )
    reducers = ReducerPass(composition, group_frontiers, consumers)
    if initial is not None:
        reducers.load_state(initial)
    since_save = 0
    for block in blocks:
        if block.index != reducers.num_blocks:
            raise ValueError(
                f"blocks must arrive in plan order: expected index "
                f"{reducers.num_blocks}, got {block.index}"
            )
        if fold_hook is not None:
            fold_hook(block.index)
        if isinstance(block, BlockReduction):
            reducers.merge(block.state)
        else:
            reducers.fold(block)
        since_save += 1
        if checkpoint_save is not None and since_save >= checkpoint_every:
            checkpoint_save(reducers.state_dict())
            since_save = 0
    if reducers.main is None:
        raise ValueError("no blocks to reduce: the space is empty")
    if checkpoint_save is not None and since_save > 0:
        checkpoint_save(reducers.state_dict())
    return reducers.finish()


def streaming_frontier(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
    units: float,
    memory_budget_mb: Optional[float] = None,
) -> ParetoFrontier:
    """The space's Pareto frontier without ever materializing the space.

    Bit-identical to ``ParetoFrontier.from_points`` over the full
    evaluation; peak memory is bounded by ``memory_budget_mb``.
    """
    reduced = reduce_space_blocks(
        iter_space_blocks(
            group_specs, params, units, memory_budget_mb=memory_budget_mb
        ),
        group_frontiers=False,
        composition=False,
    )
    assert reduced.frontier is not None  # non-empty space always has one
    return reduced.frontier


# ---------------------------------------------------------------------------
# Memory-mapped spill
# ---------------------------------------------------------------------------

_SPILL_COLUMNS = ("n", "cores", "f", "units", "times_s", "energies_j")


@dataclass
class SpaceSpill:
    """Spill streamed blocks to memory-mapped ``.npy`` column files.

    A consumer for :func:`reduce_space_blocks`: when the full space must
    be retained for reporting (the CLI's ``--csv`` cloud export), blocks
    are appended to on-disk columns instead of RAM; :meth:`finish`
    returns a :class:`~repro.core.evaluate.ConfigSpaceResult` backed by
    the memmaps, so downstream consumers work unchanged while resident
    memory stays block-sized.  ``total_rows`` must be the exact space
    size (:func:`count_space_rows`).
    """

    directory: Path
    nodes: Tuple[str, ...]
    units_total: float
    total_rows: int
    _cols: Dict[str, np.memmap] = field(default_factory=dict, repr=False)
    _written: int = 0

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.nodes = tuple(self.nodes)
        g, n = len(self.nodes), int(self.total_rows)
        shapes = {
            "n": ((g, n), np.int64),
            "cores": ((g, n), np.int64),
            "f": ((g, n), float),
            "units": ((g, n), float),
            "times_s": ((n,), float),
            "energies_j": ((n,), float),
        }
        for name in _SPILL_COLUMNS:
            shape, dtype = shapes[name]
            self._cols[name] = np.lib.format.open_memmap(
                self.directory / f"{name}.npy", mode="w+",
                dtype=dtype, shape=shape,
            )
        (self.directory / "meta.json").write_text(
            json.dumps(
                {
                    "nodes": list(self.nodes),
                    "units_total": self.units_total,
                    "total_rows": n,
                }
            )
        )

    def update(self, block: SpaceBlock) -> None:
        lo, hi = block.start_row, block.stop_row
        if hi > self.total_rows:
            raise ValueError(
                f"block rows {lo}:{hi} overflow the declared "
                f"{self.total_rows}-row spill"
            )
        data = block.data
        for name in ("n", "cores", "f", "units"):
            self._cols[name][:, lo:hi] = getattr(data, name)
        self._cols["times_s"][lo:hi] = data.times_s
        self._cols["energies_j"][lo:hi] = data.energies_j
        self._written += block.rows

    def finish(self) -> ConfigSpaceResult:
        if self._written != self.total_rows:
            raise ValueError(
                f"spill saw {self._written} rows of the declared "
                f"{self.total_rows}"
            )
        for col in self._cols.values():
            col.flush()
        return load_spilled_space(self.directory)


def load_spilled_space(directory) -> ConfigSpaceResult:
    """Re-open a spilled space as a memmap-backed ``ConfigSpaceResult``."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    arrays = {
        name: np.load(directory / f"{name}.npy", mmap_mode="r")
        for name in _SPILL_COLUMNS
    }
    return ConfigSpaceResult(
        nodes=tuple(meta["nodes"]),
        n=arrays["n"],
        cores=arrays["cores"],
        f=arrays["f"],
        units=arrays["units"],
        times_s=arrays["times_s"],
        energies_j=arrays["energies_j"],
        units_total=float(meta["units_total"]),
    )
