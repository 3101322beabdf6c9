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
* :func:`iter_space_blocks` -- a serial block source; the parallel twin
  (:func:`repro.engine.executor.iter_space_groups_chunked`) overlaps
  evaluation with reduction on a process pool;
* :class:`FrontierReducer` -- an online Pareto frontier whose final
  point set, order, and original-row indices are **bit-identical** to
  the batch :func:`~repro.core.pareto.pareto_indices` (merging runs the
  same lexsort + ``np.minimum.accumulate`` over the sorted union of the
  running frontier and each block's local frontier);
* :class:`TopKReducer` -- bounded best-k candidate selection (the
  planner's and what-if's streaming picks);
* :func:`reduce_space_blocks` -- one pass driving the frontier,
  per-group homogeneous frontiers, and region-composition reducers (plus
  any extra consumers, e.g. the queueing layer's
  :class:`~repro.queueing.dispatcher.Figure10Reducer`) into a compact
  :class:`ReducedSpace` artifact;
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
from repro.core.pareto import ParetoFrontier, pareto_indices

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
) -> ConfigSpaceResult:
    """Evaluate one :class:`BlockTask` (top-level, so pools can pickle it)."""
    import dataclasses

    adjusted = tuple(
        dataclasses.replace(gs, counts=counts)
        for gs, counts in zip(group_specs, task_counts)
    )
    return _evaluate.evaluate_space_groups(adjusted, params, units)


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
    start = 0
    for index, task in enumerate(tasks):
        data = evaluate_block_task(group_specs, params, units, task.counts)
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
        folds with offset 0 because workers already record global rows).
        The identity holds because :func:`~repro.core.pareto.pareto_indices`
        is idempotent -- a worker's local frontier *is* ``block[keep]``
        from the coordinator fold, so the union arrays match element for
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

    This is what the engine caches in streaming mode -- everything the
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


def _reducer_pass_state(
    blocks_done: int,
    nodes: Tuple[str, ...],
    units_total: float,
    counters: Tuple[int, int, int, int],
    group_offsets: Sequence[int],
    main: "FrontierReducer",
    per_group: Sequence["FrontierReducer"],
    consumers: Sequence[Any],
) -> Dict[str, Any]:
    """The full reducer-pass snapshot one checkpoint stores."""
    total_rows, num_blocks, full_nbytes, peak_block = counters
    return {
        "blocks_done": int(blocks_done),
        "completed_blocks": tuple(range(int(blocks_done))),
        "nodes": tuple(nodes),
        "units_total": float(units_total),
        "total_rows": int(total_rows),
        "num_blocks": int(num_blocks),
        "full_nbytes": int(full_nbytes),
        "peak_block_nbytes": int(peak_block),
        "group_offsets": list(group_offsets),
        "main": main.state_dict(),
        "groups": [r.state_dict() for r in per_group],
        "consumers": [c.state_dict() for c in consumers],
    }


def reduce_space_blocks(
    blocks: Iterable[SpaceBlock],
    group_frontiers: bool = True,
    composition: bool = True,
    consumers: Sequence[Any] = (),
    fold_hook: Optional[Any] = None,
    checkpoint_save: Optional[Any] = None,
    checkpoint_every: int = 8,
    initial: Optional[Mapping[str, Any]] = None,
) -> ReducedSpace:
    """One streaming pass: fold every block into the standard reducers.

    Drives the whole-space :class:`FrontierReducer` (with composition and
    node-count payloads for the regions stage), one masked reducer per
    node-type group (the homogeneous frontiers), and any extra
    ``consumers`` -- objects with an ``update(block)`` method, e.g. the
    queueing layer's :class:`~repro.queueing.dispatcher.Figure10Reducer`
    or a :class:`SpaceSpill` -- all in a single iteration, so evaluation
    work is never repeated per stage.

    Checkpoint/resume: when ``checkpoint_save`` is given, a snapshot of
    every reducer plus the count of folded blocks is handed to it every
    ``checkpoint_every`` blocks (and once more at the end); ``initial``
    restores such a snapshot, in which case ``blocks`` must yield exactly
    the plan's remaining blocks (indices ``blocks_done``, ``+1``, ...).
    Because blocks arrive in plan order and every reducer is
    deterministic, a resumed pass is bit-identical to an uninterrupted
    one.  ``fold_hook(block_index)`` runs in-process before each fold --
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
    main_extras = ["solo"] if composition else []
    main: Optional[FrontierReducer] = None
    per_group: List[FrontierReducer] = []
    group_offsets: List[int] = []
    nodes: Tuple[str, ...] = ()
    units_total = 0.0
    total_rows = 0
    num_blocks = 0
    full_nbytes = 0
    peak_block = 0
    blocks_done = 0
    since_save = 0

    def _build_reducers(num_groups: int) -> None:
        nonlocal main, per_group, group_offsets
        extras = list(main_extras) + [f"n{g}" for g in range(num_groups)]
        main = FrontierReducer(extra_names=extras)
        if group_frontiers:
            per_group = [FrontierReducer() for _ in range(num_groups)]
            group_offsets = [0] * num_groups

    if initial is not None:
        nodes = tuple(initial["nodes"])
        units_total = float(initial["units_total"])
        total_rows = int(initial["total_rows"])
        num_blocks = int(initial["num_blocks"])
        full_nbytes = int(initial["full_nbytes"])
        peak_block = int(initial["peak_block_nbytes"])
        blocks_done = int(initial["blocks_done"])
        _build_reducers(len(nodes))
        main.load_state(initial["main"])
        saved_groups = initial["groups"]
        if group_frontiers:
            if len(saved_groups) != len(per_group):
                raise ValueError(
                    "checkpoint group-frontier count does not match this pass"
                )
            for reducer, state in zip(per_group, saved_groups):
                reducer.load_state(state)
            group_offsets = list(initial["group_offsets"])
        saved_consumers = initial["consumers"]
        if len(saved_consumers) != len(consumers):
            raise ValueError(
                f"checkpoint carries {len(saved_consumers)} consumer states "
                f"for {len(consumers)} consumers"
            )
        for consumer, state in zip(consumers, saved_consumers):
            consumer.load_state(state)

    for block in blocks:
        if block.index != blocks_done:
            raise ValueError(
                f"blocks must arrive in plan order: expected index "
                f"{blocks_done}, got {block.index}"
            )
        if fold_hook is not None:
            fold_hook(block.index)
        data = block.data
        if main is None:
            nodes = data.nodes
            units_total = data.units_total
            _build_reducers(data.num_groups)
        extra: Dict[str, np.ndarray] = {
            f"n{g}": data.n[g] for g in range(data.num_groups)
        }
        if composition:
            extra["solo"] = solo_groups(data.n)
        main.update(
            data.times_s, data.energies_j, start_row=block.start_row,
            extra=extra,
        )
        if group_frontiers:
            for g, reducer in enumerate(per_group):
                mask = data.is_only(g)
                hit = int(np.count_nonzero(mask))
                if hit:
                    reducer.update(
                        data.times_s[mask],
                        data.energies_j[mask],
                        start_row=group_offsets[g],
                    )
                group_offsets[g] += hit
        for consumer in consumers:
            consumer.update(block)
        total_rows += block.rows
        num_blocks += 1
        full_nbytes += data.nbytes
        peak_block = max(peak_block, data.nbytes)
        blocks_done += 1
        since_save += 1
        if checkpoint_save is not None and since_save >= checkpoint_every:
            checkpoint_save(
                _reducer_pass_state(
                    blocks_done, nodes, units_total,
                    (total_rows, num_blocks, full_nbytes, peak_block),
                    group_offsets, main, per_group, consumers,
                )
            )
            since_save = 0

    if main is None:
        raise ValueError("no blocks to reduce: the space is empty")

    if checkpoint_save is not None and since_save > 0:
        checkpoint_save(
            _reducer_pass_state(
                blocks_done, nodes, units_total,
                (total_rows, num_blocks, full_nbytes, peak_block),
                group_offsets, main, per_group, consumers,
            )
        )

    frontier = main.finish()
    reduced = ReducedSpace(
        nodes=nodes,
        units_total=units_total,
        total_rows=total_rows,
        num_blocks=num_blocks,
        full_nbytes=full_nbytes,
        peak_block_nbytes=peak_block,
        frontier=frontier,
    )
    if frontier is not None:
        reduced.frontier_n = np.stack(
            [main.extra(f"n{g}") for g in range(len(nodes))]
        ).astype(np.int64)
        if composition:
            reduced.composition = composition_labels(main.extra("solo"))
    if group_frontiers:
        reduced.group_frontiers = tuple(r.finish() for r in per_group)
    return reduced


# ---------------------------------------------------------------------------
# Worker-side reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockReduction:
    """One block's compact reducer states -- what crosses the wire when
    ``reduce_at="worker"``.

    A worker folds its block through fresh local reducers and ships this
    instead of the block's columns: the whole-space frontier state (with
    composition/node-count payloads, indexed by *global* rows), one
    optional state per node-type group's homogeneous frontier (indexed
    from 0 within the block's hits -- the coordinator shifts them by its
    running per-group offsets), the per-group hit counts needed to
    advance those offsets, and one state per extra consumer (the
    queueing layer's :class:`~repro.queueing.dispatcher.Figure10Reducer`).
    ``rows``/``nbytes`` carry the accounting the coordinator's
    :class:`ReducedSpace` counters need, since it never sees the columns.
    """

    index: int
    start_row: int
    rows: int
    nbytes: int
    nodes: Tuple[str, ...]
    units_total: float
    main: Dict[str, Any]
    groups: Optional[Tuple[Optional[Dict[str, Any]], ...]]
    group_hits: Optional[Tuple[int, ...]]
    consumers: Tuple[Dict[str, Any], ...] = ()

    @property
    def stop_row(self) -> int:
        return self.start_row + self.rows


def fold_block_reduction(
    block: SpaceBlock,
    composition: bool = True,
    group_frontiers: bool = True,
    queueing: Optional[Mapping[str, Any]] = None,
) -> BlockReduction:
    """Fold one block through fresh local reducers (the worker half).

    Runs exactly the per-block body of :func:`reduce_space_blocks` --
    same extras, same start rows, same masked per-group updates -- so the
    states it returns merge bit-identically into a coordinator pass.
    ``queueing``, when given, is the keyword mapping a
    :class:`~repro.queueing.dispatcher.Figure10Reducer` is built from.
    """
    data = block.data
    main_extras = ["solo"] if composition else []
    extras = main_extras + [f"n{g}" for g in range(data.num_groups)]
    main = FrontierReducer(extra_names=extras)
    extra: Dict[str, np.ndarray] = {
        f"n{g}": data.n[g] for g in range(data.num_groups)
    }
    if composition:
        extra["solo"] = solo_groups(data.n)
    main.update(
        data.times_s, data.energies_j, start_row=block.start_row, extra=extra
    )
    groups: Optional[Tuple[Optional[Dict[str, Any]], ...]] = None
    group_hits: Optional[Tuple[int, ...]] = None
    if group_frontiers:
        states: List[Optional[Dict[str, Any]]] = []
        hits: List[int] = []
        for g in range(data.num_groups):
            mask = data.is_only(g)
            hit = int(np.count_nonzero(mask))
            if hit:
                reducer = FrontierReducer()
                reducer.update(
                    data.times_s[mask], data.energies_j[mask], start_row=0
                )
                states.append(reducer.state_dict())
            else:
                states.append(None)
            hits.append(hit)
        groups = tuple(states)
        group_hits = tuple(hits)
    consumer_states: List[Dict[str, Any]] = []
    if queueing is not None:
        from repro.queueing.dispatcher import Figure10Reducer

        f10 = Figure10Reducer(**dict(queueing))
        f10.update(block)
        consumer_states.append(f10.state_dict())
    return BlockReduction(
        index=block.index,
        start_row=block.start_row,
        rows=block.rows,
        nbytes=data.nbytes,
        nodes=data.nodes,
        units_total=data.units_total,
        main=main.state_dict(),
        groups=groups,
        group_hits=group_hits,
        consumers=tuple(consumer_states),
    )


def merge_block_reductions(
    reductions: Iterable[BlockReduction],
    group_frontiers: bool = True,
    composition: bool = True,
    consumers: Sequence[Any] = (),
    fold_hook: Optional[Any] = None,
    checkpoint_save: Optional[Any] = None,
    checkpoint_every: int = 8,
    initial: Optional[Mapping[str, Any]] = None,
) -> ReducedSpace:
    """Merge worker :class:`BlockReduction`\\ s in plan order (the
    coordinator half of ``reduce_at="worker"``).

    The structural twin of :func:`reduce_space_blocks`: same plan-order
    enforcement, same ``fold_hook`` fault-injection point before each
    merge, and checkpoint snapshots in the exact
    :func:`_reducer_pass_state` shape -- so checkpoints written by either
    mode resume under the other, and the resulting :class:`ReducedSpace`
    is bit-identical to the coordinator-side fold.  ``consumers`` here
    are coordinator-resident reducers with a ``merge(state)`` method
    matching, position for position, the states each reduction carries.
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
    main_extras = ["solo"] if composition else []
    main: Optional[FrontierReducer] = None
    per_group: List[FrontierReducer] = []
    group_offsets: List[int] = []
    nodes: Tuple[str, ...] = ()
    units_total = 0.0
    total_rows = 0
    num_blocks = 0
    full_nbytes = 0
    peak_block = 0
    blocks_done = 0
    since_save = 0

    def _build_reducers(num_groups: int) -> None:
        nonlocal main, per_group, group_offsets
        extras = list(main_extras) + [f"n{g}" for g in range(num_groups)]
        main = FrontierReducer(extra_names=extras)
        if group_frontiers:
            per_group = [FrontierReducer() for _ in range(num_groups)]
            group_offsets = [0] * num_groups

    if initial is not None:
        nodes = tuple(initial["nodes"])
        units_total = float(initial["units_total"])
        total_rows = int(initial["total_rows"])
        num_blocks = int(initial["num_blocks"])
        full_nbytes = int(initial["full_nbytes"])
        peak_block = int(initial["peak_block_nbytes"])
        blocks_done = int(initial["blocks_done"])
        _build_reducers(len(nodes))
        main.load_state(initial["main"])
        saved_groups = initial["groups"]
        if group_frontiers:
            if len(saved_groups) != len(per_group):
                raise ValueError(
                    "checkpoint group-frontier count does not match this pass"
                )
            for reducer, state in zip(per_group, saved_groups):
                reducer.load_state(state)
            group_offsets = list(initial["group_offsets"])
        saved_consumers = initial["consumers"]
        if len(saved_consumers) != len(consumers):
            raise ValueError(
                f"checkpoint carries {len(saved_consumers)} consumer states "
                f"for {len(consumers)} consumers"
            )
        for consumer, state in zip(consumers, saved_consumers):
            consumer.load_state(state)

    for red in reductions:
        if red.index != blocks_done:
            raise ValueError(
                f"block reductions must arrive in plan order: expected "
                f"index {blocks_done}, got {red.index}"
            )
        if fold_hook is not None:
            fold_hook(red.index)
        if len(red.consumers) != len(consumers):
            raise ValueError(
                f"block reduction carries {len(red.consumers)} consumer "
                f"states for {len(consumers)} consumers"
            )
        if main is None:
            nodes = red.nodes
            units_total = red.units_total
            _build_reducers(len(nodes))
        main.merge(red.main)
        if group_frontiers:
            if red.groups is None or red.group_hits is None:
                raise ValueError(
                    "block reduction has no per-group frontier states"
                )
            for g, reducer in enumerate(per_group):
                state = red.groups[g]
                if state is not None:
                    reducer.merge(state, index_offset=group_offsets[g])
                group_offsets[g] += int(red.group_hits[g])
        for consumer, state in zip(consumers, red.consumers):
            consumer.merge(state)
        total_rows += red.rows
        num_blocks += 1
        full_nbytes += red.nbytes
        peak_block = max(peak_block, red.nbytes)
        blocks_done += 1
        since_save += 1
        if checkpoint_save is not None and since_save >= checkpoint_every:
            checkpoint_save(
                _reducer_pass_state(
                    blocks_done, nodes, units_total,
                    (total_rows, num_blocks, full_nbytes, peak_block),
                    group_offsets, main, per_group, consumers,
                )
            )
            since_save = 0

    if main is None:
        raise ValueError("no blocks to reduce: the space is empty")

    if checkpoint_save is not None and since_save > 0:
        checkpoint_save(
            _reducer_pass_state(
                blocks_done, nodes, units_total,
                (total_rows, num_blocks, full_nbytes, peak_block),
                group_offsets, main, per_group, consumers,
            )
        )

    frontier = main.finish()
    reduced = ReducedSpace(
        nodes=nodes,
        units_total=units_total,
        total_rows=total_rows,
        num_blocks=num_blocks,
        full_nbytes=full_nbytes,
        peak_block_nbytes=peak_block,
        frontier=frontier,
    )
    if frontier is not None:
        reduced.frontier_n = np.stack(
            [main.extra(f"n{g}") for g in range(len(nodes))]
        ).astype(np.int64)
        if composition:
            reduced.composition = composition_labels(main.extra("solo"))
    if group_frontiers:
        reduced.group_frontiers = tuple(r.finish() for r in per_group)
    return reduced


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
