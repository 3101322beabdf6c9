"""Candidate sources: pluggable "which configurations get evaluated".

The exhaustive pipeline sweeps every row of a k-group space in one
canonical order (:func:`repro.core.configuration.presence_masks` blocks,
each partitioned over its lead group's counts).  This module narrows the
contract between "what to evaluate" and "how to evaluate" to one small
interface so that sweep becomes *a* strategy instead of *the* strategy:

* :class:`CandidateBatch` -- one batch of candidate configurations as
  ``(G, B)`` column stacks of ``(n, cores, f)`` per group;
* :class:`CandidateSource` -- the protocol: ``propose`` deterministic
  batches, ``observe`` the evaluated time/energy columns (feedback for
  search agents), snapshot/restore via ``state_dict``/``load_state``;
* :class:`ExhaustiveSource` -- the canonical sweep behind the protocol.
  Its :meth:`~ExhaustiveSource.plan_blocks` *is* the historical
  :func:`repro.core.streaming.plan_block_tasks` decomposition (that
  function now delegates here), so exhaustive runs stay bit-identical to
  pre-refactor artifacts; its :meth:`~ExhaustiveSource.propose` expands
  those blocks into explicit candidate rows in the exact global row
  order of :func:`repro.core.evaluate.evaluate_space_groups`;
* :func:`expand_block_rows` -- a :class:`BlockTask`'s ``(n, cores, f)``
  columns without evaluating anything, built by the same index
  generator and column assembly as the evaluator's row kernel (the
  row-order oracle the property tests pin sources against).

Search agents (:mod:`repro.search`) implement the same protocol with
feedback-driven proposals; the evaluator, streaming planner, and
execution backends only ever see the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import GroupSpec, node_settings, presence_masks
from repro.core.evaluate import (
    _block_index_columns,
    _normalize_counts,
    _pinned_columns,
)


@dataclass(frozen=True)
class BlockTask:
    """One block of the deterministic space decomposition.

    ``counts`` is a per-group tuple of node-count tuples in the exact
    shape :func:`repro.core.streaming.evaluate_block_task` consumes: the
    lead group carries its partition slice, other present groups their
    full positive counts, absent groups ``(0,)``.  ``rows`` is the exact
    row count of the block (the count/setting product arithmetic).
    """

    counts: Tuple[Tuple[int, ...], ...]
    rows: int


@dataclass(frozen=True)
class CandidateBatch:
    """One batch of candidate configurations, columnar.

    ``n``/``cores``/``f`` are ``(G, B)`` stacks -- column ``i`` is one
    candidate configuration: group ``g`` runs ``n[g, i]`` nodes at
    ``cores[g, i]`` active cores and ``f[g, i]`` GHz (absent groups have
    ``n == 0`` and carry the spec's maxima, matching the evaluator's
    convention).  ``meta`` is an optional source-private payload (e.g.
    genome indices) handed back verbatim through ``observe``.
    """

    n: np.ndarray
    cores: np.ndarray
    f: np.ndarray
    meta: Any = None

    def __post_init__(self) -> None:
        if self.n.ndim != 2 or self.n.shape != self.cores.shape or (
            self.n.shape != self.f.shape
        ):
            raise ValueError(
                "candidate batch needs matching (G, B) n/cores/f stacks"
            )

    def __len__(self) -> int:
        return int(self.n.shape[1])

    @property
    def num_groups(self) -> int:
        return int(self.n.shape[0])


class CandidateSource:
    """Protocol for "which configurations get evaluated".

    A source proposes batches of candidate rows; the driver evaluates
    them and feeds the time/energy columns back through ``observe``.
    Determinism contract: for a fixed construction (specs, seed,
    options) and a fixed sequence of observations, the proposal sequence
    is reproducible -- what makes searched artifacts cacheable and
    resumable.
    """

    #: Strategy name, e.g. ``"exhaustive"`` / ``"random"`` / ``"ga"``.
    name: str = "source"

    def reset(self) -> None:
        """Return to the freshly-constructed state."""
        raise NotImplementedError

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        """The next batch of at most ``max_rows`` candidates, or ``None``
        when the source has nothing further to propose."""
        raise NotImplementedError

    def observe(
        self,
        batch: CandidateBatch,
        times_s: np.ndarray,
        energies_j: np.ndarray,
    ) -> None:
        """Feed back the evaluated columns of a proposed batch."""

    # ---- checkpoint support --------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """A picklable snapshot of the source's progress."""
        raise NotImplementedError

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        raise NotImplementedError


def expand_block_rows(
    group_specs: Sequence[GroupSpec],
    task_counts: Tuple[Tuple[int, ...], ...],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A :class:`BlockTask`'s ``(n, cores, f)`` columns, unevaluated.

    Generates the block's ``(n, setting_index)`` columns with the same
    index generator as the exhaustive block
    (:func:`repro.core.evaluate._block_index_columns`) and maps the
    setting indices to ``(cores, f)`` the way the row kernel does --
    absent groups pinned at ``n = 0`` and the spec's maxima -- without
    computing times or energies.
    """
    group_specs = tuple(group_specs)
    present = tuple(
        g for g in range(len(group_specs)) if any(c > 0 for c in task_counts[g])
    )
    if not present:
        raise ValueError("block task has no present group")
    settings = [node_settings(gs.spec, gs.settings) for gs in group_specs]
    n_cols, s_cols = _block_index_columns(
        [
            np.asarray([c for c in task_counts[g] if c > 0], dtype=np.int64)
            for g in present
        ],
        [len(settings[g]) for g in present],
    )
    return _pinned_columns(
        group_specs,
        present,
        n_cols,
        s_cols,
        [np.asarray([c for c, _ in s], dtype=np.int64) for s in settings],
        [np.asarray([f for _, f in s], dtype=float) for s in settings],
    )


class ExhaustiveSource(CandidateSource):
    """The canonical sweep, behind the :class:`CandidateSource` protocol.

    :meth:`plan_blocks` owns the deterministic block decomposition the
    streaming pipeline has always used (``presence_masks`` blocks, each
    partitioned contiguously over its lead group's counts);
    :func:`repro.core.streaming.plan_block_tasks` is now a thin wrapper
    around it, so the exhaustive path is byte-for-byte the historical
    one.  :meth:`propose` expands those blocks into explicit rows in the
    exact global row order of ``evaluate_space_groups`` -- the oracle
    the property tests pin every other source's evaluator against.
    """

    name = "exhaustive"

    def __init__(self, group_specs: Sequence[GroupSpec]):
        self.group_specs = tuple(group_specs)
        if not self.group_specs:
            raise ValueError("need at least one node-type group")
        self._cursor = 0

    def plan_blocks(
        self, max_block_rows: int, min_chunks: int = 1
    ) -> List[BlockTask]:
        """Decompose the space into ordered blocks under a row budget.

        Mirrors :func:`~repro.core.evaluate.evaluate_space_groups`'s row
        order exactly: presence-mask blocks in canonical order, each
        partitioned contiguously over its first present group's counts.
        The number of partitions per mask is
        ``ceil(mask_rows / max_block_rows)`` (at least ``min_chunks``,
        for process-pool parallelism), capped at the lead group's
        count-list width -- the finest granularity this decomposition
        admits, so a single lead count whose slice exceeds the budget
        still yields one (oversized) block rather than failing.
        """
        if max_block_rows < 1:
            raise ValueError("block row budget must be at least one row")
        group_specs = self.group_specs
        counts = [
            _normalize_counts(gs.counts, gs.max_nodes) for gs in group_specs
        ]
        pos = [c[c > 0] for c in counts]
        dims = [len(node_settings(gs.spec, gs.settings)) for gs in group_specs]

        tasks: List[BlockTask] = []
        for present in presence_masks(group_specs):
            lead = present[0]
            rows_per_lead_count = dims[lead]
            for g in present[1:]:
                rows_per_lead_count *= int(pos[g].size) * dims[g]
            mask_rows = rows_per_lead_count * int(pos[lead].size)
            if mask_rows == 0:
                continue
            parts = max(
                int(min_chunks), math.ceil(mask_rows / max_block_rows)
            )
            parts = max(1, min(parts, int(pos[lead].size)))
            for part in np.array_split(pos[lead], parts):
                if not part.size:
                    continue
                task_counts = tuple(
                    tuple(int(c) for c in part)
                    if g == lead
                    else (
                        tuple(int(c) for c in pos[g])
                        if g in present
                        else (0,)
                    )
                    for g in range(len(group_specs))
                )
                tasks.append(
                    BlockTask(
                        counts=task_counts,
                        rows=rows_per_lead_count * int(part.size),
                    )
                )
        return tasks

    # ---- CandidateSource protocol --------------------------------------

    def reset(self) -> None:
        self._cursor = 0

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        """The next sweep chunk, in canonical global row order."""
        if max_rows < 1:
            raise ValueError("batch row budget must be at least one row")
        tasks = self.plan_blocks(max_block_rows=max_rows)
        if self._cursor >= len(tasks):
            return None
        task = tasks[self._cursor]
        self._cursor += 1
        n, cores, f = expand_block_rows(self.group_specs, task.counts)
        return CandidateBatch(n=n, cores=cores, f=f)

    def state_dict(self) -> Dict[str, Any]:
        return {"cursor": self._cursor}

    def load_state(self, state: Mapping[str, Any]) -> None:
        self._cursor = int(state["cursor"])
