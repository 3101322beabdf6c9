"""One-time job shipment: plan/params cross to each worker exactly once.

Before this module, every block task pickled the full ``group_specs``
tuple, the calibration params mapping, and the work units into its
argument tuple -- identical bytes re-serialized per task, dominating the
submission cost of fine-grained plans.  A :class:`SpaceJob` bundles the
immutable inputs of one space fan-out (specs, params, units, the exact
block plan with its row offsets, and the optional block-fold options)
so they ship **once per worker**:

* process pools install the job via the pool *initializer* (and fork
  inheritance covers the common Linux path for free);
* the serial / degraded-to-serial paths install it in-process.

Each task then carries only ``(job_id, block_index)`` -- a few dozen
bytes -- and resolves the heavy state from the process-local registry.
:func:`run_block` is the universal task body: evaluate the indexed block
and either return its columns (a coordinator-side consumer needs them)
or fold it through a fresh reducer pass and return the compact
:class:`~repro.core.streaming.BlockReduction`.  Because a retried task
re-runs :func:`run_block` from scratch, a block fold always restarts
from its block's first row -- reduction state never leaks across
attempts.

The registry is a small LRU (jobs are per-fan-out, and the coordinator
process runs many fan-outs), keyed by an id that is unique per
coordinator process -- routing only, never cache identity.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult, _group_grids
from repro.core.params import NodeModelParams
from repro.core.streaming import (
    SpaceBlock,
    evaluate_block_task,
    fold_block_reduction,
)

#: Jobs kept per process; one fan-out needs one.
_MAX_JOBS = 8

_JOBS: "OrderedDict[str, SpaceJob]" = OrderedDict()
_JOBS_LOCK = threading.Lock()
_COUNTER = itertools.count()


@dataclass(frozen=True)
class SpaceJob:
    """The immutable inputs of one space fan-out, shipped once per worker.

    ``task_counts[i]`` is block ``i``'s per-group count tuple (the shape
    :func:`~repro.core.streaming.evaluate_block_task` consumes) and
    ``starts[i]`` its global row offset.  ``grids`` are the groups'
    setting grids, built once per fan-out and shared by every block.
    ``reduce`` is ``None`` when
    tasks return raw columns, or the keyword mapping for
    :func:`~repro.core.streaming.fold_block_reduction` (``queueing``)
    when each task folds its own block.
    """

    job_id: str
    group_specs: Tuple[GroupSpec, ...]
    params: Mapping[str, NodeModelParams]
    units: float
    task_counts: Tuple[Tuple[Tuple[int, ...], ...], ...]
    starts: Tuple[int, ...]
    grids: Tuple[Any, ...]
    reduce: Optional[Mapping[str, Any]] = None


def new_job_id() -> str:
    """A job id unique within this coordinator process (routing only)."""
    return f"job-{os.getpid()}-{next(_COUNTER)}"


def install_job(job: SpaceJob) -> None:
    """Register ``job`` in this process (idempotent; pool-initializer safe).

    Top-level and picklable, so it doubles as a
    ``ProcessPoolExecutor`` initializer with ``initargs=(job,)``.
    """
    with _JOBS_LOCK:
        _JOBS[job.job_id] = job
        _JOBS.move_to_end(job.job_id)
        while len(_JOBS) > _MAX_JOBS:
            _JOBS.popitem(last=False)


def get_job(job_id: str) -> SpaceJob:
    """The installed job, or a diagnosing ``KeyError``-free error."""
    with _JOBS_LOCK:
        job = _JOBS.get(job_id)
        if job is not None:
            _JOBS.move_to_end(job_id)
    if job is None:
        raise RuntimeError(
            f"job {job_id!r} is not installed in this process; the backend "
            f"must ship the SpaceJob before submitting its block tasks"
        )
    return job


def run_block(job_id: str, index: int) -> Any:
    """Evaluate (and optionally fold) one block of an installed job.

    The task body every space fan-out submits: a few-byte argument tuple
    instead of the re-pickled plan.  Returns the block's
    :class:`~repro.core.evaluate.ConfigSpaceResult` when the job has no
    ``reduce`` options, or its folded
    :class:`~repro.core.streaming.BlockReduction` when it has.
    """
    job = get_job(job_id)
    data: ConfigSpaceResult = evaluate_block_task(
        job.group_specs, job.params, job.units, job.task_counts[index],
        grids=job.grids,
    )
    if job.reduce is None:
        return data
    block = SpaceBlock(index=index, start_row=job.starts[index], data=data)
    return fold_block_reduction(block, **dict(job.reduce))


def build_job(
    group_specs: Tuple[GroupSpec, ...],
    params: Mapping[str, NodeModelParams],
    units: float,
    tasks: Any,
    reduce: Optional[Mapping[str, Any]] = None,
) -> SpaceJob:
    """A :class:`SpaceJob` over a :func:`plan_block_tasks` plan."""
    starts = [0]
    for task in tasks[:-1]:
        starts.append(starts[-1] + task.rows)
    return SpaceJob(
        job_id=new_job_id(),
        group_specs=tuple(group_specs),
        params=params,
        units=float(units),
        task_counts=tuple(t.counts for t in tasks),
        starts=tuple(starts),
        grids=tuple(_group_grids(group_specs, params)),
        reduce=None if reduce is None else dict(reduce),
    )
