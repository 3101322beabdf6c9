"""Parallel execution: chunked space evaluation and replication fan-out.

Two fan-out shapes cover the engine's needs:

* :func:`evaluate_space_groups_chunked` splits a k-group configuration
  space into node-count blocks -- each presence-mask block partitioned
  over its first present group's counts -- evaluates the blocks
  independently (optionally on a process pool), and concatenates in
  exactly :func:`repro.core.evaluate.evaluate_space_groups`'s row order,
  which downstream code and tests rely on.  A property test pins the
  chunked result against the whole-space evaluation bit-for-bit.
* :func:`iter_space_groups_chunked` is the streaming twin: it yields the
  same blocks *as workers complete them*, re-ordered deterministically,
  so reducers can consume the space while later blocks are still being
  evaluated -- the engine's ``space_mode="streaming"`` block source.
  Each block task either ships its columns as a
  :class:`~repro.core.streaming.SpaceBlock` or folds them in place and
  ships the frontier-sized :class:`~repro.core.streaming.BlockReduction`.
* :func:`parallel_map` fans independent replications (validation sweep
  points, noise replicates) across a process pool.

Block sizes default to the memory budget: the number of chunks is derived
from ``memory_budget_mb`` and the per-row width
(:func:`repro.core.streaming.max_rows_for_budget`), not from a fixed
node-count split, so four-group spaces split finely while a 10x10 pair
space stays in one piece.

Process pools pay a fork + pickle toll, so both helpers run serially for
small inputs (below :data:`PARALLEL_THRESHOLD_ROWS` rows / fewer than two
tasks) and degrade to serial execution if a pool cannot be created at all
(restricted sandboxes) -- parallelism here is an optimization, never a
semantic.

*Where* tasks run is delegated to a pluggable
:class:`~repro.engine.backends.ExecutionBackend`: every fan-out accepts
``backend``/``backend_options`` (a registered name like ``"serial"``,
``"process_pool"``, ``"tcp_remote"``, or a ready instance) and resolves
them through :func:`repro.engine.backends.resolve_backend` -- which
preserves the historical default (a process pool sized by
``max_workers``, serial when that pins one worker) and honors the
``REPRO_BACKEND`` environment variable.  Because every backend delivers
results in plan order and bit-identical, the choice never changes an
artifact, only where the work happened.

Failure handling is delegated to :mod:`repro.engine.resilience`: every
fan-out accepts a :class:`~repro.engine.resilience.ResiliencePolicy`
(per-task retry with deterministic backoff, per-task timeouts,
dead-worker detection with pool replacement, serial degradation) and an
optional :class:`~repro.engine.faults.FaultInjector` for deterministic
chaos runs.  Because tasks are pure and results are re-ordered to plan
order, a run that survives injected faults stays bit-identical to a
fault-free one.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core import evaluate as _evaluate
from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult, _concat_results
from repro.core.params import NodeModelParams
from repro.core.streaming import (
    DEFAULT_MEMORY_BUDGET_MB,
    BlockReduction,
    SpaceBlock,
    count_space_rows,
    max_rows_for_budget,
    plan_block_tasks,
)
from repro.engine.backends import (
    ExecutionBackend,
    default_max_workers,  # noqa: F401  (historical import point)
    resolve_backend,
    validate_workers,
)
from repro.engine.faults import FaultInjector
from repro.engine.job import build_job, run_block
from repro.engine.resilience import Emit, ResiliencePolicy

#: Below this many rows the fork+pickle toll outweighs the win.
PARALLEL_THRESHOLD_ROWS = 100_000

#: Adaptive planner: aim for this many blocks per worker, so one
#: straggler block cannot serialize the whole tail of the plan.
OVERSUBSCRIPTION = 4

#: Adaptive planner: blocks below this row count are dispatch overhead
#: (submission + result frames cost more than the evaluation).
MIN_ADAPTIVE_BLOCK_ROWS = 32_768


def _plan_workers(max_workers: Optional[int], backend: ExecutionBackend) -> int:
    """The worker count that sizes a block plan.

    An explicit ``max_workers`` wins (and is validated -- a non-positive
    count raises instead of silently clamping); otherwise the backend's
    parallelism decides, so e.g. a two-agent ``tcp_remote`` backend plans
    two-chunk-minimum partitions.  The same rule feeds
    :func:`space_block_plan` and the fan-outs, keeping checkpoint plan
    fingerprints consistent with actual execution.
    """
    if max_workers is not None:
        return validate_workers(max_workers, name="max_workers")
    return max(1, backend.parallelism)


def _plan_tasks(
    group_specs: Tuple[GroupSpec, ...],
    workers: int,
    memory_budget_mb: Optional[float],
    inflight_blocks: int = 1,
):
    """The deterministic block plan for a chunked/streamed evaluation.

    The memory budget and the worker count decide an *adaptive* plan --
    block rows target
    ``total_rows / (workers * OVERSUBSCRIPTION)`` (floored at
    :data:`MIN_ADAPTIVE_BLOCK_ROWS` so tiny blocks don't drown in
    dispatch overhead), with the memory budget
    (:func:`~repro.core.streaming.max_rows_for_budget` over
    ``inflight_blocks``) as a hard cap and at least ``workers``
    partitions so the pool stays busy.  Single-worker plans skip the
    oversubscription math and take the budget-sized blocks directly --
    bit-for-bit the historical serial plan.
    """
    budget = (
        DEFAULT_MEMORY_BUDGET_MB if memory_budget_mb is None
        else float(memory_budget_mb)
    )
    budget_rows = max_rows_for_budget(budget, len(group_specs), inflight_blocks)
    target_rows = budget_rows
    if workers > 1:
        total_rows = count_space_rows(group_specs)
        per_task = -(-total_rows // (workers * OVERSUBSCRIPTION))
        target_rows = min(budget_rows, max(MIN_ADAPTIVE_BLOCK_ROWS, per_task))
    return plan_block_tasks(
        group_specs, max(1, target_rows), min_chunks=workers
    )


def space_block_plan(
    group_specs: Sequence[GroupSpec],
    max_workers: Optional[int] = None,
    memory_budget_mb: Optional[float] = None,
    backend: Optional[Any] = None,
    backend_options: Optional[Mapping[str, Any]] = None,
):
    """The exact block plan :func:`iter_space_groups_chunked` will stream.

    Exposed so checkpointing can fingerprint the decomposition (block
    boundaries depend on the worker count -- explicit or the resolved
    backend's parallelism -- and the memory budget) before a single
    block is evaluated.
    """
    group_specs = tuple(group_specs)
    be = resolve_backend(backend, backend_options, max_workers=max_workers)
    workers = _plan_workers(max_workers, be)
    window = workers + 1
    return _plan_tasks(
        group_specs, workers, memory_budget_mb,
        inflight_blocks=window if workers > 1 else 1,
    )


def evaluate_space_groups_chunked(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
    units: float,
    max_workers: Optional[int] = None,
    memory_budget_mb: Optional[float] = None,
    policy: Optional[ResiliencePolicy] = None,
    injector: Optional[FaultInjector] = None,
    emit: Optional[Emit] = None,
    backend: Optional[Any] = None,
    backend_options: Optional[Mapping[str, Any]] = None,
) -> ConfigSpaceResult:
    """Evaluate a k-group space in node-count blocks, optionally parallel.

    Semantics and row order are identical to
    :func:`repro.core.evaluate.evaluate_space_groups`; only the execution
    shape differs.  ``max_workers`` caps the process pool (``1`` forces
    in-process execution); the chunk size is derived from
    ``memory_budget_mb`` and the per-row width (at least one chunk per
    worker).  Small spaces take the direct path -- chunking is pure
    overhead below :data:`PARALLEL_THRESHOLD_ROWS` rows.
    ``backend``/``backend_options`` pick the execution backend (see
    :func:`repro.engine.backends.resolve_backend`); results are
    bit-identical whichever runs the blocks.
    """
    group_specs = tuple(group_specs)
    be = resolve_backend(backend, backend_options, max_workers=max_workers)
    workers = _plan_workers(max_workers, be)
    if count_space_rows(group_specs) < PARALLEL_THRESHOLD_ROWS:
        # Degenerate count lists (no rows) also land here; the reference
        # path raises its own error for them.
        return _evaluate.evaluate_space_groups(group_specs, params, units)

    tasks = _plan_tasks(group_specs, workers, memory_budget_mb)
    if len(tasks) < 2:
        return _evaluate.evaluate_space_groups(group_specs, params, units)

    job = build_job(group_specs, params, units, tasks)
    blocks = be.run_tasks(
        run_block, [(job.job_id, i) for i in range(len(tasks))],
        policy=policy, injector=injector, emit=emit, job=job,
    )
    return _concat_results(blocks)


def iter_space_groups_chunked(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
    units: float,
    max_workers: Optional[int] = None,
    memory_budget_mb: Optional[float] = None,
    policy: Optional[ResiliencePolicy] = None,
    injector: Optional[FaultInjector] = None,
    emit: Optional[Emit] = None,
    start_block: int = 0,
    backend: Optional[Any] = None,
    backend_options: Optional[Mapping[str, Any]] = None,
    reduce: Optional[Mapping[str, Any]] = None,
) -> Iterator[Union[SpaceBlock, BlockReduction]]:
    """Stream a k-group space block by block, backend-evaluated.

    Blocks are yielded in the exact global row order of
    :func:`repro.core.evaluate.evaluate_space_groups` -- a sliding window
    of at most ``workers + 1`` blocks is in flight, and completed blocks
    are re-ordered before yielding, so the stream reproduces the
    materialized space bit-for-bit while peak memory stays within
    ``memory_budget_mb``.  The re-ordering is the *backend's* contract
    (:meth:`~repro.engine.backends.ExecutionBackend.submit_blocks`
    yields in plan order whatever the completion order), so the stream
    is identical under serial, pooled, or remote execution; local
    backends still fall back to serial in-process evaluation, mid-stream
    if necessary, when no pool is available.

    With ``reduce`` unset each item is a :class:`SpaceBlock` carrying the
    block's columns.  With ``reduce`` -- the keyword mapping of
    :func:`~repro.core.streaming.fold_block_reduction` -- each block task
    also folds its block and ships only the frontier-sized
    :class:`~repro.core.streaming.BlockReduction`; a retried task
    re-evaluates and re-folds its block from the first row.

    ``policy``/``injector`` select the fault-tolerance behavior (see
    :func:`repro.engine.resilience.iter_tasks_resilient`): failed tasks
    are retried with deterministic backoff, dead workers replace the
    pool, and abandoning the iterator terminates the workers instead of
    leaking them.  ``start_block`` skips the first blocks of the plan
    without evaluating them -- checkpoint resume; the yielded blocks
    keep their global indices and row offsets.
    """
    group_specs = tuple(group_specs)
    if units <= 0:
        raise ValueError("job must contain positive work")
    if not group_specs:
        raise ValueError("need at least one node-type group")
    be = resolve_backend(backend, backend_options, max_workers=max_workers)
    window = _plan_workers(max_workers, be) + 1
    tasks = space_block_plan(group_specs, max_workers, memory_budget_mb, backend=be)
    if not tasks:
        # Let the reference path raise its own error message.
        _evaluate.evaluate_space_groups(group_specs, params, units)
        raise AssertionError("unreachable: empty plan must raise above")
    if not 0 <= start_block <= len(tasks):
        raise ValueError(
            f"start_block {start_block} outside 0..{len(tasks)} for this plan"
        )
    job = build_job(group_specs, params, units, tasks, reduce=reduce)
    for idx, result in be.submit_blocks(
        run_block,
        [(job.job_id, i) for i in range(len(tasks))],
        window=window,
        policy=policy,
        injector=injector,
        emit=emit,
        start_index=start_block,
        job=job,
    ):
        if reduce is None:
            yield SpaceBlock(index=idx, start_row=job.starts[idx], data=result)
        else:
            yield result


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    max_workers: Optional[int] = None,
    policy: Optional[ResiliencePolicy] = None,
    injector: Optional[FaultInjector] = None,
    emit: Optional[Emit] = None,
    backend: Optional[Any] = None,
    backend_options: Optional[Mapping[str, Any]] = None,
) -> List[Any]:
    """Map a picklable top-level function over items, pooled when possible.

    Order is preserved.  Used to fan sweep replications
    (:mod:`repro.validation.sweeps`) and noise replicates across cores;
    falls back to a serial map when pooling is unavailable or pointless,
    and inherits the resilient runner's retry/pool-replacement behavior
    for transient worker failures.  ``backend``/``backend_options``
    select where the map runs, like every other fan-out.
    """
    items = list(items)
    be = resolve_backend(backend, backend_options, max_workers=max_workers)
    if max_workers is not None:
        validate_workers(max_workers, name="max_workers")
    return be.map(
        fn,
        items,
        policy=policy,
        injector=injector,
        emit=emit,
    )
