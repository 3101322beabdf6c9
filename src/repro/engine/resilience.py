"""Fault-tolerant task execution: retry, timeouts, pool replacement.

The executor's fan-out (:mod:`repro.engine.executor`) is pure -- every
task is a deterministic function of its arguments -- which makes failure
recovery semantically free: re-running a task can never change the
result, only salvage it.  This module supplies the recovery machinery:

* :class:`ResiliencePolicy` -- per-task retry budget, exponential
  backoff with *deterministic* jitter (derived from the policy seed via
  the :class:`~repro.util.rng.RngStream` discipline, so chaos tests are
  reproducible), an optional per-task timeout, and a pool-failure budget
  before degrading to in-process serial execution;
* :func:`iter_tasks_resilient` -- the one scheduling loop every executor
  entry point shares: a sliding submission window over a process pool,
  results yielded strictly in task order (the plan-order guarantee the
  streaming reducers rely on), per-task retry with backoff on
  :class:`~repro.engine.faults.WorkerCrash`-class failures, dead-worker
  detection (a broken pool is rebuilt and its in-flight tasks
  resubmitted), per-task timeouts that replace the pool (a stuck worker
  cannot be reclaimed), and graceful degradation to serial execution
  after the pool has failed too often;
* :func:`terminate_pool` -- hard cleanup (terminate + join the worker
  processes) used when a run is abandoned mid-flight
  (``KeyboardInterrupt``, an abandoned generator), so interrupted runs
  never leak worker processes.

Failures are *typed* (:mod:`repro.engine.faults`): only
:class:`ResilienceError` subclasses, broken-pool conditions, and
OS-level flakiness are retried -- a genuine programming error
(``ValueError`` from the evaluator) propagates immediately, attempts
budget or not.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.engine.faults import (
    FaultInjector,
    ResilienceError,
    TaskTimeout,
    WorkerCrash,
)
from repro.util.rng import RngStream
from repro.util.validate import finite_float, positive_float

#: ``emit(event, **payload)`` -- the reporting-sink shape RunContext uses.
Emit = Callable[..., None]

#: Exceptions that mean "the task may succeed if retried": typed
#: resilience failures, pool breakage, and OS-level flakiness.
RETRYABLE = (ResilienceError, BrokenProcessPool, OSError)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard the executor fights before giving up.

    ``max_task_retries`` bounds *re*-executions per task (0 = fail on
    first error).  Backoff before attempt ``a`` is
    ``min(backoff_base_s * backoff_factor**(a-1), backoff_max_s)``
    scaled by ``1 + jitter * u`` where ``u`` is drawn from the
    deterministic stream ``RngStream(seed).child("retry", task)`` --
    identical across runs, so tests can pin even the sleep schedule.
    ``task_timeout_s`` bounds the wait for the task at the head of the
    reordering window (``None`` = wait forever); a timeout replaces the
    pool, because a stuck worker cannot be reclaimed.  After
    ``max_pool_failures`` pool replacements the runner degrades to
    serial in-process execution -- slower, but it terminates.
    """

    max_task_retries: int = 2
    task_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1
    max_pool_failures: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValueError("retry budget must be non-negative")
        if self.task_timeout_s is not None:
            positive_float(self.task_timeout_s, "task timeout")
        if (
            finite_float(self.backoff_base_s, "backoff base") < 0
            or finite_float(self.backoff_max_s, "backoff max") < 0
        ):
            raise ValueError("backoff bounds must be non-negative")
        if finite_float(self.backoff_factor, "backoff factor") < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_pool_failures < 0:
            raise ValueError("pool-failure budget must be non-negative")

    def backoff_s(self, task: int, attempt: int) -> float:
        """Deterministic sleep before retry ``attempt`` (>= 1) of ``task``."""
        if attempt < 1 or self.backoff_base_s == 0:
            return 0.0
        base = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        if self.jitter == 0:
            return base
        u = float(
            RngStream(self.seed).child("retry", task).child("attempt", attempt)
            .rng.random()
        )
        return base * (1.0 + self.jitter * u)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResiliencePolicy":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown policy fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)


#: The module default: a couple of retries, modest backoff, no timeout.
DEFAULT_POLICY = ResiliencePolicy()


def call_with_faults(
    fn: Callable[..., Any],
    args: Tuple,
    task_index: int,
    attempt: int,
    injector: Optional[FaultInjector],
) -> Any:
    """Worker-side task wrapper: apply injected faults, then evaluate.

    Top-level so process pools can pickle it; the injector hook runs
    *inside* the worker, which is what lets a ``kill`` fault take down a
    real worker process.  ``net_delay`` faults sleep *after* the
    evaluation -- the result exists but has not been returned yet, the
    shape of injected network latency on any backend.
    """
    if injector is not None:
        injector.on_task(task_index, attempt)
    result = fn(*args)
    if injector is not None:
        net_delay = injector.net_delay_s(task_index, attempt)
        if net_delay > 0:
            time.sleep(net_delay)
    return result


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down *now*: cancel queued work, terminate, join.

    ``ProcessPoolExecutor.shutdown`` alone leaves workers running their
    current task (and, pre-cancel, the whole queue) -- after a
    ``KeyboardInterrupt`` that is a process leak.  Terminating the
    worker processes is safe here because every task is pure: killing a
    half-finished evaluation abandons no external state.

    Idempotent: calling it on an already-terminated (or already
    shut-down) pool is a no-op, so backend ``close()`` paths and
    generator ``finally`` blocks can both run it without coordination.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    # ``shutdown`` drops these references; keep them to finish the job.
    manager = getattr(pool, "_executor_manager_thread", None)
    results = getattr(pool, "_result_queue", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        # A pool whose manager thread already died can raise here; the
        # process termination below is what actually matters.
        pass
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5.0)
    # A worker killed mid-send leaves a partial result in the pipe, and
    # the manager thread blocks reading the rest: this process holds the
    # pipe's write end too, so no EOF ever comes.  Interpreter exit joins
    # that (non-daemon) thread and would hang.  With the workers gone,
    # closing our write end turns the stall into EOF; then join it.
    if results is not None:
        results._writer.close()
    if manager is not None:
        manager.join(timeout=5.0)


def _try_create_pool(
    workers: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> Optional[ProcessPoolExecutor]:
    try:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )
    except (OSError, PermissionError, RuntimeError):
        # Restricted sandbox (no fork / no semaphores): serial fallback.
        return None


def iter_tasks_resilient(
    fn: Callable[..., Any],
    args_list: Sequence[Tuple],
    max_workers: int,
    window: Optional[int] = None,
    policy: Optional[ResiliencePolicy] = None,
    injector: Optional[FaultInjector] = None,
    emit: Optional[Emit] = None,
    start_index: int = 0,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> Iterator[Tuple[int, Any]]:
    """Run ``fn(*args_list[i])`` for ``i >= start_index``, yielding in order.

    The scheduling core shared by every executor entry point: results
    are yielded strictly as ``(index, result)`` in ascending index order
    regardless of completion order, with at most ``window`` tasks in
    flight (default: everything).  Recovery semantics are the policy's;
    ``start_index`` supports checkpoint resume (earlier tasks are never
    evaluated).  On abandonment (an exception, or the consumer dropping
    the generator) the pool's workers are terminated, not leaked.
    ``initializer``/``initargs`` seed every worker process -- including
    the workers of a replacement pool after a failure -- which is how a
    :class:`~repro.engine.job.SpaceJob` ships once per worker instead of
    once per task.
    """
    policy = DEFAULT_POLICY if policy is None else policy
    n_tasks = len(args_list)
    if start_index < 0 or start_index > n_tasks:
        raise ValueError(
            f"start_index {start_index} outside 0..{n_tasks}"
        )
    window = n_tasks if window is None else max(1, int(window))
    attempts = {i: 0 for i in range(start_index, n_tasks)}

    def _notify(event: str, **payload: Any) -> None:
        if emit is not None:
            emit(event, **payload)

    def _run_serial(idx: int) -> Any:
        while True:
            try:
                return call_with_faults(fn, args_list[idx], idx, attempts[idx], injector)
            except RETRYABLE as exc:
                attempts[idx] += 1
                if attempts[idx] > policy.max_task_retries:
                    raise
                delay = policy.backoff_s(idx, attempts[idx])
                _notify(
                    "resilience.retry",
                    task=idx,
                    attempt=attempts[idx],
                    error=type(exc).__name__,
                    backoff_s=delay,
                    serial=True,
                )
                if delay > 0:
                    time.sleep(delay)

    serial = max_workers <= 1 or (n_tasks - start_index) < 2
    pool: Optional[ProcessPoolExecutor] = None
    pool_failures = 0
    futures: Dict[int, Any] = {}
    next_idx = start_index
    submit_idx = start_index
    completed = False

    def _replace_pool(reason: str) -> None:
        """Tear the pool down and decide between a fresh pool and serial."""
        nonlocal pool, pool_failures, serial, submit_idx
        if pool is not None:
            terminate_pool(pool)
            pool = None
        futures.clear()
        submit_idx = next_idx
        pool_failures += 1
        if pool_failures > policy.max_pool_failures:
            serial = True
            _notify(
                "resilience.degraded",
                reason=reason,
                pool_failures=pool_failures,
                remaining_tasks=n_tasks - next_idx,
            )
        else:
            _notify(
                "resilience.pool_replaced",
                reason=reason,
                pool_failures=pool_failures,
            )

    try:
        while next_idx < n_tasks:
            if not serial and pool is None:
                pool = _try_create_pool(
                    min(max_workers, n_tasks - next_idx),
                    initializer=initializer,
                    initargs=initargs,
                )
                if pool is None:
                    serial = True
                futures.clear()
                submit_idx = next_idx
            if serial:
                result = _run_serial(next_idx)
                yield next_idx, result
                next_idx += 1
                continue

            try:
                while submit_idx < n_tasks and len(futures) < window:
                    futures[submit_idx] = pool.submit(
                        call_with_faults,
                        fn,
                        args_list[submit_idx],
                        submit_idx,
                        attempts[submit_idx],
                        injector,
                    )
                    submit_idx += 1
                result = futures[next_idx].result(timeout=policy.task_timeout_s)
            except FuturesTimeoutError:
                # The head task is stuck; the worker running it cannot be
                # reclaimed, so the whole pool is replaced and in-flight
                # tasks resubmitted.
                attempts[next_idx] += 1
                _notify(
                    "resilience.timeout",
                    task=next_idx,
                    attempt=attempts[next_idx],
                    timeout_s=policy.task_timeout_s,
                )
                if attempts[next_idx] > policy.max_task_retries:
                    raise TaskTimeout(
                        f"task {next_idx} exceeded {policy.task_timeout_s}s "
                        f"on every one of {attempts[next_idx]} attempts"
                    ) from None
                _replace_pool("task timeout")
                continue
            except (BrokenProcessPool, OSError) as exc:
                # A worker died (or the pool's plumbing failed).  The
                # killer is *some* in-flight task; all of them get their
                # attempt bumped so a deterministic kill fault cannot
                # re-fire forever.
                for idx in list(futures):
                    attempts[idx] += 1
                    if attempts[idx] > policy.max_task_retries:
                        raise WorkerCrash(
                            f"task {idx} implicated in {pool_failures + 1} "
                            f"pool failures ({type(exc).__name__}: {exc})"
                        ) from exc
                _replace_pool(f"{type(exc).__name__}: {exc}")
                continue
            except ResilienceError as exc:
                # Typed failure raised inside the worker and shipped back
                # through the future: the pool is healthy, retry the one task.
                attempts[next_idx] += 1
                if attempts[next_idx] > policy.max_task_retries:
                    raise
                delay = policy.backoff_s(next_idx, attempts[next_idx])
                _notify(
                    "resilience.retry",
                    task=next_idx,
                    attempt=attempts[next_idx],
                    error=type(exc).__name__,
                    backoff_s=delay,
                    serial=False,
                )
                if delay > 0:
                    time.sleep(delay)
                futures[next_idx] = pool.submit(
                    call_with_faults,
                    fn,
                    args_list[next_idx],
                    next_idx,
                    attempts[next_idx],
                    injector,
                )
                continue

            del futures[next_idx]
            yield next_idx, result
            next_idx += 1
        completed = True
    finally:
        if pool is not None:
            if completed:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                # Abandoned mid-run (exception, KeyboardInterrupt, or the
                # consumer dropped the generator): leave no worker behind.
                terminate_pool(pool)


def run_tasks_resilient(
    fn: Callable[..., Any],
    args_list: Sequence[Tuple],
    max_workers: int,
    policy: Optional[ResiliencePolicy] = None,
    injector: Optional[FaultInjector] = None,
    emit: Optional[Emit] = None,
) -> list:
    """Collect :func:`iter_tasks_resilient` into an ordered result list."""
    return [
        result
        for _, result in iter_tasks_resilient(
            fn,
            args_list,
            max_workers=max_workers,
            policy=policy,
            injector=injector,
            emit=emit,
        )
    ]
