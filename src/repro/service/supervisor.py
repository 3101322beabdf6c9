"""Supervised job execution: lease, run, checkpoint, classify, retry.

A :class:`Supervisor` is one worker loop over the durable run queue
(:mod:`repro.service.jobs`): reclaim expired leases, lease the oldest
runnable job, execute it through :func:`~repro.engine.runner.run_scenario`
with the store attached, and drive the job's state machine from the
outcome.  Several supervisors -- threads inside ``repro serve`` or
separate ``python -m repro.service.supervisor`` processes -- can share
one store; lease ownership keeps them from treading on each other.

Crash safety is the point:

* Every job gets a **per-job checkpoint directory**
  (``<store>/jobs/<id>/``), so a supervisor killed mid-reduction leaves
  a resumable prefix; the worker that reclaims the expired lease resumes
  from it and produces artifacts *bit-identical* to an uninterrupted
  run (the PR 5 checkpoint guarantee, now applied per job).
* A **heartbeat thread** extends the lease while the run is in flight;
  a SIGKILLed supervisor simply stops beating, the lease expires, and
  ``reclaim_expired`` re-queues the job.
* Failures are **classified** with the engine's typed taxonomy
  (:data:`repro.engine.resilience.RETRYABLE`): worker crashes, broken
  pools, and OS flakiness re-queue with deterministic backoff; a
  ``ValueError`` from a malformed scenario parks the job in ``failed``
  immediately -- no retry budget wasted on a permanent error.
* **Graceful drain** (:meth:`Supervisor.stop`): stop leasing, signal
  the in-flight run to abort at its next event boundary (its periodic
  checkpoints bound the lost work), and release the lease unconsumed so
  the next supervisor resumes it.  The lease is released only once the
  worker thread has actually stopped -- a run that ignores the abort
  keeps its lease (and its heartbeat), because releasing it would let a
  rescuer resume from a checkpoint directory this thread is still
  writing to.  If the process then exits anyway (SIGTERM path), the
  heartbeat dies with it and lease expiry hands the job over safely.
* An idle loop **wakes on enqueue**: a job enqueued through the same
  :class:`~repro.store.ArtifactStore` instance (``repro serve``'s HTTP
  handlers and runners share one) ends the runner's wait as soon as its
  transaction commits, and a job waiting out its retry backoff ends it
  when the backoff runs out.  ``poll_s`` is only the fallback for jobs
  enqueued elsewhere -- another store instance or another process.
* The **worker loop** survives transient store errors (a busy sqlite
  handle, a disk hiccup): the loop body is guarded, errors are reported
  as ``supervisor.loop_error`` events, and the loop backs off and
  retries instead of dying silently under ``repro serve``.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Optional

from repro.engine.context import RunContext
from repro.engine.resilience import RETRYABLE
from repro.engine.runner import run_scenario
from repro.engine.scenario import Scenario, show_retired_fields
from repro.service.jobs import JobQueue
from repro.store.store import ArtifactStore
from repro.util.validate import positive_float, positive_float_arg

__all__ = ["DrainAborted", "Supervisor", "job_checkpoint_dir"]

#: Ceiling on the loop's error backoff; transient store errors retry at
#: ``poll_s * 2**n`` up to this.
_ERROR_BACKOFF_MAX_S = 30.0


class DrainAborted(Exception):
    """The supervisor is draining: the in-flight run stopped itself.

    Raised from the run context's reporting sink at the next event the
    run emits after :meth:`Supervisor.stop` -- block boundaries, stage
    transitions -- so an aborted streaming run leaves a clean
    checkpoint prefix behind.  Handled inside the supervisor (the job
    is released unconsumed); never a job failure.
    """


def job_checkpoint_dir(store: ArtifactStore, job_id: str) -> Path:
    """Where one job's checkpoint files live (inside the store root)."""
    return store.directory / "jobs" / job_id


class Supervisor:
    """One worker loop executing queued jobs against a shared store.

    Parameters
    ----------
    store:
        The artifact store holding both the queue and the artifacts.
    worker_id:
        Lease-owner identity; generated when omitted.  Two live
        supervisors must not share one.
    lease_s:
        Lease duration; heartbeats extend it at ``lease_s / 3`` cadence,
        so a worker must miss several beats before its job is reclaimed.
    poll_s:
        Fallback interval for enqueues made outside this store instance;
        an enqueue through this store wakes the idle loop at once.
    checkpoint_every:
        Block cadence for the per-job checkpoints.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` (or path to
        one) threaded into each job's run context -- the chaos-test
        hook.
    on_event:
        ``on_event(event, **payload)`` reporting callback; job
        lifecycle events are also mirrored to the store's callback.
    """

    def __init__(
        self,
        store: ArtifactStore,
        worker_id: Optional[str] = None,
        lease_s: float = 30.0,
        poll_s: float = 0.5,
        checkpoint_every: int = 1,
        fault_plan: Optional[Any] = None,
        on_event: Optional[Any] = None,
    ):
        self.store = store
        self.queue = JobQueue(store)
        self.worker_id = worker_id or f"supervisor-{uuid.uuid4().hex[:8]}"
        self.lease_s = positive_float(lease_s, "lease_s")
        self.poll_s = positive_float(poll_s, "poll_s")
        self.checkpoint_every = int(checkpoint_every)
        self.fault_plan = fault_plan
        self.on_event = on_event
        self.jobs_done = 0
        self.jobs_failed = 0
        #: Monotonic timestamp of the last loop iteration; the service's
        #: ``/ready`` probe calls :meth:`heartbeat_age_s` against it.
        self._last_beat = time.monotonic()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._current_job: Optional[str] = None

    # ---- liveness ------------------------------------------------------

    def heartbeat_age_s(self) -> float:
        """Seconds since the loop last made progress."""
        return time.monotonic() - self._last_beat

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _emit(self, event: str, **payload: Any) -> None:
        if self.on_event is not None:
            self.on_event(event, **payload)

    # ---- execution -----------------------------------------------------

    def _abort_sink(self, event: str, payload: Dict[str, Any]) -> None:
        """Cooperative drain: every event the run emits checks the stop
        flag, so a draining supervisor's in-flight run aborts at its
        next block/stage boundary instead of running to completion."""
        if self._stop.is_set():
            raise DrainAborted(event)

    def _build_context(self, scenario: Scenario) -> RunContext:
        sinks = [self._abort_sink]
        if self.on_event is not None:
            sinks.append(lambda event, payload: self._emit(event, **payload))
        return RunContext(
            seed=scenario.seed,
            faults=self.fault_plan,
            sinks=sinks,
        )

    def _discard_checkpoints(self, job_id: str) -> None:
        """Drop a job's checkpoint directory once it can never resume.

        Called on completion and on terminal parking (permanent fail,
        cancel): the prefix is dead weight.  Retryable/queued jobs keep
        theirs -- the next attempt resumes from it.  A failed cleanup
        is harmless (store gc also prunes terminal jobs' directories).
        """
        shutil.rmtree(job_checkpoint_dir(self.store, job_id),
                      ignore_errors=True)

    def _fail_job(self, job: Dict[str, Any], exc: Exception) -> str:
        """Record a failed attempt: retryable errors re-queue, the rest
        park the job in ``failed``; returns the resulting state."""
        job_id = job["id"]
        retryable = isinstance(exc, RETRYABLE)
        state = self.queue.fail(
            job_id,
            self.worker_id,
            {
                "type": type(exc).__name__,
                "message": str(exc),
                "attempt": job["attempts"],
                "worker": self.worker_id,
            },
            retryable=retryable,
        )
        self.jobs_failed += 1
        if state == "failed":
            # Parked permanently: the checkpoint prefix can never
            # be resumed (an operator retry starts clean).
            self._discard_checkpoints(job_id)
        self._emit(
            "supervisor.job_failed",
            job=job_id,
            error=type(exc).__name__,
            retryable=retryable,
            state=state,
        )
        return state or self.queue.get(job_id)["state"]

    def run_job(self, job: Dict[str, Any]) -> str:
        """Execute one leased job to a terminal transition; returns the
        resulting state (``done``/``failed``/``queued``/``cancelled``)."""
        job_id = job["id"]
        self._current_job = job_id
        try:
            return self._run_leased(job)
        finally:
            self._current_job = None

    def _run_leased(self, job: Dict[str, Any]) -> str:
        job_id = job["id"]
        if self._stop.is_set():
            # Drain won the race with the lease: hand the job back
            # before execution starts.
            self.queue.release(job_id, self.worker_id)
            self._emit("supervisor.drain_released", job=job_id)
            return self.queue.get(job_id)["state"]
        if not self.queue.mark_running(job_id, self.worker_id):
            # Cancel won the race, or the lease was already reclaimed.
            state = self.queue.get(job_id)["state"]
            if state in ("cancelled", "failed"):
                self._discard_checkpoints(job_id)
            return state

        beat_stop = threading.Event()

        def _beat() -> None:
            while not beat_stop.wait(self.lease_s / 3.0):
                if not self.queue.heartbeat(
                    job_id, self.worker_id, self.lease_s
                ):
                    return  # lease lost; the result will be discarded

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        try:
            scenario = Scenario.from_json(job["scenario_json"])
            ctx = self._build_context(scenario)
            result = run_scenario(
                scenario,
                ctx,
                store=self.store,
                checkpoint_dir=job_checkpoint_dir(self.store, job_id),
                # Attempt 1 starts clean (no checkpoint file -> no-op);
                # a reclaimed or re-queued attempt resumes the prefix.
                resume=True,
                checkpoint_every=self.checkpoint_every,
            )
        except DrainAborted:
            # The run stopped itself at an event boundary (see
            # :meth:`stop`); its checkpoint prefix is intact, so the
            # job goes back unconsumed for the next worker to resume.
            self.queue.release(job_id, self.worker_id)
            self._emit("supervisor.drain_released", job=job_id)
            return self.queue.get(job_id)["state"]
        except Exception as exc:
            return self._fail_job(job, exc)
        finally:
            beat_stop.set()
            beater.join(timeout=self.lease_s)

        summary = result.summary()
        try:
            completed = self.queue.complete(
                job_id,
                self.worker_id,
                {
                    "scenario_identity": _scenario_identity(scenario),
                    "configurations": summary.get("configurations"),
                    "frontier_points": summary.get("frontier_points"),
                    "stage_statuses": dict(result.stage_statuses),
                },
            )
        except ValueError as exc:
            # A non-finite number cannot be stored as strict JSON: a
            # permanent failure, whose error body is finite.
            return self._fail_job(job, exc)
        if completed:
            self.jobs_done += 1
            self._discard_checkpoints(job_id)
            self._emit("supervisor.job_done", job=job_id)
            return "done"
        # Lease lost mid-run: a healthier worker owns (or finished) the
        # job now.  The artifacts this run stored are content-addressed
        # and byte-identical to that worker's, so nothing is wasted --
        # only the job-state transition is ceded.
        self._emit("supervisor.result_discarded", job=job_id)
        return self.queue.get(job_id)["state"]

    # ---- loop ----------------------------------------------------------

    def _error_backoff(self, consecutive: int, exc: Exception) -> None:
        """Report a loop-body error and back off before retrying.

        ``run_job`` already converts *job* failures into state-machine
        transitions; what lands here is infrastructure trouble -- a
        busy/locked store, a disk hiccup -- which must never kill the
        worker loop (under ``repro serve`` the daemon thread would die
        silently and queued jobs would stall).
        """
        self._emit(
            "supervisor.loop_error",
            error=type(exc).__name__,
            message=str(exc),
            consecutive=consecutive,
        )
        backoff = min(
            max(self.poll_s, 0.05) * 2.0 ** min(consecutive, 10),
            _ERROR_BACKOFF_MAX_S,
        )
        self._stop.wait(backoff)

    def run_until_idle(self) -> int:
        """Drain the queue in this thread; returns jobs completed.

        Transient store errors back off and retry; after five
        consecutive failures the error propagates (a caller waiting for
        an idle queue must see a wedged store, not an infinite loop).
        """
        done = 0
        errors = 0
        while not self._stop.is_set():
            self._last_beat = time.monotonic()
            try:
                self.queue.reclaim_expired()
                job = self.queue.lease(self.worker_id, self.lease_s)
                if job is None:
                    break
                if self.run_job(job) == "done":
                    done += 1
                errors = 0
            except Exception as exc:
                errors += 1
                if errors >= 5:
                    raise
                self._error_backoff(errors, exc)
        return done

    def _idle_wait_s(self) -> float:
        """How long an idle loop may wait: ``poll_s``, or less when a
        queued job's retry backoff runs out sooner."""
        due = self.queue.next_due()
        if due is None:
            return self.poll_s
        return min(self.poll_s, max(0.0, due - time.time()))

    def run_forever(self) -> None:
        errors = 0
        while True:
            # The wake generation is read before the stop flag and the
            # lease: an enqueue or stop() landing after this line ends
            # the idle wait below at once.
            generation = self.store.wake_generation
            if self._stop.is_set():
                return
            self._last_beat = time.monotonic()
            try:
                self.queue.reclaim_expired()
                job = None
                if not self._draining.is_set():
                    job = self.queue.lease(self.worker_id, self.lease_s)
                if job is not None:
                    self.run_job(job)
                    errors = 0
                    continue
                wait_s = self._idle_wait_s()
            except Exception as exc:
                errors += 1
                self._error_backoff(errors, exc)
                continue
            errors = 0
            self.store.wait_for_wake(generation, wait_s)

    def start(self) -> "Supervisor":
        """Run the loop in a daemon thread (the ``repro serve`` mode)."""
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._thread = threading.Thread(
            target=self.run_forever, name=self.worker_id, daemon=True
        )
        self._thread.start()
        return self

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self, grace_s: float = 10.0) -> None:
        """Graceful drain: stop leasing and abort the in-flight run.

        Setting the stop flag makes the in-flight run raise
        :class:`DrainAborted` at its next event boundary (every run
        context carries the abort sink), after which the worker thread
        releases the job's lease unconsumed -- the released job resumes
        from its last checkpoint, so the grace window bounds
        *wall-clock* lost to the drain, not correctness.  Safe to call
        without :meth:`start` (just sets the flags).

        A run that emits no event within ``grace_s`` keeps its lease: a
        lease must never be released while the thread that owns it may
        still be writing the job's checkpoint directory (a rescuer
        would resume from files being mutated under it).  Such a job
        either finishes normally under its own heartbeat, or -- when
        the draining process exits -- stops beating, expires, and is
        reclaimed by the next worker.
        """
        self._draining.set()
        self._stop.set()
        self.store.wake_runners()  # an idle loop exits now, not at its poll
        thread = self._thread
        if thread is not None:
            thread.join(timeout=grace_s)
            if thread.is_alive():
                self._emit(
                    "supervisor.drain_timeout",
                    job=self._current_job,
                    grace_s=grace_s,
                )
                return
        in_flight = self._current_job
        if in_flight is not None:
            # Defensive: only reachable if the worker thread died
            # without running run_job's cleanup; the thread is gone, so
            # releasing is safe.
            self.queue.release(in_flight, self.worker_id)
            self._emit("supervisor.drain_released", job=in_flight)


def _scenario_identity(scenario: Scenario) -> str:
    from repro.engine.stagegraph import scenario_identity

    return scenario_identity(scenario)


def main(argv=None) -> int:
    """``python -m repro.service.supervisor``: a standalone worker process.

    Used by the chaos CI leg (it is the process that gets SIGKILLed) and
    for running workers on machines other than the one serving HTTP.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-supervisor",
        description="Execute queued scenario runs from a repro artifact store",
    )
    parser.add_argument("--store-dir", type=Path, required=True)
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--lease-s", type=positive_float_arg, default=30.0)
    parser.add_argument(
        "--poll-s",
        type=positive_float_arg,
        default=0.5,
        help="how often an idle worker looks for jobs enqueued by other "
             "processes (default: 0.5)",
    )
    parser.add_argument("--checkpoint-every", type=int, default=1)
    parser.add_argument(
        "--until-idle",
        action="store_true",
        help="exit once the queue is empty instead of polling forever",
    )
    parser.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        help="JSON fault plan injected into every job run (chaos tests)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    fault_plan = None
    if args.fault_plan is not None:
        from repro.engine.faults import FaultPlan

        fault_plan = FaultPlan.from_file(args.fault_plan)

    def _log(event: str, **payload: Any) -> None:
        if args.verbose:
            print(f"[supervisor] {event}: {json.dumps(payload, default=str)}",
                  flush=True)

    show_retired_fields("always")
    with ArtifactStore(args.store_dir) as store:
        supervisor = Supervisor(
            store,
            worker_id=args.worker_id,
            lease_s=args.lease_s,
            poll_s=args.poll_s,
            checkpoint_every=args.checkpoint_every,
            fault_plan=fault_plan,
            on_event=_log,
        )
        print(
            f"supervisor {supervisor.worker_id} on {store.path}", flush=True
        )
        if args.until_idle:
            done = supervisor.run_until_idle()
            print(f"queue idle after {done} job(s)", flush=True)
        else:
            try:
                supervisor.run_forever()
            except KeyboardInterrupt:
                supervisor.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
