"""The durable run queue: crash-safe job rows inside the artifact store.

A *job* is one requested scenario run.  Its row lives in the store's
``jobs`` table (:mod:`repro.store.store`), so enqueueing, leasing, and
completion ride the same sqlite transactions as the artifacts the run
produces -- a killed process can never strand a job in a state that
disagrees with the store's contents.

State machine::

    queued --lease--> leased --mark_running--> running --complete--> done
      ^                 |                        |
      |                 +--- lease expiry -------+--> queued   (crash recovery)
      |                 |                        |
      +--- retryable ---+------- fail -----------+--> failed   (permanent)
      |
    cancel (queued only; leased/running jobs get cancel_requested)

Every transition is guarded: leases carry an owner + expiry, and the
``done``/``failed`` transitions require the caller to still *hold* the
lease -- a supervisor whose lease expired mid-run (its job re-leased by
a healthier worker) has its late result discarded instead of clobbering
the newer attempt.  That, plus content-addressed artifacts (a duplicate
run writes byte-identical rows), is what makes crash recovery safe
without distributed locking.

Retry discipline: a failure classified *retryable* (the engine's
:data:`repro.engine.resilience.RETRYABLE` taxonomy) re-queues the job
with a deterministic exponential backoff (``not_before``); a permanent
failure -- or exhausting ``max_attempts`` -- parks it in ``failed`` with
the error record preserved.  Lease expiry consumes an attempt the same
way, so a job whose payload kills its worker cannot crash-loop forever.
"""

from __future__ import annotations

import json
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.store.store import JOB_ACTIVE_STATES, ArtifactStore

__all__ = [
    "JOB_STATES",
    "JOB_ACTIVE_STATES",
    "JobQueue",
    "QueueFull",
    "UnknownJob",
]

#: Every state a job row can hold.
JOB_STATES = ("queued", "leased", "running", "done", "failed", "cancelled")

#: Backoff before retry attempt ``a`` (seconds): ``BASE * FACTOR**(a-1)``
#: capped at ``MAX`` -- deterministic, so chaos tests can pin schedules.
BACKOFF_BASE_S = 0.25
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 30.0


class QueueFull(RuntimeError):
    """Enqueue refused: the queued backlog is at its configured bound.

    Carries ``retry_after_s``, the client-facing load-shedding hint
    (HTTP maps it to ``429`` + ``Retry-After``).
    """

    def __init__(self, depth: int, bound: int, retry_after_s: float = 1.0):
        super().__init__(
            f"run queue is full ({depth} queued >= bound {bound}); "
            "retry later"
        )
        self.depth = depth
        self.bound = bound
        self.retry_after_s = retry_after_s


class UnknownJob(KeyError):
    """A job id that is not in the queue."""

    def __init__(self, job_id: str):
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return f"unknown job {self.job_id!r}"


def retry_backoff_s(attempt: int) -> float:
    """Deterministic backoff before retry ``attempt`` (>= 1)."""
    if attempt < 1:
        return 0.0
    return min(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX_S)


def _row_to_job(row: Tuple) -> Dict[str, Any]:
    (
        job_id, idempotency_key, scenario_json, scenario_name, state,
        attempts, max_attempts, not_before, lease_owner, lease_expires_at,
        cancel_requested, error_json, result_json, created_at, updated_at,
    ) = row
    return {
        "id": job_id,
        "idempotency_key": idempotency_key,
        "scenario_json": scenario_json,
        "scenario_name": scenario_name,
        "state": state,
        "attempts": attempts,
        "max_attempts": max_attempts,
        "not_before": not_before,
        "lease_owner": lease_owner,
        "lease_expires_at": lease_expires_at,
        "cancel_requested": bool(cancel_requested),
        "error": json.loads(error_json) if error_json else None,
        "result": json.loads(result_json) if result_json else None,
        "created_at": created_at,
        "updated_at": updated_at,
    }


_COLUMNS = (
    "id, idempotency_key, scenario_json, scenario_name, state, attempts, "
    "max_attempts, not_before, lease_owner, lease_expires_at, "
    "cancel_requested, error_json, result_json, created_at, updated_at"
)


class JobQueue:
    """Queue operations over one :class:`~repro.store.ArtifactStore`.

    Stateless besides the store handle: any number of queues (HTTP
    handler threads, supervisor workers, CLI invocations, separate
    processes) may operate on the same store concurrently.  Within one
    process the store lock serializes transitions; across processes
    every transition runs inside ``BEGIN IMMEDIATE`` (see
    :meth:`repro.store.ArtifactStore.transaction`), so read-then-write
    transitions take sqlite's write lock up front and wait on the busy
    handler instead of failing on a WAL snapshot conflict.

    :meth:`enqueue` wakes the supervisors idling on the same store
    instance (:meth:`ArtifactStore.wake_runners`) once its transaction
    has committed.  Supervisors on another store instance or in another
    process see the job at their next poll.
    """

    def __init__(self, store: ArtifactStore):
        self.store = store

    def _emit(self, event: str, **payload: Any) -> None:
        self.store._emit(event, **payload)

    # ---- write path ----------------------------------------------------

    def enqueue(
        self,
        scenario_json: str,
        idempotency_key: Optional[str] = None,
        max_attempts: int = 3,
        max_queued: Optional[int] = None,
        scenario_name: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], bool]:
        """Admit one scenario run; returns ``(job, created)``.

        ``idempotency_key`` dedupes: re-enqueueing an existing key
        returns the existing job (whatever its state) with ``created``
        False -- the client-safe retry for a lost HTTP response.
        ``max_queued`` bounds the *queued* backlog; at the bound the
        enqueue is refused with :class:`QueueFull` (load shedding)
        inside the same transaction that measured the depth, so the
        bound can never be overshot by a race.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        now = time.time()
        job_id = uuid.uuid4().hex[:16]
        with self.store.transaction() as conn:
            if idempotency_key is not None:
                row = conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs WHERE idempotency_key = ?",
                    (idempotency_key,),
                ).fetchone()
                if row is not None:
                    return _row_to_job(row), False
            if max_queued is not None:
                depth = conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
                ).fetchone()[0]
                if depth >= max_queued:
                    raise QueueFull(depth, max_queued)
            conn.execute(
                "INSERT INTO jobs (id, idempotency_key, scenario_json, "
                "scenario_name, state, attempts, max_attempts, not_before, "
                "created_at, updated_at) "
                "VALUES (?, ?, ?, ?, 'queued', 0, ?, 0, ?, ?)",
                (job_id, idempotency_key, scenario_json, scenario_name,
                 max_attempts, now, now),
            )
        self.store.wake_runners()
        self._emit("jobs.enqueued", job=job_id, name=scenario_name)
        return self.get(job_id), True

    def lease(
        self, owner: str, lease_s: float = 30.0
    ) -> Optional[Dict[str, Any]]:
        """Claim the oldest runnable queued job for ``owner``, or ``None``.

        Claiming consumes one attempt; jobs whose ``not_before`` backoff
        has not elapsed, and jobs with a pending cancel, are skipped
        (the latter are flipped to ``cancelled`` on the way past).
        """
        now = time.time()
        with self.store.transaction() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', updated_at = ? "
                "WHERE state = 'queued' AND cancel_requested = 1",
                (now,),
            )
            row = conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued' "
                "AND not_before <= ? ORDER BY created_at, id LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            job_id = row[0]
            claimed = conn.execute(
                "UPDATE jobs SET state = 'leased', lease_owner = ?, "
                "lease_expires_at = ?, attempts = attempts + 1, "
                "updated_at = ? WHERE id = ? AND state = 'queued'",
                (owner, now + lease_s, now, job_id),
            )
            if not claimed.rowcount:
                # Defense in depth: the transaction serialization above
                # should make this unreachable, but if the row moved
                # under us we must not double-claim it.
                return None
        job = self.get(job_id)
        self._emit("jobs.leased", job=job_id, owner=owner,
                   attempt=job["attempts"])
        return job

    def next_due(self) -> Optional[float]:
        """The earliest ``not_before`` of a queued job, or ``None``.

        After an empty :meth:`lease` this is when a job waiting out its
        retry backoff becomes runnable -- the supervisor's idle wait
        ends there instead of at its next poll.
        """
        with self.store._lock:
            return self.store._conn.execute(
                "SELECT MIN(not_before) FROM jobs WHERE state = 'queued'"
            ).fetchone()[0]

    def heartbeat(
        self, job_id: str, owner: str, lease_s: float = 30.0
    ) -> bool:
        """Extend ``owner``'s lease; False when the lease was lost."""
        now = time.time()
        with self.store.transaction() as conn:
            cur = conn.execute(
                "UPDATE jobs SET lease_expires_at = ?, updated_at = ? "
                "WHERE id = ? AND lease_owner = ? "
                "AND state IN ('leased', 'running')",
                (now + lease_s, now, job_id, owner),
            )
        return bool(cur.rowcount)

    def mark_running(self, job_id: str, owner: str) -> bool:
        """``leased`` -> ``running``; False when the lease was lost or a
        cancel arrived first (the job flips to ``cancelled`` instead)."""
        now = time.time()
        with self.store.transaction() as conn:
            cancelled = conn.execute(
                "UPDATE jobs SET state = 'cancelled', lease_owner = NULL, "
                "lease_expires_at = NULL, updated_at = ? "
                "WHERE id = ? AND lease_owner = ? AND state = 'leased' "
                "AND cancel_requested = 1",
                (now, job_id, owner),
            )
            if cancelled.rowcount:
                return False
            cur = conn.execute(
                "UPDATE jobs SET state = 'running', updated_at = ? "
                "WHERE id = ? AND lease_owner = ? AND state = 'leased'",
                (now, job_id, owner),
            )
        return bool(cur.rowcount)

    def complete(
        self, job_id: str, owner: str, result: Optional[Dict[str, Any]] = None
    ) -> bool:
        """``running`` -> ``done`` -- only while ``owner`` still holds the
        lease, so a superseded worker's late result is discarded.  A
        non-finite number in ``result`` raises ``ValueError`` and leaves
        the job as it was: stored results are strict JSON."""
        now = time.time()
        with self.store.transaction() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'done', result_json = ?, "
                "lease_owner = NULL, lease_expires_at = NULL, "
                "updated_at = ? WHERE id = ? AND lease_owner = ? "
                "AND state = 'running'",
                (json.dumps(result or {}, sort_keys=True, allow_nan=False),
                 now, job_id, owner),
            )
        done = bool(cur.rowcount)
        if done:
            self._emit("jobs.done", job=job_id, owner=owner)
        return done

    def fail(
        self,
        job_id: str,
        owner: str,
        error: Dict[str, Any],
        retryable: bool,
    ) -> Optional[str]:
        """Record a failed attempt; returns the resulting state.

        Retryable failures below the attempt budget go back to
        ``queued`` with deterministic backoff; everything else parks in
        ``failed``.  ``None`` when ``owner`` no longer holds the lease.
        A non-finite number in ``error`` raises ``ValueError`` and
        leaves the job as it was.
        """
        now = time.time()
        with self.store.transaction() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts FROM jobs "
                "WHERE id = ? AND lease_owner = ? "
                "AND state IN ('leased', 'running')",
                (job_id, owner),
            ).fetchone()
            if row is None:
                return None
            attempts, max_attempts = row
            retry = retryable and attempts < max_attempts
            state = "queued" if retry else "failed"
            conn.execute(
                "UPDATE jobs SET state = ?, error_json = ?, "
                "lease_owner = NULL, lease_expires_at = NULL, "
                "not_before = ?, updated_at = ? WHERE id = ?",
                (
                    state,
                    json.dumps(dict(error, retryable=bool(retryable)),
                               sort_keys=True, allow_nan=False),
                    now + retry_backoff_s(attempts) if retry else 0.0,
                    now,
                    job_id,
                ),
            )
        self._emit("jobs.failed", job=job_id, owner=owner, state=state,
                   retryable=retryable)
        return state

    def release(self, job_id: str, owner: str) -> bool:
        """Give a held lease back unconsumed (graceful drain).

        The job returns to ``queued`` immediately runnable, and the
        attempt the lease consumed is refunded -- a drain is not a
        failure.
        """
        now = time.time()
        with self.store.transaction() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'queued', lease_owner = NULL, "
                "lease_expires_at = NULL, not_before = 0, "
                "attempts = MAX(attempts - 1, 0), updated_at = ? "
                "WHERE id = ? AND lease_owner = ? "
                "AND state IN ('leased', 'running')",
                (now, job_id, owner),
            )
        released = bool(cur.rowcount)
        if released:
            self._emit("jobs.released", job=job_id, owner=owner)
        return released

    def reclaim_expired(self) -> List[str]:
        """Re-queue (or permanently fail) jobs whose lease expired.

        The crash-recovery path: a SIGKILLed supervisor's lease runs
        out, and the next ``reclaim_expired`` -- every supervisor calls
        it each poll -- hands the job to a live worker, which resumes
        from the job's checkpoint.  A job that already burned its
        attempt budget is parked in ``failed`` instead, so a
        worker-killing payload cannot crash-loop the fleet.
        """
        now = time.time()
        reclaimed: List[str] = []
        with self.store.transaction() as conn:
            rows = conn.execute(
                "SELECT id, attempts, max_attempts FROM jobs "
                "WHERE state IN ('leased', 'running') "
                "AND lease_expires_at IS NOT NULL AND lease_expires_at < ?",
                (now,),
            ).fetchall()
            for job_id, attempts, max_attempts in rows:
                if attempts >= max_attempts:
                    conn.execute(
                        "UPDATE jobs SET state = 'failed', error_json = ?, "
                        "lease_owner = NULL, lease_expires_at = NULL, "
                        "updated_at = ? WHERE id = ?",
                        (
                            json.dumps({
                                "type": "LeaseExpired",
                                "message": f"lease expired after "
                                           f"{attempts} attempt(s)",
                                "retryable": False,
                            }, sort_keys=True, allow_nan=False),
                            now,
                            job_id,
                        ),
                    )
                else:
                    conn.execute(
                        "UPDATE jobs SET state = 'queued', "
                        "lease_owner = NULL, lease_expires_at = NULL, "
                        "not_before = 0, updated_at = ? WHERE id = ?",
                        (now, job_id),
                    )
                reclaimed.append(job_id)
        for job_id in reclaimed:
            self._emit("jobs.reclaimed", job=job_id)
        return reclaimed

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job: immediate while ``queued``, requested otherwise.

        A leased/running job cannot be yanked out of its worker, so the
        cancel is recorded (``cancel_requested``) and honored at the
        next transition the supervisor drives (before execution starts,
        or when the job returns to ``queued`` on retry/reclaim).
        Terminal jobs are left untouched.
        """
        now = time.time()
        with self.store.transaction() as conn:
            exists = conn.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if exists is None:
                raise UnknownJob(job_id)
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', updated_at = ? "
                "WHERE id = ? AND state = 'queued'",
                (now, job_id),
            )
            conn.execute(
                "UPDATE jobs SET cancel_requested = 1, updated_at = ? "
                "WHERE id = ? AND state IN ('leased', 'running')",
                (now, job_id),
            )
        job = self.get(job_id)
        self._emit("jobs.cancel", job=job_id, state=job["state"])
        return job

    def retry(self, job_id: str) -> Dict[str, Any]:
        """Operator re-queue of a ``failed``/``cancelled`` job.

        Resets the attempt counter and the cancel flag; the error
        record stays visible until the next attempt overwrites it.
        """
        now = time.time()
        with self.store.transaction() as conn:
            row = conn.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise UnknownJob(job_id)
            if row[0] not in ("failed", "cancelled"):
                raise ValueError(
                    f"job {job_id} is {row[0]!r}; only failed/cancelled "
                    "jobs can be retried"
                )
            conn.execute(
                "UPDATE jobs SET state = 'queued', attempts = 0, "
                "cancel_requested = 0, not_before = 0, lease_owner = NULL, "
                "lease_expires_at = NULL, updated_at = ? WHERE id = ?",
                (now, job_id),
            )
        self._emit("jobs.retry", job=job_id)
        return self.get(job_id)

    # ---- read path -----------------------------------------------------

    def get(self, job_id: str) -> Dict[str, Any]:
        with self.store._lock:
            row = self.store._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise UnknownJob(job_id)
        return _row_to_job(row)

    def list_jobs(
        self, state: Optional[str] = None, limit: int = 200
    ) -> List[Dict[str, Any]]:
        """Jobs newest-first, optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {state!r}; known: {list(JOB_STATES)}"
            )
        query = f"SELECT {_COLUMNS} FROM jobs"
        args: Tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY created_at DESC, id DESC LIMIT ?"
        with self.store._lock:
            rows = self.store._conn.execute(query, args + (limit,)).fetchall()
        return [_row_to_job(r) for r in rows]

    def depth(self) -> int:
        """Jobs currently in ``queued`` (the load-shedding measure)."""
        with self.store._lock:
            return self.store._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
            ).fetchone()[0]

    def counts(self) -> Dict[str, int]:
        """Job counts per state (absent states omitted)."""
        with self.store._lock:
            rows = self.store._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        return dict(rows)
