"""The durable run queue: every transition guarded, every crash safe.

Jobs live in the artifact store's sqlite file, so the invariants under
test are transactional: no transition can half-happen, no two owners
can both complete a job, and a reopened store sees exactly the queue a
killed process left behind.
"""

import json
import threading
import time

import pytest

from repro.service.jobs import (
    BACKOFF_BASE_S,
    BACKOFF_MAX_S,
    JOB_STATES,
    JobQueue,
    QueueFull,
    UnknownJob,
    retry_backoff_s,
)
from repro.store import ArtifactStore

SPEC = json.dumps({"workload": "ep"})


@pytest.fixture
def store(tmp_path):
    with ArtifactStore(tmp_path / "store") as s:
        yield s


@pytest.fixture
def queue(store):
    return JobQueue(store)


class TestEnqueue:
    def test_new_job_is_queued(self, queue):
        job, created = queue.enqueue(SPEC, scenario_name="demo")
        assert created
        assert job["state"] == "queued"
        assert job["attempts"] == 0
        assert job["scenario_name"] == "demo"
        assert job["scenario_json"] == SPEC

    def test_idempotency_key_dedupes(self, queue):
        first, created = queue.enqueue(SPEC, idempotency_key="k1")
        assert created
        again, created_again = queue.enqueue(SPEC, idempotency_key="k1")
        assert not created_again
        assert again["id"] == first["id"]
        assert queue.depth() == 1

    def test_idempotency_key_survives_terminal_states(self, queue):
        """Re-posting a finished job's key returns the finished job --
        the client-safe retry never re-executes."""
        job, _ = queue.enqueue(SPEC, idempotency_key="k1")
        leased = queue.lease("w")
        assert queue.mark_running(leased["id"], "w")
        assert queue.complete(leased["id"], "w", {"ok": True})
        again, created = queue.enqueue(SPEC, idempotency_key="k1")
        assert not created
        assert again["state"] == "done"

    def test_depth_bound_sheds_load(self, queue):
        queue.enqueue(SPEC)
        queue.enqueue(SPEC)
        with pytest.raises(QueueFull) as exc:
            queue.enqueue(SPEC, max_queued=2)
        assert exc.value.depth == 2
        assert exc.value.bound == 2
        assert exc.value.retry_after_s > 0
        assert queue.depth() == 2  # the refused job left no row

    def test_bound_counts_only_queued(self, queue):
        """Leased/running/terminal jobs do not occupy queue slots."""
        queue.enqueue(SPEC)
        queue.lease("w")
        job, created = queue.enqueue(SPEC, max_queued=1)
        assert created and job["state"] == "queued"

    def test_bad_max_attempts_rejected(self, queue):
        with pytest.raises(ValueError):
            queue.enqueue(SPEC, max_attempts=0)


class TestLeaseLifecycle:
    def test_lease_claims_oldest_first(self, queue):
        a, _ = queue.enqueue(SPEC, scenario_name="a")
        b, _ = queue.enqueue(SPEC, scenario_name="b")
        assert queue.lease("w")["id"] == a["id"]
        assert queue.lease("w")["id"] == b["id"]
        assert queue.lease("w") is None

    def test_lease_consumes_an_attempt(self, queue):
        job, _ = queue.enqueue(SPEC)
        leased = queue.lease("w", lease_s=60)
        assert leased["attempts"] == 1
        assert leased["lease_owner"] == "w"
        assert leased["lease_expires_at"] > time.time()

    def test_happy_path_to_done(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        assert queue.mark_running(job["id"], "w")
        assert queue.complete(job["id"], "w", {"points": 5})
        done = queue.get(job["id"])
        assert done["state"] == "done"
        assert done["result"] == {"points": 5}
        assert done["lease_owner"] is None

    def test_complete_requires_the_lease(self, queue):
        """A superseded worker's late result is discarded."""
        job, _ = queue.enqueue(SPEC)
        queue.lease("w1", lease_s=0.01)
        queue.mark_running(job["id"], "w1")
        time.sleep(0.05)
        assert queue.reclaim_expired() == [job["id"]]
        queue.lease("w2")  # w2 now owns the job
        assert not queue.complete(job["id"], "w1", {"late": True})
        assert queue.get(job["id"])["state"] == "leased"

    def test_heartbeat_extends_only_own_lease(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w1", lease_s=60)
        assert queue.heartbeat(job["id"], "w1", lease_s=120)
        assert not queue.heartbeat(job["id"], "stranger", lease_s=120)

    def test_release_refunds_the_attempt(self, queue):
        """A graceful drain is not a failure: the job goes straight
        back to queued with its attempt budget intact."""
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        assert queue.release(job["id"], "w")
        back = queue.get(job["id"])
        assert back["state"] == "queued"
        assert back["attempts"] == 0
        assert back["not_before"] == 0


class TestFailureAndRetry:
    def test_retryable_failure_requeues_with_backoff(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        queue.mark_running(job["id"], "w")
        before = time.time()
        state = queue.fail(
            job["id"], "w", {"type": "OSError", "message": "x"},
            retryable=True,
        )
        assert state == "queued"
        back = queue.get(job["id"])
        assert back["not_before"] == pytest.approx(
            before + retry_backoff_s(1), abs=1.0
        )
        assert back["error"]["retryable"] is True

    def test_backoff_delays_the_next_lease(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        queue.fail(job["id"], "w", {"type": "E"}, retryable=True)
        assert queue.lease("w") is None  # backoff has not elapsed
        with queue.store.transaction() as conn:
            conn.execute(
                "UPDATE jobs SET not_before = 0 WHERE id = ?", (job["id"],)
            )
        assert queue.lease("w")["id"] == job["id"]

    def test_permanent_failure_parks(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        state = queue.fail(
            job["id"], "w", {"type": "KeyError", "message": "bad workload"},
            retryable=False,
        )
        assert state == "failed"
        assert queue.get(job["id"])["error"]["type"] == "KeyError"

    def test_attempt_budget_exhaustion_parks(self, queue):
        job, _ = queue.enqueue(SPEC, max_attempts=2)
        for expected in ("queued", "failed"):
            with queue.store.transaction() as conn:
                conn.execute(
                    "UPDATE jobs SET not_before = 0 WHERE id = ?",
                    (job["id"],),
                )
            queue.lease("w")
            assert queue.fail(
                job["id"], "w", {"type": "E"}, retryable=True
            ) == expected

    def test_backoff_schedule_is_deterministic(self):
        assert retry_backoff_s(1) == BACKOFF_BASE_S
        assert retry_backoff_s(2) == BACKOFF_BASE_S * 2
        assert retry_backoff_s(3) == BACKOFF_BASE_S * 4
        assert retry_backoff_s(100) == BACKOFF_MAX_S
        assert retry_backoff_s(0) == 0.0

    def test_operator_retry_resets_the_budget(self, queue):
        job, _ = queue.enqueue(SPEC, max_attempts=1)
        queue.lease("w")
        queue.fail(job["id"], "w", {"type": "E"}, retryable=False)
        revived = queue.retry(job["id"])
        assert revived["state"] == "queued"
        assert revived["attempts"] == 0

    def test_retry_rejects_non_terminal_states(self, queue):
        job, _ = queue.enqueue(SPEC)
        with pytest.raises(ValueError, match="only failed/cancelled"):
            queue.retry(job["id"])


class TestReclaim:
    def test_expired_lease_requeues(self, queue):
        job, _ = queue.enqueue(SPEC, max_attempts=3)
        queue.lease("w", lease_s=0.01)
        time.sleep(0.05)
        assert queue.reclaim_expired() == [job["id"]]
        back = queue.get(job["id"])
        assert back["state"] == "queued"
        assert back["lease_owner"] is None

    def test_exhausted_expiry_fails_permanently(self, queue):
        """A payload that kills its worker cannot crash-loop forever."""
        job, _ = queue.enqueue(SPEC, max_attempts=1)
        queue.lease("w", lease_s=0.01)
        time.sleep(0.05)
        queue.reclaim_expired()
        parked = queue.get(job["id"])
        assert parked["state"] == "failed"
        assert parked["error"]["type"] == "LeaseExpired"

    def test_live_leases_are_left_alone(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w", lease_s=60)
        assert queue.reclaim_expired() == []
        assert queue.get(job["id"])["state"] == "leased"


def _strict_loads(text):
    """``json.loads`` that rejects NaN and infinities, as strict JSON does."""
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _raw_column(store, job_id, column):
    with store.transaction() as conn:
        (raw,) = conn.execute(
            f"SELECT {column} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
    return raw


class TestStrictJson:
    """Stored results and errors are strict JSON: a non-finite number is
    refused before the row changes, never written as ``NaN``."""

    def test_complete_refuses_a_non_finite_result(self, store, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        queue.mark_running(job["id"], "w")
        with pytest.raises(ValueError, match="JSON compliant"):
            queue.complete(job["id"], "w", {"energy_j": float("nan")})
        assert queue.get(job["id"])["state"] == "running"
        assert _raw_column(store, job["id"], "result_json") is None
        assert queue.complete(job["id"], "w", {"energy_j": 1.5})
        assert _strict_loads(_raw_column(store, job["id"], "result_json")) == {
            "energy_j": 1.5
        }

    def test_fail_refuses_a_non_finite_error(self, store, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        with pytest.raises(ValueError, match="JSON compliant"):
            queue.fail(job["id"], "w", {"bound": float("inf")}, retryable=False)
        assert queue.get(job["id"])["state"] == "leased"
        assert _raw_column(store, job["id"], "error_json") is None

    def test_lease_expiry_error_is_strict_json(self, store, queue):
        job, _ = queue.enqueue(SPEC, max_attempts=1)
        queue.lease("w", lease_s=0.01)
        time.sleep(0.05)
        queue.reclaim_expired()
        error = _strict_loads(_raw_column(store, job["id"], "error_json"))
        assert error["type"] == "LeaseExpired"
        assert error["retryable"] is False


class TestCancel:
    def test_queued_job_cancels_immediately(self, queue):
        job, _ = queue.enqueue(SPEC)
        assert queue.cancel(job["id"])["state"] == "cancelled"

    def test_running_job_gets_the_flag(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        queue.mark_running(job["id"], "w")
        assert queue.cancel(job["id"])["cancel_requested"]
        assert queue.get(job["id"])["state"] == "running"

    def test_cancel_requested_honored_before_execution(self, queue):
        """The supervisor checks the flag at mark_running: a cancel
        that lands between lease and execution wins."""
        job, _ = queue.enqueue(SPEC)
        queue.lease("w")
        queue.cancel(job["id"])
        assert not queue.mark_running(job["id"], "w")
        assert queue.get(job["id"])["state"] == "cancelled"

    def test_cancelled_job_is_retryable(self, queue):
        job, _ = queue.enqueue(SPEC)
        queue.cancel(job["id"])
        revived = queue.retry(job["id"])
        assert revived["state"] == "queued"
        assert not revived["cancel_requested"]

    def test_unknown_job_raises(self, queue):
        with pytest.raises(UnknownJob):
            queue.cancel("nope")
        with pytest.raises(UnknownJob):
            queue.get("nope")


class TestReadSide:
    def test_list_filters_and_validates_state(self, queue):
        a, _ = queue.enqueue(SPEC)
        queue.enqueue(SPEC)
        queue.cancel(a["id"])
        assert {j["state"] for j in queue.list_jobs()} == {
            "queued", "cancelled"
        }
        assert [j["id"] for j in queue.list_jobs(state="cancelled")] == [
            a["id"]
        ]
        with pytest.raises(ValueError, match="unknown job state"):
            queue.list_jobs(state="zombie")

    def test_counts(self, queue):
        queue.enqueue(SPEC)
        queue.enqueue(SPEC)
        queue.lease("w")
        assert queue.counts() == {"queued": 1, "leased": 1}

    def test_all_states_are_declared(self):
        assert set(JOB_STATES) == {
            "queued", "leased", "running", "done", "failed", "cancelled",
        }


class TestCrossProcessSerialization:
    """Two store handles on one sqlite file stand in for two worker
    processes sharing a store.  Queue transactions open with ``BEGIN
    IMMEDIATE``, so read-then-write transitions serialize on sqlite's
    write lock (busy handler) instead of failing with a non-retryable
    ``SQLITE_BUSY_SNAPSHOT`` under WAL -- the multi-worker deployment
    must survive ordinary concurrency without 500s or crashed loops.
    """

    def test_concurrent_enqueue_from_two_handles(self, tmp_path):
        path = tmp_path / "store"
        with ArtifactStore(path) as a, ArtifactStore(path) as b:
            queues = [JobQueue(a), JobQueue(b)]
            errors = []

            def hammer(q, tag):
                try:
                    for j in range(10):
                        q.enqueue(SPEC, idempotency_key=f"{tag}-{j}")
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(q, i))
                for i, q in enumerate(queues)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert errors == []
            assert queues[0].depth() == 20

    def test_concurrent_lease_never_double_claims(self, tmp_path):
        path = tmp_path / "store"
        with ArtifactStore(path) as a, ArtifactStore(path) as b:
            qa, qb = JobQueue(a), JobQueue(b)
            for _ in range(10):
                qa.enqueue(SPEC)
            claimed = []
            errors = []

            def drain(q, owner):
                try:
                    while True:
                        job = q.lease(owner, lease_s=60)
                        if job is None:
                            return
                        claimed.append(job["id"])
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

            threads = [
                threading.Thread(target=drain, args=(qa, "w1")),
                threading.Thread(target=drain, args=(qb, "w2")),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert errors == []
            assert sorted(claimed) == sorted(set(claimed))
            assert len(claimed) == 10


class TestDurability:
    def test_queue_survives_reopen(self, tmp_path):
        """The whole point: a killed process leaves a readable queue."""
        path = tmp_path / "store"
        with ArtifactStore(path) as store:
            queue = JobQueue(store)
            job, _ = queue.enqueue(SPEC, idempotency_key="k1",
                                   scenario_name="persisted")
            queue.lease("doomed-worker", lease_s=0.01)
        time.sleep(0.05)
        with ArtifactStore(path) as store:
            queue = JobQueue(store)
            assert queue.reclaim_expired() == [job["id"]]
            back = queue.get(job["id"])
            assert back["state"] == "queued"
            assert back["scenario_name"] == "persisted"
            # the idempotency key also survived
            again, created = queue.enqueue(SPEC, idempotency_key="k1")
            assert not created and again["id"] == job["id"]
