"""The supervisor: leases jobs, runs scenarios, classifies failures.

A real (tiny) scenario exercises the happy path end to end; monkey-
patched ``run_scenario`` stand-ins drive the failure classification,
drain, and lease-reclaim paths without burning evaluator time.
"""

import json
import shutil
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro.engine import RunContext, Scenario, run_scenario
from repro.engine.executor import space_block_plan
from repro.engine.faults import WorkerCrash
from repro.engine.hashing import stable_hash
from repro.engine.stagegraph import build_stage_plan, scenario_identity
from repro.service.jobs import JobQueue
from repro.service.supervisor import Supervisor, job_checkpoint_dir
from repro.store import ArtifactStore

TINY = Scenario(workload="ep", max_a=2, max_b=2, stages=("frontier",),
                name="tiny")

DATA = Path(__file__).parent / "data"
#: A job row and a checkpoint an earlier release wrote for the same job:
#: its scenario pins ``chunk_rows: 4``, and the run was interrupted after
#: three of that plan's blocks.
PARENT_JOB = DATA / "parent_job_chunk_rows4.json"
PARENT_JOB_CHECKPOINT = DATA / "parent_job_chunk_rows4.ckpt"


def streaming_job(name):
    """A streaming job whose memory budget splits it into blocks."""
    return Scenario(
        workload="ep", max_a=3, max_b=3, stages=("frontier",),
        space_mode="streaming", memory_budget_mb=0.002, name=name,
    )


def planned_blocks(scenario):
    """Blocks in the plan a supervisor's run of ``scenario`` streams."""
    plan = build_stage_plan(scenario, RunContext(seed=scenario.seed))
    return len(space_block_plan(
        plan.group_specs, memory_budget_mb=scenario.memory_budget_mb
    ))


@pytest.fixture
def store(tmp_path):
    with ArtifactStore(tmp_path / "store") as s:
        yield s


@pytest.fixture
def queue(store):
    return JobQueue(store)


class TestExecution:
    def test_runs_queued_job_to_done(self, store, queue):
        job, _ = queue.enqueue(TINY.to_json(), scenario_name=TINY.name)
        done = Supervisor(store, worker_id="w").run_until_idle()
        assert done == 1
        finished = queue.get(job["id"])
        assert finished["state"] == "done"
        assert finished["result"]["frontier_points"] >= 1
        assert finished["result"]["scenario_identity"] == scenario_identity(
            TINY
        )

    def test_artifacts_match_a_direct_run(self, store, queue, tmp_path):
        """A supervised run stores the same frontier a direct
        ``run_scenario`` produces -- the queue adds no nondeterminism."""
        queue.enqueue(TINY.to_json())
        Supervisor(store, worker_id="w").run_until_idle()
        via_queue, ok = store.load_stage(scenario_identity(TINY), "frontier")
        assert ok

        with ArtifactStore(tmp_path / "direct") as direct:
            run_scenario(TINY, RunContext(seed=TINY.seed), store=direct)
            direct_art, ok = direct.load_stage(
                scenario_identity(TINY), "frontier"
            )
            assert ok
        import numpy as np

        np.testing.assert_array_equal(
            via_queue.frontier.times_s, direct_art.frontier.times_s
        )
        np.testing.assert_array_equal(
            via_queue.frontier.energies_j, direct_art.frontier.energies_j
        )

    def test_queryable_after_completion(self, store, queue):
        from repro.store import frontier_points

        queue.enqueue(TINY.to_json())
        Supervisor(store, worker_id="w").run_until_idle()
        body = frontier_points(store, "tiny")
        assert body["total_points"] >= 1

    def test_job_queued_by_an_earlier_release_runs(self, store, queue):
        # Its scenario JSON still carries the retired ``reduce_at`` key.
        old_json = json.dumps(dict(TINY.to_dict(), reduce_at="coordinator"))
        job, _ = queue.enqueue(old_json, scenario_name=TINY.name)
        with pytest.warns(DeprecationWarning, match="reduce_at"):
            Supervisor(store, worker_id="w").run_until_idle()
        finished = queue.get(job["id"])
        assert finished["state"] == "done", finished["error"]
        assert finished["result"]["scenario_identity"] == scenario_identity(
            TINY
        )

    def test_parent_job_with_chunk_rows_runs(self, store, queue):
        # The parent's row pins ``chunk_rows: 4`` and carries
        # ``simulation``; its checkpoint was cut under that 4-row plan,
        # which the memory budget no longer produces.  The checkpoint is
        # discarded, not fatal, and the job runs from its first block.
        old_json = PARENT_JOB.read_text()
        current = Scenario(**{
            k: v for k, v in json.loads(old_json).items()
            if k not in ("chunk_rows", "simulation")
        })
        job, _ = queue.enqueue(old_json, scenario_name=current.name)
        ckpt_dir = job_checkpoint_dir(store, job["id"])
        ckpt_dir.mkdir(parents=True)
        fingerprint = stable_hash(
            ("scenario-checkpoint", current.cache_identity())
        )
        shutil.copyfile(
            PARENT_JOB_CHECKPOINT, ckpt_dir / f"checkpoint-{fingerprint}.ckpt"
        )
        events = []
        with pytest.warns(DeprecationWarning, match="chunk_rows"):
            Supervisor(
                store, worker_id="w",
                on_event=lambda event, **p: events.append((event, p)),
            ).run_until_idle()
        finished = queue.get(job["id"])
        assert finished["state"] == "done", finished["error"]
        assert finished["result"]["scenario_identity"] == scenario_identity(
            current
        )
        invalidated = [p for e, p in events if e == "checkpoint.invalidated"]
        assert [p["reason"] for p in invalidated] == [
            "block plan changed (workers or memory budget)"
        ]
        reduced = [p for e, p in events if e == "space.reduced"]
        assert reduced and reduced[0]["resumed_from_block"] == 0

    def test_cancelled_job_is_not_executed(self, store, queue):
        job, _ = queue.enqueue(TINY.to_json())
        queue.cancel(job["id"])
        assert Supervisor(store, worker_id="w").run_until_idle() == 0
        assert queue.get(job["id"])["state"] == "cancelled"


class TestFailureClassification:
    def test_malformed_scenario_fails_permanently(self, store, queue):
        """A spec that cannot even parse burns one attempt, not three."""
        job, _ = queue.enqueue(json.dumps({"workload": "no-such-workload"}))
        Supervisor(store, worker_id="w").run_until_idle()
        failed = queue.get(job["id"])
        assert failed["state"] == "failed"
        assert failed["attempts"] == 1
        assert failed["error"]["retryable"] is False

    def test_retryable_crash_requeues_then_succeeds(
        self, store, queue, monkeypatch
    ):
        """A WorkerCrash consumes an attempt, backs off, and the next
        lease finishes the job."""
        attempts = []

        real = run_scenario

        def flaky(scenario, ctx, **kw):
            attempts.append(1)
            if len(attempts) == 1:
                raise WorkerCrash("injected worker death")
            return real(scenario, ctx, **kw)

        monkeypatch.setattr(
            "repro.service.supervisor.run_scenario", flaky
        )
        job, _ = queue.enqueue(TINY.to_json())
        supervisor = Supervisor(store, worker_id="w", poll_s=0.01)
        assert supervisor.run_until_idle() == 0  # crash, then backoff
        crashed = queue.get(job["id"])
        assert crashed["state"] == "queued"
        assert crashed["error"]["type"] == "WorkerCrash"
        assert crashed["error"]["retryable"] is True
        # Fast-forward the deterministic backoff and drain again.
        with store.transaction() as conn:
            conn.execute("UPDATE jobs SET not_before = 0")
        assert supervisor.run_until_idle() == 1
        assert queue.get(job["id"])["state"] == "done"
        assert len(attempts) == 2

    def test_attempt_budget_bounds_retries(self, store, queue, monkeypatch):
        def always_crashes(scenario, ctx, **kw):
            raise WorkerCrash("never succeeds")

        monkeypatch.setattr(
            "repro.service.supervisor.run_scenario", always_crashes
        )
        job, _ = queue.enqueue(TINY.to_json(), max_attempts=2)
        supervisor = Supervisor(store, worker_id="w")
        for _ in range(3):
            with store.transaction() as conn:
                conn.execute("UPDATE jobs SET not_before = 0")
            supervisor.run_until_idle()
        parked = queue.get(job["id"])
        assert parked["state"] == "failed"
        assert parked["attempts"] == 2


class TestRecovery:
    def test_reclaims_a_dead_workers_job(self, store, queue):
        """A lease left behind by a crashed worker is reclaimed and the
        job completed by the next supervisor."""
        job, _ = queue.enqueue(TINY.to_json())
        leased = queue.lease("crashed-worker", lease_s=0.01)
        assert leased["id"] == job["id"]
        time.sleep(0.05)
        done = Supervisor(store, worker_id="rescuer").run_until_idle()
        assert done == 1
        finished = queue.get(job["id"])
        assert finished["state"] == "done"
        assert finished["attempts"] == 2  # crashed + rescuing attempt

    def test_graceful_stop_releases_the_inflight_job(
        self, store, queue, monkeypatch
    ):
        """stop() aborts the in-flight run at its next event boundary
        (the context's drain sink) and hands the job back unconsumed."""
        entered = threading.Event()

        def stuck(scenario, ctx, **kw):
            entered.set()
            for _ in range(600):  # ~30s unless the drain abort fires
                ctx.emit("test.tick")
                time.sleep(0.05)
            raise AssertionError("drain abort never fired")

        monkeypatch.setattr("repro.service.supervisor.run_scenario", stuck)
        job, _ = queue.enqueue(TINY.to_json())
        supervisor = Supervisor(store, worker_id="w", poll_s=0.01,
                                lease_s=60.0)
        supervisor.start()
        assert entered.wait(timeout=10)
        supervisor.stop(grace_s=10.0)
        assert not supervisor.alive  # the run aborted within the grace
        released = queue.get(job["id"])
        assert released["state"] == "queued"
        assert released["attempts"] == 0  # the attempt was refunded

    def test_drain_timeout_never_releases_a_live_workers_lease(
        self, store, queue, monkeypatch
    ):
        """A run that ignores the abort keeps its lease past the grace
        window -- a lease is never released while the thread that owns
        it may still be writing -- and its eventual completion wins."""
        release_worker = threading.Event()
        entered = threading.Event()

        class _StubResult:
            stage_statuses = {}

            @staticmethod
            def summary():
                return {"configurations": 1, "frontier_points": 1}

        def stuck(scenario, ctx, **kw):
            entered.set()
            assert release_worker.wait(timeout=30)
            return _StubResult()

        monkeypatch.setattr("repro.service.supervisor.run_scenario", stuck)
        job, _ = queue.enqueue(TINY.to_json())
        supervisor = Supervisor(store, worker_id="w", poll_s=0.01,
                                lease_s=60.0)
        supervisor.start()
        assert entered.wait(timeout=10)
        supervisor.stop(grace_s=0.2)
        still_running = queue.get(job["id"])
        assert still_running["state"] == "running"
        assert still_running["lease_owner"] == "w"
        # The worker finishes on its own; holding the lease, it wins.
        release_worker.set()
        deadline = time.time() + 30
        while supervisor.alive and time.time() < deadline:
            time.sleep(0.05)
        assert not supervisor.alive
        assert queue.get(job["id"])["state"] == "done"

    def test_permanent_failure_discards_checkpoints(
        self, store, queue, monkeypatch
    ):
        """A job parked in ``failed`` leaves no checkpoint directory
        behind -- it can never resume (an operator retry starts clean)."""
        def doomed(scenario, ctx, checkpoint_dir=None, **kw):
            ckpt = Path(checkpoint_dir)
            ckpt.mkdir(parents=True, exist_ok=True)
            (ckpt / "checkpoint-x.ckpt").write_bytes(b"partial")
            raise ValueError("malformed somewhere deep")

        monkeypatch.setattr("repro.service.supervisor.run_scenario", doomed)
        streaming = streaming_job("doomed")
        assert planned_blocks(streaming) > 1
        job, _ = queue.enqueue(streaming.to_json(), max_attempts=1)
        Supervisor(store, worker_id="w").run_until_idle()
        assert queue.get(job["id"])["state"] == "failed"
        assert not job_checkpoint_dir(store, job["id"]).exists()

    def test_retryable_failure_keeps_checkpoints(
        self, store, queue, monkeypatch
    ):
        """A re-queued job keeps its checkpoint prefix: the next
        attempt resumes from it."""
        def crashes(scenario, ctx, checkpoint_dir=None, **kw):
            ckpt = Path(checkpoint_dir)
            ckpt.mkdir(parents=True, exist_ok=True)
            (ckpt / "checkpoint-x.ckpt").write_bytes(b"prefix")
            raise WorkerCrash("injected worker death")

        monkeypatch.setattr("repro.service.supervisor.run_scenario", crashes)
        streaming = streaming_job("crashy")
        assert planned_blocks(streaming) > 1
        job, _ = queue.enqueue(streaming.to_json(), max_attempts=3)
        Supervisor(store, worker_id="w").run_until_idle()
        assert queue.get(job["id"])["state"] == "queued"
        assert job_checkpoint_dir(store, job["id"]).exists()

    def test_streaming_job_gets_a_checkpoint_dir(self, store, queue):
        """Streaming scenarios checkpoint under the store's jobs/ tree;
        the prefix is cleaned up once the job completes."""
        streaming = streaming_job("stream")
        assert planned_blocks(streaming) > 1
        job, _ = queue.enqueue(streaming.to_json())
        ckpt = job_checkpoint_dir(store, job["id"])
        done = Supervisor(
            store, worker_id="w", checkpoint_every=1
        ).run_until_idle()
        assert done == 1
        assert queue.get(job["id"])["state"] == "done"
        assert not ckpt.exists()  # cleaned up with the completion


class TestLoopResilience:
    @pytest.mark.parametrize("field", ["lease_s", "poll_s"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 0, -1.0, True]
    )
    def test_lease_and_poll_must_be_finite_and_positive(
        self, store, field, value
    ):
        with pytest.raises(ValueError, match=field):
            Supervisor(store, worker_id="w", **{field: value})

    def test_transient_store_errors_do_not_kill_the_loop(
        self, store, queue, monkeypatch
    ):
        """A busy/locked store backs off and retries instead of
        silently killing the worker loop."""
        events = []
        supervisor = Supervisor(
            store, worker_id="w", poll_s=0.01,
            on_event=lambda event, **p: events.append(event),
        )
        real = supervisor.queue.reclaim_expired
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) <= 2:
                raise sqlite3.OperationalError("database is locked")
            return real()

        monkeypatch.setattr(supervisor.queue, "reclaim_expired", flaky)
        queue.enqueue(TINY.to_json())
        assert supervisor.run_until_idle() == 1
        assert events.count("supervisor.loop_error") == 2

    def test_persistent_store_errors_surface(self, store, monkeypatch):
        """run_until_idle must not spin forever on a wedged store."""
        supervisor = Supervisor(store, worker_id="w", poll_s=0.01)

        def broken():
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(supervisor.queue, "reclaim_expired", broken)
        with pytest.raises(sqlite3.OperationalError):
            supervisor.run_until_idle()
