"""CI chaos test for the durable run queue: SIGKILL, reclaim, resume.

The sequence under test is the crash-safety claim of the supervised
write path, end to end:

1. A *clean* reference: ``run_scenario`` executes ``chaos_scenario.json``
   directly into its own store.
2. A *chaos* run: the same scenario is enqueued as a job (with an
   idempotency key), a real ``python -m repro.service.supervisor``
   process starts executing it under a deliberately slowed fault plan,
   and the process and its workers are **SIGKILLed** as soon as its
   first per-job checkpoint lands on disk.
3. The killed worker's lease expires; a rescue supervisor reclaims the
   job, resumes from the checkpoint prefix, and completes it.
4. Every stage artifact in the chaos store must be **byte-identical**
   (``cmp``) to the clean store's, the job must have exactly two
   attempts (killed + rescue), and re-posting the idempotency key must
   dedupe to the finished job -- no double execution.

Usage::

    PYTHONPATH=src python ci/service_chaos.py

The temporary stores are removed on exit, pass or fail.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.engine import RunContext, Scenario, run_scenario
from repro.engine.stagegraph import scenario_identity
from repro.service.jobs import JobQueue
from repro.service.supervisor import Supervisor, job_checkpoint_dir
from repro.store import ArtifactStore

SCENARIO_FILE = Path(__file__).parent / "chaos_scenario.json"

#: Per-task delays stretching the streaming evaluation so the SIGKILL
#: reliably lands mid-run, after checkpoints exist but before the
#: frontier is stored.  Delays never change computed values.
SLOW_PLAN = {
    "seed": 11,
    "faults": [
        {"kind": "delay", "task": 4, "delay_s": 1.5, "times": 1},
        {"kind": "delay", "task": 12, "delay_s": 1.5, "times": 1},
        {"kind": "delay", "task": 24, "delay_s": 1.5, "times": 1},
    ],
}


def wait_for(predicate, timeout_s: float, what: str, poll_s: float = 0.05):
    deadline = time.time() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        assert time.time() < deadline, f"timed out waiting for {what}"
        time.sleep(poll_s)


def stage_payloads(store_dir: Path, identity: str) -> dict:
    """stage -> (artifact_key, payload_bytes) for one scenario."""
    with ArtifactStore(store_dir) as store:
        out = {}
        for stage, key in sorted(store.stage_map(identity).items()):
            row = store._conn.execute(
                "SELECT payload FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
            assert row is not None, f"stage {stage} key {key} has no artifact"
            out[stage] = (key, bytes(row[0]))
        return out


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-chaos-"))
    try:
        return run(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(tmp: Path) -> int:
    scenario = Scenario.from_file(SCENARIO_FILE)
    identity = scenario_identity(scenario)

    # --- 1. clean reference run ---------------------------------------
    clean_dir = tmp / "clean-store"
    ctx = RunContext(seed=scenario.seed)
    with ArtifactStore(clean_dir, memory=ctx.cache) as clean_store:
        clean = run_scenario(scenario, ctx, store=clean_store)
    print(f"clean run: {len(clean.frontier)} frontier points -> {clean_dir}")

    # --- 2. enqueue, start a real supervisor process, SIGKILL it ------
    chaos_dir = tmp / "chaos-store"
    with ArtifactStore(chaos_dir) as store:
        job, created = JobQueue(store).enqueue(
            scenario.to_json(),
            idempotency_key="chaos-run-1",
            scenario_name=scenario.name,
        )
        assert created
    ckpt_dir = chaos_dir / "jobs" / job["id"]

    plan_file = tmp / "slow_plan.json"
    plan_file.write_text(json.dumps(SLOW_PLAN))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.supervisor",
         "--store-dir", str(chaos_dir),
         "--worker-id", "doomed",
         "--lease-s", "2", "--poll-s", "0.05",
         "--checkpoint-every", "1",
         "--fault-plan", str(plan_file)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        # Its own process group, so the SIGKILL also takes the pool
        # workers it forked, as a machine failure would.
        start_new_session=True,
    )
    try:
        wait_for(
            lambda: any(ckpt_dir.glob("*")) if ckpt_dir.exists() else False,
            timeout_s=60, what="the first job checkpoint",
        )
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
    print(f"SIGKILLed supervisor with checkpoints in {ckpt_dir}")

    with ArtifactStore(chaos_dir) as store:
        queue = JobQueue(store)
        killed = queue.get(job["id"])
        assert killed["state"] in ("leased", "running"), (
            f"job should still hold the dead lease, got {killed['state']}"
        )
        assert killed["attempts"] == 1

        # --- 3. lease expiry + rescue supervisor ----------------------
        rescuer = Supervisor(store, worker_id="rescuer", lease_s=30,
                             poll_s=0.05, checkpoint_every=1)

        def try_rescue():
            rescuer.run_until_idle()
            return queue.get(job["id"])["state"] in ("done", "failed")

        wait_for(try_rescue, timeout_s=180, what="the rescue to finish",
                 poll_s=0.2)
        finished = queue.get(job["id"])
        assert finished["state"] == "done", finished["error"]
        assert finished["attempts"] == 2, (
            f"expected killed+rescue = 2 attempts, got {finished['attempts']}"
        )
        print(f"rescuer completed job {job['id']} on attempt 2: "
              f"{finished['result']['frontier_points']} frontier points")

        # --- 4a. idempotency: the retry client cannot double-execute --
        again, created = queue.enqueue(
            scenario.to_json(), idempotency_key="chaos-run-1"
        )
        assert not created and again["id"] == job["id"]
        assert again["state"] == "done"
        n_jobs = store._conn.execute(
            "SELECT COUNT(*) FROM jobs"
        ).fetchone()[0]
        assert n_jobs == 1, f"expected exactly one job row, found {n_jobs}"

    # --- 4b. recovered artifacts are byte-identical to clean ----------
    clean_payloads = stage_payloads(clean_dir, identity)
    chaos_payloads = stage_payloads(chaos_dir, identity)
    assert clean_payloads.keys() == chaos_payloads.keys(), (
        clean_payloads.keys(), chaos_payloads.keys(),
    )
    for stage in clean_payloads:
        clean_key, clean_bytes = clean_payloads[stage]
        chaos_key, chaos_bytes = chaos_payloads[stage]
        assert clean_key == chaos_key, (
            f"stage {stage}: artifact keys diverged ({clean_key[:12]} vs "
            f"{chaos_key[:12]})"
        )
        a = tmp / f"clean-{stage.replace(':', '_')}.bin"
        b = tmp / f"chaos-{stage.replace(':', '_')}.bin"
        a.write_bytes(clean_bytes)
        b.write_bytes(chaos_bytes)
        subprocess.run(["cmp", str(a), str(b)], check=True)
        print(f"  {stage}: {len(clean_bytes)} bytes byte-identical (cmp)")

    print("service chaos: OK "
          "(SIGKILL -> lease reclaim -> checkpoint resume -> identical bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
