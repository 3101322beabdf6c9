"""CI smoke test for the artifact store and the `repro serve` service.

Populates a store by running ``ci/chaos_scenario.json``, starts the real
``python -m repro serve`` process against it, and asserts that every
query endpoint answers with the same numbers ``run_scenario`` produced.
It enqueues a run through ``POST /v1/runs`` and waits for it, then
checks that three tiny jobs, posted one after another, go from enqueue
to done within one poll interval of the runner together (each enqueue
wakes the runner).  Then edits the ARM hardware spec behind its name
and checks the store invalidates -- and a rerun recomputes -- exactly
the downstream stages.

Usage::

    PYTHONPATH=src python ci/service_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.engine import RunContext, Scenario, explain_scenario, run_scenario
from repro.hardware.catalog import ARM_CORTEX_A9
from repro.store import ArtifactStore

SCENARIO_FILE = Path(__file__).parent / "chaos_scenario.json"

#: ``Supervisor``'s default ``poll_s``, which ``repro serve`` keeps: a
#: job that waited for the poll instead of being woken by its enqueue
#: takes at least this long from enqueue to done.
RUNNER_POLL_S = 0.5
#: Tiny jobs posted one after another to time the enqueue -> done path.
TINY_JOBS = 3


def get_json(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as r:
        return json.loads(r.read())


def post_json(port: int, path: str, body: dict) -> tuple:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as r:
        return r.status, json.loads(r.read())


def wait_for_job(port: int, job_id: str, timeout_s: float = 120.0) -> dict:
    """Poll one job until it is ``done`` or ``failed``."""
    deadline = time.time() + timeout_s
    while True:
        polled = get_json(port, f"/v1/runs/{job_id}")
        if polled["state"] in ("done", "failed"):
            return polled
        assert time.time() < deadline, polled
        time.sleep(0.02)


def approx_equal(a, b, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    store_dir = tmp / "store"
    scenario = Scenario.from_file(SCENARIO_FILE)

    # --- populate ------------------------------------------------------
    ctx = RunContext(seed=0)
    store = ArtifactStore(store_dir, memory=ctx.cache)
    result = run_scenario(scenario, ctx, store=store)
    assert set(result.stage_statuses.values()) == {"computed"}, (
        "cold run must compute every stage"
    )
    store.close()
    print(f"populated {store_dir} with scenario {scenario.name!r}")

    # --- serve (the real CLI entry point, ephemeral port) --------------
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--store-dir", str(store_dir), "--port", "0",
         "--runners", "1", "--max-queued", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        assert match, f"no port in serve banner: {banner!r}"
        port = int(match.group(1))
        deadline = time.time() + 10
        while True:
            try:
                health = get_json(port, "/health")
                break
            except OSError:
                assert time.time() < deadline, "service never became healthy"
                time.sleep(0.1)
        assert health["scenarios"] == 1, health

        # Every endpoint must reproduce the run_scenario artifacts.
        frontier = result.frontier
        body = get_json(port, f"/v1/query/frontier?scenario={scenario.name}")
        assert body["total_points"] == len(frontier), body
        for point, t, e in zip(
            body["points"], frontier.times_s, frontier.energies_j
        ):
            assert approx_equal(point["time_s"], float(t))
            assert approx_equal(point["energy_j"], float(e))

        deadline_s = float(frontier.times_s.max())
        body = get_json(
            port,
            f"/v1/query/cheapest?scenario={scenario.name}"
            f"&deadline_s={deadline_s}",
        )
        assert body["feasible"], body
        assert approx_equal(
            body["config"]["energy_j"],
            result.min_energy_for_deadline(deadline_s),
        )

        body = get_json(port, f"/v1/query/regions?scenario={scenario.name}")
        assert body["has_sweet_region"] == result.regions.has_sweet_region
        assert body["has_overlap_region"] == result.regions.has_overlap_region

        body = get_json(
            port,
            f"/v1/query/whatif?scenario={scenario.name}"
            f"&against={scenario.name}",
        )
        assert body["min_energy_j"]["delta"] == 0.0
        print(f"service on :{port} answered all queries from the store")

        # --- write path: enqueue -> supervised run -> queryable ----------
        ready = get_json(port, "/ready")
        assert ready["ready"], ready
        spec = dict(scenario.to_dict(), name="smoke-enqueued")
        status, job = post_json(
            port, "/v1/runs",
            {"scenario": spec, "idempotency_key": "smoke-1"},
        )
        assert status == 202 and job["created"], job
        status, deduped = post_json(
            port, "/v1/runs",
            {"scenario": spec, "idempotency_key": "smoke-1"},
        )
        assert status == 200 and not deduped["created"], deduped
        assert deduped["id"] == job["id"]
        polled = wait_for_job(port, job["id"])
        assert polled["state"] == "done", polled.get("error")
        body = get_json(port, "/v1/query/frontier?scenario=smoke-enqueued")
        assert body["total_points"] == len(frontier), body
        print(
            f"enqueued job {job['id']} ran to done "
            f"({polled['result']['frontier_points']} frontier points served)"
        )

        # --- an enqueue wakes the runner: no wait for its poll ---------
        # One job posted just before a poll could slip under the poll
        # interval even without the wake-up; three in a row cannot, so
        # their turnarounds must fit in one interval together.
        turnarounds = []
        for i in range(TINY_JOBS):
            tiny = dataclasses.replace(
                scenario, max_a=2, max_b=2, name=f"smoke-tiny-{i}"
            ).to_dict()
            status, job = post_json(port, "/v1/runs", {"scenario": tiny})
            assert status == 202 and job["created"], job
            polled = wait_for_job(port, job["id"])
            assert polled["state"] == "done", polled.get("error")
            turnarounds.append(polled["updated_at"] - polled["created_at"])
        assert sum(turnarounds) < RUNNER_POLL_S, (
            f"{TINY_JOBS} tiny jobs took {turnarounds} s from enqueue to "
            f"done; together they must stay below the runner's "
            f"{RUNNER_POLL_S} s poll"
        )
        print(
            f"{TINY_JOBS} tiny jobs done "
            f"{', '.join(f'{t:.3f}' for t in turnarounds)} s after enqueue"
        )
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    # --- spec edit invalidates only downstream -------------------------
    edited = dataclasses.replace(
        ARM_CORTEX_A9,
        power=dataclasses.replace(
            ARM_CORTEX_A9.power, idle_w=ARM_CORTEX_A9.power.idle_w * 1.5
        ),
    )
    ctx2 = RunContext(seed=0)
    ctx2.register_node(edited)
    store2 = ArtifactStore(store_dir, memory=ctx2.cache)
    _, rows = explain_scenario(scenario, ctx2, store=store2)
    status = {r["stage"]: r["status"] for r in rows}
    assert status["calibrate:amd-k10"] == "hit", status
    assert status["calibrate:arm-cortex-a9"] == "stale", status
    assert status["space"] == "stale", status

    rerun = run_scenario(scenario, ctx2, store=store2)
    assert rerun.stage_statuses["calibrate:amd-k10"] == "stored", (
        rerun.stage_statuses
    )
    assert rerun.stage_statuses["calibrate:arm-cortex-a9"] == "computed"
    assert rerun.stage_statuses["space"] == "computed"
    store2.close()
    print("spec edit invalidated only the downstream stages:")
    for stage, state in sorted(rerun.stage_statuses.items()):
        print(f"  {stage}: {state}")
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
