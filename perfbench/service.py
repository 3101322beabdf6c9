"""The service workloads: service_mix and service_jobs.

Set-up fills a fresh artifact store with the paper scenarios (six
workloads x calibrated on/off, frontier + regions) and starts a real
``python -m repro serve`` process on it, with its default flags (one
runner).  A traced run hosts the same server -- ``create_server`` plus
one ``Supervisor``, as ``serve`` builds them -- inside the benchmark
process, so the tracer can wrap its layers.

Every answer is checked against a numpy recomputation from the set-up
run's frontier arrays, and every job must end ``done`` with a frontier
that the service then answers exactly as an in-process run of the same
scenario computes it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import oracle
from repro.engine.context import RunContext
from repro.engine.runner import run_scenario
from repro.engine.scenario import Scenario
from repro.engine.stagegraph import scenario_identity
from repro.store.store import ArtifactStore
from repro.workloads.suite import PAPER_WORKLOADS
from workloads import Outcome, paired_trace, seed_ints

# The traffic is synthetic: no record of real use of the service
# exists, so the query kinds take equal turns and the rates are round
# figures well below saturation.

#: Query kinds, sent in turn.
QUERY_KINDS = ("cheapest", "frontier", "regions", "whatif", "scenarios")
#: Open-loop query rate [1/s] -- about a tenth of what the server
#: answers in the closed loop.
QUERY_RATE = 100.0
#: Open-loop job rate [1/s] beside the queries.
JOB_RATE = 1.0
#: Share of the run spent in the open-loop phase (the rest is closed).
OPEN_SHARE = 0.5
#: Window of the closed-loop rate samples [s].
CLOSED_WINDOW_S = 0.5
#: Client poll interval while waiting for a job [s].
JOB_POLL_S = 0.02
#: Queries per round of a traced service_mix run.
TRACE_QUERIES = 20
TERMINAL = ("done", "failed", "cancelled")


class FrontierData:
    """What the set-up run computed for one stored scenario."""

    def __init__(self, scenario: Scenario, result) -> None:
        self.identity = scenario_identity(scenario)
        self.nodes = [g.node for g in scenario.groups]
        frontier = result.frontier
        self.times = np.asarray(frontier.times_s)
        self.energies = np.asarray(frontier.energies_j)
        self.counts = np.asarray(result.space.n)[:, np.asarray(frontier.indices)]
        self.regions = result.regions

    def point(self, j: int) -> Tuple[float, float, Dict[str, int]]:
        return (float(self.times[j]), float(self.energies[j]),
                {node: int(self.counts[g, j])
                 for g, node in enumerate(self.nodes)})

    def min_energy_by(self, deadline: float) -> Optional[float]:
        ok = self.times <= deadline
        return float(self.energies[ok].min()) if ok.any() else None


def _point_of(body: Dict) -> Tuple[float, float, Dict[str, int]]:
    return body["time_s"], body["energy_j"], body["counts"]


class HttpClient:
    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> Tuple[int, Any]:
        status, data = self.request("GET", path)
        return status, json.loads(data)


def split_cpus() -> Tuple[Optional[set], Optional[set]]:
    """(server CPUs, client CPUs): the first allowed CPU for the server,
    the rest for the load generator, so the two never trade places
    between runs; ``(None, None)`` on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self, store_dir, log_path) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store-dir",
             str(store_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._read_port(deadline=time.monotonic() + 60)

    def _read_port(self, deadline: float) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        line = b""
        while not line.endswith(b"\n"):
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                raise RuntimeError("repro serve did not report its port")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("repro serve exited before serving")
            line += chunk
        sel.close()
        match = re.search(rb"http://[\d.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected serve banner {line!r}")
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class InProcessServer:
    """The same server and runner ``repro serve`` builds, as threads."""

    def __init__(self, store_dir) -> None:
        from repro.service.server import ServiceState, create_server
        from repro.service.supervisor import Supervisor

        self.store = ArtifactStore(store_dir)
        self.supervisor = Supervisor(self.store, worker_id="serve-runner-0")
        state = ServiceState(self.store, supervisors=[self.supervisor])
        self.server = create_server(self.store, port=0, state=state)
        self.port = self.server.server_address[1]
        self.supervisor.start()
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        self.supervisor.stop(grace_s=10.0)
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.store.close()


class ServiceWorkload:
    """Shared set-up, jobs and answer checks of the two service workloads."""

    name = ""
    setup_reps = 3

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.in_process = False
        self.rng = np.random.default_rng([seed, 23])
        seeds = iter(seed_ints(self.rng, 2 * len(PAPER_WORKLOADS)))
        self.fill = [
            Scenario(workload=w.name, calibrated=cal, seed=next(seeds),
                     stages=("frontier", "regions"))
            for w in PAPER_WORKLOADS for cal in (False, True)
        ]
        self.queries = self._make_queries(4000)
        self.server = None
        self.data: Dict[str, FrontierData] = {}
        self.jobs_posted = 0
        self.info: List[str] = []
        self._setups = 0

    # ---- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """A fresh store filled with the paper scenarios, and a server."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        self._setups += 1
        store_dir = self.workdir / f"store-{self._setups}"
        store = ArtifactStore(store_dir)
        try:
            for scenario in self.fill:
                result = run_scenario(scenario, RunContext(max_workers=1),
                                      store=store)
                data = FrontierData(scenario, result)
                self.data[data.identity] = data
        finally:
            store.close()
        if self.in_process:
            self.server = InProcessServer(store_dir)
        else:
            # The server inherits this process's CPU mask when it starts,
            # and every thread it spawns inherits the server's.
            server_cpus, client_cpus = split_cpus()
            if server_cpus is not None:
                os.sched_setaffinity(0, server_cpus)
            self.server = ServerProcess(
                store_dir, self.workdir / f"serve-{self._setups}.log")
            if client_cpus is not None:
                os.sched_setaffinity(0, client_cpus)
        self.client = HttpClient(self.server.port)
        deadline = time.monotonic() + 30
        while self.client.get_json("/ready")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # ---- queries ----------------------------------------------------------

    def _make_queries(self, count: int) -> List[Tuple[str, str, tuple]]:
        ids = [scenario_identity(s) for s in self.fill]
        out = []
        for i in range(count):
            kind = QUERY_KINDS[i % len(QUERY_KINDS)]
            a, b = (ids[int(j)] for j in self.rng.choice(len(ids), 2,
                                                         replace=False))
            frac = float(self.rng.uniform(-0.1, 1.1))
            if kind == "scenarios":
                out.append((kind, "/v1/scenarios", ()))
            elif kind == "frontier":
                out.append((kind, f"/v1/query/frontier?scenario={a}", (a,)))
            elif kind == "regions":
                out.append((kind, f"/v1/query/regions?scenario={a}", (a,)))
            elif kind == "cheapest":
                out.append((kind, "/v1/query/cheapest?scenario=" + a,
                            (a, frac)))
            else:
                out.append((kind, f"/v1/query/whatif?scenario={a}&against={b}",
                            (a, b, frac)))
        return out

    def _deadline(self, ident: str, frac: float) -> float:
        """From just below the fastest to just above the slowest point
        (log scale), so some deadlines are infeasible."""
        times = self.data[ident].times
        return float(times[0] * (times[-1] / times[0]) ** frac)

    def path_of(self, query) -> str:
        kind, path, args = query
        if kind in ("cheapest", "whatif"):
            return f"{path}&deadline_s={self._deadline(args[0], args[-1])!r}"
        return path

    def check_answer(self, query, status: int, raw: bytes) -> List[str]:
        """One answer against the numpy recomputation."""
        kind, _, args = query
        if status != 200:
            return [f"{kind}: HTTP {status}: {raw[:200]!r}"]
        body = json.loads(raw)
        if kind == "scenarios":
            got = {s["identity"] for s in body["scenarios"]}
            missing = set(self.data) - got
            return [f"scenarios: {len(missing)} stored scenarios missing"] if missing else []
        data = self.data[args[0]]
        if kind == "frontier":
            got = [_point_of(p) for p in body["points"]]
            want = [data.point(j) for j in range(len(data.times))]
            ok = got == want and body["total_points"] == len(want)
            return [] if ok else [f"frontier of {data.identity[:12]} differs"]
        if kind == "regions":
            report = data.regions
            want = (report.has_sweet_region, report.has_overlap_region,
                    list(report.composition))
            got = (body["has_sweet_region"], body["has_overlap_region"],
                   body["composition"])
            return [] if got == want else [f"regions of {data.identity[:12]} differ"]
        deadline = self._deadline(args[0], args[-1])
        if kind == "cheapest":
            feasible = data.times <= deadline
            if not feasible.any():
                ok = body["feasible"] is False and "config" not in body
            else:
                j = int(np.nonzero(feasible)[0][np.argmin(data.energies[feasible])])
                ok = body["feasible"] is True and _point_of(body["config"]) == data.point(j)
            return [] if ok else [f"cheapest({deadline!r}) of {data.identity[:12]} differs"]
        other = self.data[args[1]]
        want = {
            "min_energy_j": float(data.energies.min() - other.energies.min()),
            "fastest_time_s": float(data.times.min() - other.times.min()),
            "scenario": data.min_energy_by(deadline),
            "against": other.min_energy_by(deadline),
        }
        at = body["energy_at_deadline_j"]
        got = {
            "min_energy_j": body["min_energy_j"]["delta"],
            "fastest_time_s": body["fastest_time_s"]["delta"],
            "scenario": at["scenario"],
            "against": at["against"],
        }
        return [] if got == want else [f"whatif {got} != {want}"]

    # ---- jobs ---------------------------------------------------------------

    def next_job(self) -> Tuple[Scenario, Dict]:
        """A small calibrated two-type scenario no earlier job ran."""
        k = self.jobs_posted
        self.jobs_posted += 1
        rng = np.random.default_rng([self.seed, 29, k])
        workload = PAPER_WORKLOADS[int(rng.integers(len(PAPER_WORKLOADS)))]
        scenario = Scenario(workload=workload.name, max_a=5, max_b=5,
                            calibrated=True, seed=seed_ints(rng, 1)[0],
                            stages=("frontier", "regions"))
        body = {"scenario": scenario.to_dict(),
                "idempotency_key": f"perfbench-{self.seed}-{k}"}
        return scenario, body

    def post_job(self) -> Tuple[Scenario, Optional[str], List[str]]:
        scenario, body = self.next_job()
        status, raw = self.client.request("POST", "/v1/runs", body)
        if status != 202:
            return scenario, None, [f"POST /v1/runs: HTTP {status}: {raw[:200]!r}"]
        return scenario, json.loads(raw)["id"], []

    def wait_job(self, job_id: str, timeout: float = 60.0) -> Dict:
        deadline = time.monotonic() + timeout
        while True:
            status, job = self.client.get_json(f"/v1/runs/{job_id}")
            if status == 200 and job["state"] in TERMINAL:
                return job
            if time.monotonic() > deadline:
                return job
            time.sleep(JOB_POLL_S)

    def check_job(self, scenario: Scenario, job: Dict) -> List[str]:
        if job.get("state") != "done":
            return [f"job {job.get('id')} ended {job.get('state')}: {job.get('error')}"]
        ident = job["result"]["scenario_identity"]
        status, body = self.client.get_json(f"/v1/query/frontier?scenario={ident}")
        if status != 200:
            return [f"frontier of done job {job['id']}: HTTP {status}"]
        want = run_scenario(scenario, RunContext(max_workers=1)).frontier
        got = [(p["time_s"], p["energy_j"]) for p in body["points"]]
        if got != list(zip(want.times_s.tolist(), want.energies_j.tolist())):
            return [f"frontier of job {job['id']} differs from a local run"]
        return []

    @staticmethod
    def turnaround_s(job: Dict) -> float:
        return job["updated_at"] - job["created_at"]

    # ---- traced run -----------------------------------------------------------

    trace_queries = 0

    def trace_round(self, outcome: Outcome, r: int) -> float:
        """``trace_queries`` queries, then one job waited to its end.
        Checks wait until the traced run is over, so the spans hold the
        service's work only; returns the seconds the round took."""
        start = time.perf_counter()
        for q in range(self.trace_queries):
            query = self.queries[(r * self.trace_queries + q) % len(self.queries)]
            outcome.attempted += 1
            status, raw = self.client.request("GET", self.path_of(query))
            self._answers.append((query, status, raw))
        outcome.attempted += 1
        scenario, job_id, errors = self.post_job()
        job = None if job_id is None else self.wait_job(job_id)
        self._jobs.append((scenario, job, errors))
        return time.perf_counter() - start

    def trace(self, seconds: float, tracer) -> Outcome:
        self._answers: List[Tuple] = []
        self._jobs: List[Tuple] = []
        outcome = paired_trace(self.trace_round, seconds, tracer)
        for i, (query, status, raw) in enumerate(self._answers):
            outcome.fail(i, self.check_answer(query, status, raw))
        for i, (scenario, job, errors) in enumerate(self._jobs):
            if job is not None:
                errors = self.check_job(scenario, job)
                if not errors:
                    outcome.samples.append(self.turnaround_s(job))
            outcome.fail(i, errors)
        outcome.info.append(
            f"job turnaround p50: {np.median(outcome.samples):.3f} s "
            f"(n={len(outcome.samples)}, traced and untraced rounds)")
        return outcome


class ServiceMix(ServiceWorkload):
    """Open-loop reads beside scheduled jobs, then a closed read loop."""

    name = "service_mix"
    trace_queries = TRACE_QUERIES

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        open_s = OPEN_SHARE * seconds
        events = [(i / QUERY_RATE, "query", self.queries[i % len(self.queries)])
                  for i in range(int(QUERY_RATE * open_s))]
        events += [((k + 0.5) / JOB_RATE, "job", None)
                   for k in range(int(JOB_RATE * open_s))]
        events.sort(key=lambda e: e[0])

        latencies: List[float] = []
        lateness: List[float] = []
        answers = []
        jobs = []
        t0 = time.perf_counter()
        for offset, kind, query in events:
            due = t0 + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lateness.append(time.perf_counter() - due)
            if kind == "job":
                jobs.append(self.post_job())
                continue
            status, raw = self.client.request("GET", self.path_of(query))
            latencies.append(time.perf_counter() - due)
            answers.append((query, status, raw))

        closed = self._closed_loop((1 - OPEN_SHARE) * seconds)
        answers += closed["answers"]

        for query, status, raw in answers:
            outcome.attempted += 1
            outcome.fail(outcome.attempted, self.check_answer(query, status, raw))
        turnarounds = []
        for scenario, job_id, errors in jobs:
            outcome.attempted += 1
            if job_id is not None:
                job = self.wait_job(job_id)
                errors = self.check_job(scenario, job)
                if not errors:
                    turnarounds.append(self.turnaround_s(job))
            outcome.fail(outcome.attempted, errors)

        outcome.metrics = {
            "peak_rss_mb": self.server.peak_rss_mb(),
            "op_ms_p50": 1e3 * float(np.median(latencies)),
            "ops_per_s": closed["rate"],
        }
        n = len(latencies)
        q = oracle.tail_quantile(n)
        outcome.info += [
            f"open loop: {n} queries at {QUERY_RATE:g}/s and {len(jobs)} jobs "
            f"at {JOB_RATE:g}/s over {open_s:.1f} s",
            f"query_ms_p50: {outcome.metrics['op_ms_p50']:.3f} ms (n={n})",
            f"query_ms_p{q}: "
            f"{1e3 * oracle.percentile(latencies, q / 100):.3f} ms "
            f"(n={n}, {n * (100 - q) // 100} beyond)",
            f"generator lateness: median {1e3 * np.median(lateness):.3f} ms, "
            f"max {1e3 * max(lateness):.3f} ms",
            f"closed loop: {len(closed['answers'])} queries on one connection; "
            f"queries_per_s {closed['rate']:.1f} (median of "
            f"{closed['windows']} windows of {CLOSED_WINDOW_S:g} s)",
            f"job_turnaround_s_p50: {np.median(turnarounds):.3f} s "
            f"(n={len(turnarounds)}, updated_at - created_at)",
        ]
        return outcome

    def _closed_loop(self, seconds: float) -> Dict[str, Any]:
        """One connection sending its next query as soon as the last one
        is answered.  The rate is the median over ``CLOSED_WINDOW_S``
        windows, so a burst of outside load on the box moves it less
        than it moves the total."""
        answers = []
        stamps = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            query = self.queries[len(answers) % len(self.queries)]
            status, raw = self.client.request("GET", self.path_of(query))
            stamps.append(time.perf_counter() - start)
            answers.append((query, status, raw))
        edges = np.arange(0.0, seconds + 1e-9, CLOSED_WINDOW_S)
        rates = np.histogram(stamps, bins=edges)[0] / CLOSED_WINDOW_S
        return {"answers": answers, "rate": float(np.median(rates)),
                "windows": len(rates)}


class ServiceJobs(ServiceWorkload):
    """One client POSTs a job, waits until it is done, and repeats."""

    name = "service_jobs"

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        done = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            outcome.attempted += 1
            scenario, job_id, errors = self.post_job()
            if job_id is not None:
                done.append((outcome.attempted, scenario, self.wait_job(job_id)))
            outcome.fail(outcome.attempted, errors)
        wall = time.perf_counter() - start
        turnarounds = []
        for index, scenario, job in done:
            errors = self.check_job(scenario, job)
            if not errors:
                turnarounds.append(self.turnaround_s(job))
            outcome.fail(index, errors)
        outcome.metrics = {
            "peak_rss_mb": self.server.peak_rss_mb(),
            "op_ms_p50": 1e3 * float(np.median(turnarounds)),
            "ops_per_s": len(turnarounds) / wall,
        }
        outcome.info += [
            f"job_turnaround_s_p50: {np.median(turnarounds):.3f} s "
            f"(n={len(turnarounds)}, updated_at - created_at, one job in "
            f"flight, client polls every {1e3 * JOB_POLL_S:g} ms)",
        ]
        return outcome


SERVICE_WORKLOADS = {cls.name: cls for cls in (ServiceMix, ServiceJobs)}
