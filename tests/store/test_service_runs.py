"""The HTTP write path: enqueue, load-shedding, cancel, readiness."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import Scenario
from repro.service import ServiceState, Supervisor, create_server
from repro.store import ArtifactStore

TINY = Scenario(workload="ep", max_a=2, max_b=2, stages=("frontier",),
                name="tiny")


def _request(port, path, method="GET", body=None, raw=None):
    data = raw
    if data is None and body is not None:
        data = json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture
def service(tmp_path):
    """A live server over an empty store, supervisor NOT started --
    queued jobs stay queued unless a test drains them explicitly."""
    store = ArtifactStore(tmp_path / "store")
    supervisor = Supervisor(store, worker_id="svc-w")
    state = ServiceState(store, supervisors=[supervisor], max_queued=3)
    httpd = create_server(store, port=0, state=state)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1], state, supervisor
    supervisor.stop(grace_s=5)
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    store.close()


class TestEnqueueEndpoint:
    def test_post_creates_a_queued_job(self, service):
        port, state, _ = service
        status, body, _ = _request(
            port, "/v1/runs", "POST", {"scenario": TINY.to_dict()}
        )
        assert status == 202
        assert body["created"] is True
        assert body["state"] == "queued"
        assert body["scenario_name"] == "tiny"
        assert state.queue.depth() == 1

    def test_scenario_from_an_earlier_release_is_accepted(self, service):
        # Clients holding an earlier release's scenario JSON still send
        # the retired ``reduce_at`` key; it is dropped before queueing.
        port, state, _ = service
        spec = dict(TINY.to_dict(), reduce_at="worker")
        with pytest.warns(DeprecationWarning, match="reduce_at"):
            status, body, _ = _request(
                port, "/v1/runs", "POST", {"scenario": spec}
            )
        assert status == 202
        assert body["created"] is True
        queued = json.loads(state.queue.get(body["id"])["scenario_json"])
        assert "reduce_at" not in queued
        assert Scenario.from_dict(queued) == TINY

    def test_idempotency_key_dedupes_to_200(self, service):
        port, _, _ = service
        payload = {"scenario": TINY.to_dict(), "idempotency_key": "once"}
        status1, body1, _ = _request(port, "/v1/runs", "POST", payload)
        status2, body2, _ = _request(port, "/v1/runs", "POST", payload)
        assert (status1, body1["created"]) == (202, True)
        assert (status2, body2["created"]) == (200, False)
        assert body2["id"] == body1["id"]

    def test_get_run_includes_the_spec(self, service):
        port, _, _ = service
        _, created, _ = _request(
            port, "/v1/runs", "POST", {"scenario": TINY.to_dict()}
        )
        status, body, _ = _request(port, f"/v1/runs/{created['id']}")
        assert status == 200
        assert body["scenario"]["workload"] == "ep"

    def test_list_runs_reports_counts_and_bound(self, service):
        port, _, _ = service
        _request(port, "/v1/runs", "POST", {"scenario": TINY.to_dict()})
        status, body, _ = _request(port, "/v1/runs")
        assert status == 200
        assert body["counts"] == {"queued": 1}
        assert body["max_queued"] == 3
        status, body, _ = _request(port, "/v1/runs?state=done")
        assert body["jobs"] == []
        status, _, _ = _request(port, "/v1/runs?state=bogus")
        assert status == 400

    def test_unknown_job_is_404(self, service):
        port, _, _ = service
        status, body, _ = _request(port, "/v1/runs/nope")
        assert status == 404
        assert "unknown job" in body["error"]

    def test_cancel_endpoint(self, service):
        port, _, _ = service
        _, created, _ = _request(
            port, "/v1/runs", "POST", {"scenario": TINY.to_dict()}
        )
        status, body, _ = _request(
            port, f"/v1/runs/{created['id']}/cancel", "POST"
        )
        assert status == 200
        assert body["state"] == "cancelled"


class TestValidation:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"nope": 1}, "scenario"),
            ({"scenario": "ep"}, "scenario"),
            ({"scenario": {"bogus_field": 1}}, "invalid scenario"),
            ({"scenario": {"workload": "ep"}, "max_attempts": 0},
             "max_attempts"),
            ({"scenario": {"workload": "ep"}, "idempotency_key": 7},
             "idempotency_key"),
        ],
    )
    def test_bad_bodies_are_400(self, service, payload, fragment):
        port, _, _ = service
        status, body, _ = _request(port, "/v1/runs", "POST", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_retired_tcp_remote_backend_is_400(self, service):
        port, state, _ = service
        spec = dict(TINY.to_dict(), backend="tcp_remote",
                    backend_options={"worker_hosts": "10.0.0.1:7000"})
        status, body, _ = _request(
            port, "/v1/runs", "POST", {"scenario": spec}
        )
        assert status == 400
        assert (
            "unknown execution backend 'tcp_remote'; "
            "available: ['process_pool', 'serial']"
        ) in body["error"]
        assert state.queue.depth() == 0

    @pytest.mark.parametrize(
        "raw_value", ["1e999", "-1e999", "2.7", "true", '"12"']
    )
    def test_non_integer_search_budget_is_400(self, service, raw_value):
        # 1e999 parses to inf: int() would raise OverflowError (a 500).
        port, state, _ = service
        raw = (
            '{"scenario": {"workload": "ep", "search": '
            '{"strategy": "ga", "budget_rows": ' + raw_value + "}}}"
        ).encode()
        status, body, _ = _request(port, "/v1/runs", "POST", raw=raw)
        assert status == 400
        assert "budget_rows must be an integer" in body["error"]
        assert state.queue.depth() == 0

    @pytest.mark.parametrize("raw_value", ["true", "1.5", '"3"'])
    def test_non_integer_max_attempts_is_400(self, service, raw_value):
        port, state, _ = service
        raw = (
            '{"scenario": {"workload": "ep"}, "max_attempts": '
            + raw_value + "}"
        ).encode()
        status, body, _ = _request(port, "/v1/runs", "POST", raw=raw)
        assert status == 400
        assert "max_attempts must be an integer" in body["error"]
        assert state.queue.depth() == 0

    def test_integral_float_max_attempts_is_accepted(self, service):
        port, _, _ = service
        status, body, _ = _request(
            port, "/v1/runs", "POST",
            {"scenario": TINY.to_dict(), "max_attempts": 2.0},
        )
        assert status == 202
        assert body["max_attempts"] == 2

    @pytest.mark.parametrize(
        "field, raw_value",
        [
            ("units", "NaN"),
            ("window_s", "NaN"),
            ("noise_scale", "Infinity"),
            ("memory_budget_mb", "-Infinity"),
            ("utilizations", "[0.05, NaN]"),
        ],
    )
    def test_non_finite_scenario_float_is_400(self, service, field, raw_value):
        # Python's JSON parser reads NaN and Infinity unless told not to;
        # the body parser rejects the literals before any scenario guard.
        port, state, _ = service
        raw = (
            '{"scenario": {"workload": "ep", "' + field + '": '
            + raw_value + "}}"
        ).encode()
        status, body, _ = _request(port, "/v1/runs", "POST", raw=raw)
        assert status == 400
        assert "not valid JSON" in body["error"]
        assert "is not a JSON number" in body["error"]
        assert state.queue.depth() == 0

    @pytest.mark.parametrize(
        "raw_value", ["NaN", "Infinity", "-Infinity", "[1, NaN]"]
    )
    def test_non_finite_literals_anywhere_are_400(self, service, raw_value):
        port, state, _ = service
        raw = (
            '{"scenario": {"workload": "ep"}, "extra": ' + raw_value + "}"
        ).encode()
        status, body, _ = _request(port, "/v1/runs", "POST", raw=raw)
        assert status == 400
        assert "is not a JSON number" in body["error"]
        assert state.queue.depth() == 0

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ('"max_a": 2.5', "max_a must be an integer"),
            ('"max_a": true', "max_a must be an integer"),
            ('"max_b": 1e999', "max_b must be an integer"),
            ('"counts_a": [1.7]', "each count must be an integer"),
            ('"node_types": [{"node": "arm-cortex-a9", "max_nodes": 1e999}]',
             "max_nodes must be an integer"),
            ('"node_types": [{"node": "arm-cortex-a9", "counts": [true]}]',
             "each count must be an integer"),
            ('"node_types": [{"node": "arm-cortex-a9", '
             '"settings": [[2.5, 1.0]]}]', "cores must be an integer"),
            ('"node_types": [{"node": "arm-cortex-a9", '
             '"settings": [[2, 1e999]]}]', "frequency must be a finite number"),
        ],
    )
    def test_non_integral_node_counts_are_400(self, service, fields, fragment):
        # Each was accepted and queued as a job bound to fail later.
        port, state, _ = service
        raw = ('{"scenario": {"workload": "ep", ' + fields + "}}").encode()
        status, body, _ = _request(port, "/v1/runs", "POST", raw=raw)
        assert status == 400
        assert "invalid scenario" in body["error"]
        assert fragment in body["error"]
        assert state.queue.depth() == 0

    def test_unparseable_json_is_400(self, service):
        port, _, _ = service
        status, body, _ = _request(port, "/v1/runs", "POST", raw=b"{oops")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_empty_body_is_400(self, service):
        port, _, _ = service
        status, body, _ = _request(port, "/v1/runs", "POST", raw=b"")
        assert status == 400


class TestLoadShedding:
    def test_429_with_retry_after_at_the_bound(self, service):
        port, state, _ = service
        for i in range(3):
            status, _, _ = _request(
                port, "/v1/runs", "POST",
                {"scenario": dict(TINY.to_dict(), name=f"job-{i}")},
            )
            assert status == 202
        status, body, headers = _request(
            port, "/v1/runs", "POST",
            {"scenario": dict(TINY.to_dict(), name="one-too-many")},
        )
        assert status == 429
        assert headers.get("Retry-After") == "1"
        assert body["max_queued"] == 3
        assert body["depth"] == 3
        assert state.queue.depth() == 3  # the bound was never overshot

    def test_shed_enqueue_left_no_row(self, service):
        port, state, _ = service
        for i in range(4):
            _request(
                port, "/v1/runs", "POST",
                {"scenario": dict(TINY.to_dict(), name=f"job-{i}"),
                 "idempotency_key": f"k{i}"},
            )
        status, body, _ = _request(port, "/v1/runs")
        assert len(body["jobs"]) == 3
        assert {j["idempotency_key"] for j in body["jobs"]} == {
            "k0", "k1", "k2"
        }


class TestReadiness:
    def test_health_and_ready_when_live(self, service):
        port, _, supervisor = service
        supervisor.start()
        status, body, _ = _request(port, "/health")
        assert status == 200 and body["status"] == "ok"
        status, body, _ = _request(port, "/ready")
        assert status == 200
        assert body["ready"] is True

    def test_draining_flips_ready_not_health(self, service):
        port, state, _ = service
        state.draining.set()
        try:
            status, body, _ = _request(port, "/ready")
            assert status == 503
            assert body["ready"] is False
            status, _, _ = _request(port, "/health")
            assert status == 200
            status, body, headers = _request(
                port, "/v1/runs", "POST", {"scenario": TINY.to_dict()}
            )
            assert status == 503
            assert headers.get("Retry-After") == "1"
        finally:
            state.draining.clear()

    def test_stale_supervisor_heartbeat_degrades_ready(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        supervisor = Supervisor(store, worker_id="stalled")
        state = ServiceState(
            store, supervisors=[supervisor], ready_heartbeat_s=0.0
        )
        supervisor._last_beat -= 1.0  # the loop has not beaten for 1s
        httpd = create_server(store, port=0, state=state)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            port = httpd.server_address[1]
            status, body, _ = _request(port, "/ready")
            assert status == 503
            assert body["ready"] is False
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
            store.close()


class TestEndToEnd:
    def test_enqueue_runs_to_queryable_frontier(self, service):
        """POST -> supervisor drains -> job done -> frontier servable."""
        port, _, supervisor = service
        supervisor.start()
        status, job, _ = _request(
            port, "/v1/runs", "POST", {"scenario": TINY.to_dict()}
        )
        assert status == 202
        deadline = time.time() + 120
        while True:
            _, body, _ = _request(port, f"/v1/runs/{job['id']}")
            if body["state"] in ("done", "failed"):
                break
            assert time.time() < deadline, body
            time.sleep(0.1)
        assert body["state"] == "done", body
        status, frontier, _ = _request(
            port, "/v1/query/frontier?scenario=tiny"
        )
        assert status == 200
        assert frontier["total_points"] == body["result"]["frontier_points"]
