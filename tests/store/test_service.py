"""The HTTP query service: answers from the store, never the evaluator."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import RunContext, Scenario, run_scenario
from repro.service import create_server
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """A store holding two executed scenarios, plus their results."""
    directory = tmp_path_factory.mktemp("svc") / "store"
    ctx = RunContext(seed=0)
    store = ArtifactStore(directory, memory=ctx.cache)
    base = Scenario(workload="ep", max_a=3, max_b=3,
                    stages=("frontier", "regions"), name="base")
    bigger = Scenario(workload="ep", max_a=5, max_b=5,
                      stages=("frontier", "regions"), name="bigger")
    results = {
        "base": run_scenario(base, ctx, store=store),
        "bigger": run_scenario(bigger, ctx, store=store),
    }
    yield directory, results
    store.close()


@pytest.fixture()
def server(populated, monkeypatch):
    """A live server whose evaluator entry points are booby-trapped.

    Every query in this module runs with enumeration forbidden: if any
    endpoint reached the evaluator or the calibration campaign, the
    request would 500.
    """
    directory, results = populated

    def forbidden(*args, **kw):  # pragma: no cover - the trap must not spring
        raise AssertionError("query service invoked the evaluator")

    import repro.core.calibration as calibration_mod
    import repro.core.evaluate as evaluate_mod
    import repro.engine.executor as executor_mod

    monkeypatch.setattr(evaluate_mod, "evaluate_space_groups", forbidden)
    monkeypatch.setattr(executor_mod, "evaluate_space_groups_chunked", forbidden)
    monkeypatch.setattr(calibration_mod, "ground_truth_params", forbidden)
    monkeypatch.setattr(calibration_mod, "calibrate_node", forbidden)

    store = ArtifactStore(directory)
    httpd = create_server(store, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1], results
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    store.close()


def _get(port, path):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_health(self, server):
        port, _ = server
        status, body = _get(port, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["scenarios"] == 2

    def test_scenario_listing_and_detail(self, server):
        port, _ = server
        status, body = _get(port, "/v1/scenarios")
        assert status == 200
        assert {s["name"] for s in body["scenarios"]} == {"base", "bigger"}

        status, body = _get(port, "/v1/scenarios/base")
        assert status == 200
        assert body["scenario"]["name"] == "base"
        assert body["stages"]["frontier"]["state"] == "fresh"

    def test_frontier_matches_run_scenario(self, server):
        port, results = server
        status, body = _get(port, "/v1/query/frontier?scenario=base")
        assert status == 200
        frontier = results["base"].frontier
        assert body["total_points"] == len(frontier)
        served_times = [p["time_s"] for p in body["points"]]
        served_energies = [p["energy_j"] for p in body["points"]]
        np.testing.assert_allclose(served_times, frontier.times_s)
        np.testing.assert_allclose(served_energies, frontier.energies_j)

    def test_cheapest_matches_frontier_lookup(self, server):
        port, results = server
        frontier = results["base"].frontier
        deadline = float(frontier.times_s.max())
        status, body = _get(
            port, f"/v1/query/cheapest?scenario=base&deadline_s={deadline}"
        )
        assert status == 200
        assert body["feasible"]
        assert body["config"]["energy_j"] == pytest.approx(
            frontier.min_energy_for_deadline(deadline)
        )

    def test_cheapest_infeasible_deadline(self, server):
        port, results = server
        too_tight = float(results["base"].frontier.fastest_time_s) / 2
        status, body = _get(
            port, f"/v1/query/cheapest?scenario=base&deadline_s={too_tight}"
        )
        assert status == 200
        assert not body["feasible"]
        assert "config" not in body

    def test_power_budget_filters_points(self, server):
        port, _ = server
        status, everything = _get(port, "/v1/query/frontier?scenario=bigger")
        tightest = min(p["peak_power_w"] for p in everything["points"])
        status, body = _get(
            port,
            f"/v1/query/frontier?scenario=bigger&power_budget_w={tightest}",
        )
        assert status == 200
        assert 1 <= len(body["points"]) < len(everything["points"])
        assert all(p["peak_power_w"] <= tightest for p in body["points"])

    def test_regions_matches_run_scenario(self, server):
        port, results = server
        status, body = _get(port, "/v1/query/regions?scenario=base")
        assert status == 200
        regions = results["base"].regions
        assert body["has_sweet_region"] == regions.has_sweet_region
        assert body["has_overlap_region"] == regions.has_overlap_region
        assert tuple(body["composition"]) == regions.composition

    def test_whatif_delta(self, server):
        port, results = server
        status, body = _get(
            port, "/v1/query/whatif?scenario=bigger&against=base"
        )
        assert status == 200
        expected = (results["bigger"].frontier.min_energy_j
                    - results["base"].frontier.min_energy_j)
        assert body["min_energy_j"]["delta"] == pytest.approx(expected)

    def test_unknown_scenario_is_404(self, server):
        port, _ = server
        status, body = _get(port, "/v1/query/frontier?scenario=ghost")
        assert status == 404
        assert "unknown scenario" in body["error"]

    def test_missing_parameter_is_400(self, server):
        port, _ = server
        status, body = _get(port, "/v1/query/cheapest?scenario=base")
        assert status == 400
        assert "deadline_s" in body["error"]

    def test_malformed_number_is_400(self, server):
        port, _ = server
        status, _ = _get(
            port, "/v1/query/cheapest?scenario=base&deadline_s=soon"
        )
        assert status == 400

    def test_unknown_route_is_404(self, server):
        port, _ = server
        status, _ = _get(port, "/v1/nope")
        assert status == 404

    def test_invalidated_artifact_is_503(self, populated, server):
        port, _ = server
        directory, _ = populated
        # A second handle invalidates the scenario's stage cone (as a
        # spec edit would); queries must degrade to "re-run", not crash.
        with ArtifactStore(directory) as writer:
            staled = writer.invalidate_downstream("spec:node:arm-cortex-a9")
            assert staled
            try:
                status, body = _get(port, "/v1/query/frontier?scenario=base")
                assert status == 503
                assert "re-run" in body["error"]
            finally:
                # Exact inverse of the invalidation above, so the
                # module-scoped store is intact for any later test.
                with writer._conn:
                    writer._conn.execute(
                        "UPDATE artifacts SET state = 'fresh' "
                        "WHERE state = 'stale'"
                    )


class TestStrictJsonResponses:
    def test_non_finite_body_answers_500_with_strict_json(
        self, server, monkeypatch
    ):
        from repro.service.server import ServiceState

        monkeypatch.setattr(
            ServiceState, "readiness",
            lambda self: {"ready": True, "load": float("nan")},
        )
        port, _ = server
        try:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/ready")
        except urllib.error.HTTPError as exc:
            status, raw = exc.code, exc.read().decode()
        else:  # pragma: no cover - the request must not succeed
            pytest.fail("a NaN body was served with status 200")
        assert status == 500
        body = json.loads(raw, parse_constant=pytest.fail)  # strict JSON
        assert "JSON compliant" in body["error"]
