"""Stage graph: plan topology, store-backed execution, invalidation."""

import dataclasses

import numpy as np
import pytest

from repro.core import calibration as calibration_mod
from repro.engine import (
    RunContext,
    Scenario,
    build_stage_plan,
    explain_scenario,
    run_scenario,
    scenario_identity,
)
from repro.engine import executor as executor_mod
from repro.hardware.catalog import ARM_CORTEX_A9
from repro.store import ArtifactStore


def _scenario(**kw):
    base = dict(workload="ep", max_a=3, max_b=3,
                stages=("frontier", "regions"), name="sg")
    base.update(kw)
    return Scenario(**base)


@pytest.fixture
def ctx():
    return RunContext(seed=0)


class TestPlanTopology:
    def test_stage_order_and_deps(self, ctx):
        plan = build_stage_plan(
            _scenario(stages=("frontier", "regions", "queueing")), ctx
        )
        assert plan.stage_names == (
            "calibrate:arm-cortex-a9", "calibrate:amd-k10",
            "space", "frontier", "regions", "queueing",
        )
        assert plan.node("space").deps == (
            "calibrate:arm-cortex-a9", "calibrate:amd-k10"
        )
        assert plan.node("frontier").deps == ("space",)
        assert plan.node("regions").deps == ("space", "frontier")
        assert plan.node("queueing").deps == ("space",)

    def test_calibrate_nodes_carry_spec_deps(self, ctx):
        plan = build_stage_plan(_scenario(), ctx)
        node = plan.node("calibrate:arm-cortex-a9")
        assert "spec:node:arm-cortex-a9" in node.spec_deps
        assert "spec:workload:ep" in node.spec_deps

    def test_identities_are_deterministic(self, ctx):
        a = build_stage_plan(_scenario(), ctx)
        b = build_stage_plan(_scenario(), RunContext(seed=0))
        assert [n.identity for n in a.nodes] == [n.identity for n in b.nodes]

    def test_axis_edit_leaves_calibrate_identities_alone(self, ctx):
        a = build_stage_plan(_scenario(max_a=3), ctx)
        b = build_stage_plan(_scenario(max_a=4), ctx)
        assert (a.node("calibrate:arm-cortex-a9").identity
                == b.node("calibrate:arm-cortex-a9").identity)
        assert a.node("space").identity != b.node("space").identity
        assert a.node("frontier").identity != b.node("frontier").identity

    def test_analysis_identities_are_mode_independent(self, ctx):
        # Recorded when the pipeline still had a materialized mode: its
        # frontier/regions/queueing identities were the streaming ones,
        # and the space stage keeps the streaming identity.
        plan = build_stage_plan(
            _scenario(stages=("frontier", "regions", "queueing")), ctx
        )
        recorded = {
            "space": "ed8e0144f1505635ca3eeb73799dbdca"
                     "332489de21966efee96a8ca9ff9bbe8f",
            "frontier": "9b6b5e600a596fb8f874c793e5894846"
                        "1c239e6a4e77815f8ff9a088083e4477",
            "regions": "68263757a8793750e412af745f84ac27"
                       "59a7e9bf205b15e181a93a7b689bbca6",
            "queueing": "095beb31af8fe704372fc0b34c692e03"
                        "7cad91d18c09d0ac7090158855faee0d",
        }
        for stage, identity in recorded.items():
            assert plan.node(stage).identity == identity, stage

    def test_scenario_identity_stable_across_execution_knobs(self):
        assert scenario_identity(_scenario()) == scenario_identity(
            _scenario(memory_budget_mb=1.0, backend="serial")
        )


def _count_compute(monkeypatch):
    """Instrument the two heavy compute entry points with call counters."""
    counts = {"calibrate": 0, "space": 0}
    real_params = calibration_mod.ground_truth_params
    real_space = executor_mod.iter_space_groups_chunked

    def counting_params(*args, **kw):
        counts["calibrate"] += 1
        return real_params(*args, **kw)

    def counting_space(*args, **kw):
        counts["space"] += 1
        return real_space(*args, **kw)

    monkeypatch.setattr(calibration_mod, "ground_truth_params", counting_params)
    monkeypatch.setattr(
        executor_mod, "iter_space_groups_chunked", counting_space
    )
    return counts


class TestStoreBackedExecution:
    def test_warm_store_recomputes_nothing(self, tmp_path, monkeypatch):
        counts = _count_compute(monkeypatch)
        scenario = _scenario()

        cold_ctx = RunContext(seed=0)
        with ArtifactStore(tmp_path / "s", memory=cold_ctx.cache) as store:
            cold = run_scenario(scenario, cold_ctx, store=store)
        assert counts == {"calibrate": 2, "space": 1}
        assert set(cold.stage_statuses.values()) == {"computed"}

        # A brand-new process: fresh context, fresh memory tier, same
        # store directory.  Nothing may recompute.
        warm_ctx = RunContext(seed=0)
        with ArtifactStore(tmp_path / "s", memory=warm_ctx.cache) as store:
            warm = run_scenario(scenario, warm_ctx, store=store)
        assert counts == {"calibrate": 2, "space": 1}
        assert set(warm.stage_statuses.values()) == {"stored"}

        np.testing.assert_array_equal(
            cold.frontier.times_s, warm.frontier.times_s
        )
        np.testing.assert_array_equal(
            cold.frontier.energies_j, warm.frontier.energies_j
        )
        assert cold.regions.composition == warm.regions.composition

    def test_spec_edit_recomputes_only_downstream(self, tmp_path, monkeypatch):
        counts = _count_compute(monkeypatch)
        scenario = _scenario()

        cold_ctx = RunContext(seed=0)
        with ArtifactStore(tmp_path / "s", memory=cold_ctx.cache) as store:
            run_scenario(scenario, cold_ctx, store=store)
        assert counts == {"calibrate": 2, "space": 1}

        # Edit the ARM spec behind its name: a new process resolves the
        # edited hardware, and only its dependency cone recomputes.
        edited = dataclasses.replace(
            ARM_CORTEX_A9,
            power=dataclasses.replace(
                ARM_CORTEX_A9.power, idle_w=ARM_CORTEX_A9.power.idle_w * 1.5
            ),
        )
        warm_ctx = RunContext(seed=0)
        warm_ctx.register_node(edited)
        with ArtifactStore(tmp_path / "s", memory=warm_ctx.cache) as store:
            plan, rows = explain_scenario(scenario, warm_ctx, store=store)
            status = {r["stage"]: r["status"] for r in rows}
            # The explain itself must not mutate the store: the edited
            # calibrate identity simply isn't stored yet.
            assert status["calibrate:amd-k10"] == "hit"
            assert status["calibrate:arm-cortex-a9"] == "stale"

            result = run_scenario(scenario, warm_ctx, store=store)
        assert result.stage_statuses["calibrate:amd-k10"] == "stored"
        assert result.stage_statuses["calibrate:arm-cortex-a9"] == "computed"
        assert result.stage_statuses["space"] == "computed"
        assert counts == {"calibrate": 3, "space": 2}

    def test_rerun_after_spec_edit_marks_old_artifacts_stale(self, tmp_path):
        scenario = _scenario()
        ctx = RunContext(seed=0)
        with ArtifactStore(tmp_path / "s", memory=ctx.cache) as store:
            run_scenario(scenario, ctx, store=store)
            old_space_key = store.stage_map(
                scenario_identity(scenario)
            )["space"]

        edited = dataclasses.replace(
            ARM_CORTEX_A9,
            power=dataclasses.replace(
                ARM_CORTEX_A9.power, idle_w=ARM_CORTEX_A9.power.idle_w * 1.5
            ),
        )
        ctx2 = RunContext(seed=0)
        ctx2.register_node(edited)
        with ArtifactStore(tmp_path / "s", memory=ctx2.cache) as store:
            run_scenario(scenario, ctx2, store=store)
            assert store.artifact_state(old_space_key) == "stale"

    def test_streaming_scenario_stores_and_reloads(self, tmp_path, monkeypatch):
        counts = _count_compute(monkeypatch)
        scenario = _scenario(
            memory_budget_mb=0.5,
            stages=("frontier", "regions", "queueing"),
            utilizations=(0.5,),
        )
        cold_ctx = RunContext(seed=0)
        with ArtifactStore(tmp_path / "s", memory=cold_ctx.cache) as store:
            cold = run_scenario(scenario, cold_ctx, store=store)
        assert counts == {"calibrate": 2, "space": 1}
        warm_ctx = RunContext(seed=0)
        with ArtifactStore(tmp_path / "s", memory=warm_ctx.cache) as store:
            warm = run_scenario(scenario, warm_ctx, store=store)
        assert counts == {"calibrate": 2, "space": 1}
        assert set(warm.stage_statuses.values()) == {"stored"}
        np.testing.assert_array_equal(
            cold.frontier.times_s, warm.frontier.times_s
        )
        assert set(warm.queueing) == {0.5}

    def test_explain_without_store_is_all_miss(self, ctx):
        plan, rows = explain_scenario(_scenario(), ctx)
        assert {r["status"] for r in rows} == {"miss"}
        assert [r["stage"] for r in rows] == list(plan.stage_names)

    def test_explain_does_not_execute(self, ctx, monkeypatch):
        counts = _count_compute(monkeypatch)
        explain_scenario(_scenario(), ctx)
        assert counts == {"calibrate": 0, "space": 0}
