"""Search threaded through the engine: scenarios, identities, stages.

Pins the tentpole's engine contract: an exhaustive scenario -- spelled
``search=None`` or explicitly -- keeps every pre-search stage identity
and cache key, while an active search joins the space-content identity
(a sampled frontier must never alias the exhaustive artifact); searched
runs flow through the same stage graph, store, and checkpoint machinery;
and invalid combinations fail loudly before any work starts.
"""

import numpy as np
import pytest

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.engine.context import RunContext
from repro.engine.runner import run_scenario
from repro.engine.scenario import Scenario
from repro.engine.stagegraph import build_stage_plan
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.workloads.suite import EP


def _scenario(**kw):
    kw.setdefault("workload", "ep")
    kw.setdefault("max_a", 4)
    kw.setdefault("max_b", 3)
    return Scenario(**kw)


class TestScenarioSearchField:
    def test_default_is_inactive(self):
        s = _scenario()
        assert s.search is None
        assert not s.search_active
        assert s.search_config() is None

    def test_explicit_exhaustive_is_inactive(self):
        s = _scenario(search={"strategy": "exhaustive"})
        assert not s.search_active
        assert s.search_config() is None

    def test_canonicalized_and_seed_fallback(self):
        s = _scenario(seed=42, search={"strategy": "ga", "budget_rows": 100})
        assert s.search_active
        config = s.search_config()
        assert config["strategy"] == "ga"
        assert config["budget_rows"] == 100
        assert config["seed"] == 42  # falls back to the scenario seed

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            _scenario(search={"strategy": "tabu"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown search keys"):
            _scenario(search={"strategy": "ga", "budget": 5})

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_rows"):
            _scenario(search={"strategy": "ga", "budget_rows": 0})

    @pytest.mark.parametrize("key", ["budget_rows", "batch_rows", "seed"])
    @pytest.mark.parametrize(
        "value", [True, 2.7, "12", float("inf"), float("nan"), [12]]
    )
    def test_non_integer_search_ints_rejected(self, key, value):
        spec = {"workload": "ep", "search": {"strategy": "ga", key: value}}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            Scenario.from_dict(spec)

    @pytest.mark.parametrize("key", ["budget_rows", "batch_rows", "seed"])
    def test_integral_floats_and_numpy_ints_accepted(self, key):
        for value in (12.0, np.int64(12), 12):
            config = Scenario.from_dict(
                {"workload": "ep", "search": {"strategy": "ga", key: value}}
            ).search_config()
            assert config[key] == 12 and type(config[key]) is int

    def test_roundtrips_through_json(self):
        s = _scenario(search={"strategy": "anneal", "budget_rows": 50, "seed": 9})
        assert Scenario.from_json(s.to_json()) == s


class TestCacheIdentity:
    def test_exhaustive_identity_is_presearch_identity(self):
        # The search field must be invisible when inactive: identical to
        # a scenario that never heard of searching.
        plain = _scenario().cache_identity()
        explicit = _scenario(search={"strategy": "exhaustive"}).cache_identity()
        assert "search" not in plain
        assert plain == explicit

    def test_active_search_is_part_of_identity(self):
        a = _scenario(search={"strategy": "ga", "budget_rows": 100})
        b = _scenario(search={"strategy": "ga", "budget_rows": 200})
        c = _scenario(search={"strategy": "random", "budget_rows": 100})
        ids = [s.cache_identity() for s in (a, b, c)]
        assert len({str(i) for i in ids}) == 3

    def test_stage_identities_unchanged_for_exhaustive(self):
        ctx = RunContext()
        p0 = build_stage_plan(_scenario(), ctx)
        p1 = build_stage_plan(_scenario(search={"strategy": "exhaustive"}), ctx)
        assert p0.space_content_id == p1.space_content_id
        assert [n.identity for n in p0.nodes] == [n.identity for n in p1.nodes]

    def test_stage_identities_fork_for_active_search(self):
        ctx = RunContext()
        p0 = build_stage_plan(_scenario(), ctx)
        p1 = build_stage_plan(
            _scenario(search={"strategy": "ga", "budget_rows": 100}), ctx
        )
        p2 = build_stage_plan(
            _scenario(search={"strategy": "ga", "budget_rows": 150}), ctx
        )
        assert p0.space_content_id != p1.space_content_id
        assert p1.space_content_id != p2.space_content_id
        # The fork propagates to every analysis stage downstream.
        assert p0.node("frontier").identity != p1.node("frontier").identity


class TestDuplicateNodeTypes:
    def test_scenario_rejects_duplicate_groups(self):
        with pytest.raises(ValueError, match="duplicate node type"):
            _scenario(
                node_types=[
                    {"node": "arm-cortex-a9", "max_nodes": 2},
                    {"node": "arm-cortex-a9", "max_nodes": 3},
                ]
            )

    def test_evaluator_rejects_duplicate_groups(self):
        params = {
            s.name: ground_truth_params(s, EP)
            for s in (ARM_CORTEX_A9, AMD_K10)
        }
        specs = (GroupSpec(ARM_CORTEX_A9, 2), GroupSpec(ARM_CORTEX_A9, 2))
        with pytest.raises(ValueError, match="duplicate node type"):
            evaluate_space_groups(specs, params, 1e6)


class TestSearchedRun:
    def test_end_to_end_search_scenario(self):
        events = []
        ctx = RunContext(sinks=[lambda ev, payload: events.append((ev, payload))])
        scenario = _scenario(
            search={"strategy": "ga", "budget_rows": 300, "seed": 1}
        )
        result = run_scenario(scenario, ctx)
        assert result.search is not None
        assert result.search.strategy == "ga"
        assert result.search.rows_evaluated == 300
        assert result.reduced is result.search.reduced
        assert result.space is None
        assert result.frontier is not None and len(result.frontier) > 0
        assert result.regions is not None
        assert result.num_configurations == 300
        assert any(ev == "search.round" for ev, _ in events)
        summary = result.summary()
        assert summary["search_strategy"] == "ga"
        assert summary["search_rounds"] == len(result.search.trajectory.rounds)

    def test_searched_run_is_cached(self):
        ctx = RunContext()
        scenario = _scenario(
            search={"strategy": "random", "budget_rows": 200, "seed": 2}
        )
        first = run_scenario(scenario, ctx)
        second = run_scenario(scenario, ctx)
        np.testing.assert_array_equal(
            first.frontier.times_s, second.frontier.times_s
        )
        assert second.stage_cache_stats["space"]["hits"] >= 1

    def test_full_budget_search_matches_exhaustive_frontier(self):
        ctx = RunContext()
        exhaustive = run_scenario(_scenario(), ctx)
        searched = run_scenario(
            _scenario(
                search={"strategy": "random", "budget_rows": 10**9, "seed": 0}
            ),
            ctx,
        )
        truth = {
            (float(t), float(e))
            for t, e in zip(
                exhaustive.frontier.times_s, exhaustive.frontier.energies_j
            )
        }
        found = {
            (float(t), float(e))
            for t, e in zip(
                searched.frontier.times_s, searched.frontier.energies_j
            )
        }
        assert found == truth

    def test_queueing_stage_rejected(self):
        scenario = _scenario(
            stages=("frontier", "queueing"),
            search={"strategy": "ga", "budget_rows": 100},
        )
        with pytest.raises(ValueError, match="queueing"):
            run_scenario(scenario, RunContext())

    def test_spill_dir_rejected(self, tmp_path):
        scenario = _scenario(search={"strategy": "ga", "budget_rows": 100})
        with pytest.raises(ValueError, match="spill"):
            run_scenario(scenario, RunContext(), spill_dir=tmp_path)

    def test_store_roundtrip(self, tmp_path):
        from repro.store import ArtifactStore

        scenario = _scenario(
            search={"strategy": "anneal", "budget_rows": 150, "seed": 4}
        )
        ctx = RunContext()
        ctx.store = ArtifactStore(tmp_path / "store", memory=ctx.cache)
        first = run_scenario(scenario, ctx)

        # A cold process (fresh context/cache) loads every stage.
        ctx2 = RunContext()
        ctx2.store = ArtifactStore(tmp_path / "store", memory=ctx2.cache)
        second = run_scenario(scenario, ctx2)
        assert second.stage_statuses["space"] == "stored"
        np.testing.assert_array_equal(
            first.frontier.times_s, second.frontier.times_s
        )
        assert second.search.trajectory.to_dict() == (
            first.search.trajectory.to_dict()
        )

    def test_checkpointed_search_resumes_bit_identically(self, tmp_path):
        scenario = _scenario(
            search={
                "strategy": "ga", "budget_rows": 400, "seed": 5,
                "batch_rows": 64,
            }
        )
        uninterrupted = run_scenario(scenario, RunContext())

        # Checkpoint every round, then resume from the saved state; the
        # resumed artifacts must match an uninterrupted run exactly.
        ckpt = tmp_path / "ckpt"
        run_scenario(
            scenario, RunContext(), checkpoint_dir=ckpt, checkpoint_every=1
        )
        resumed = run_scenario(
            scenario, RunContext(), checkpoint_dir=ckpt, resume=True,
            checkpoint_every=1,
        )
        np.testing.assert_array_equal(
            uninterrupted.frontier.times_s, resumed.frontier.times_s
        )
        np.testing.assert_array_equal(
            uninterrupted.frontier.energies_j, resumed.frontier.energies_j
        )
