"""run_scenario: the declarative pipeline end-to-end."""

import numpy as np
import pytest

from repro.engine import ResultCache, RunContext, Scenario, run_scenario
from repro.workloads.suite import EP


@pytest.fixture
def ctx():
    return RunContext(seed=0)


class TestEndToEnd:
    def test_full_pipeline(self, ctx):
        scenario = Scenario(
            workload="ep",
            max_a=3,
            max_b=3,
            stages=("frontier", "regions", "queueing"),
            utilizations=(0.1, 0.5),
            name="everything",
        )
        result = run_scenario(scenario, ctx)

        # Space: 3 ARM counts x 20 settings x 3 AMD counts x 18 settings,
        # plus both homogeneous blocks.
        assert len(result.space) == 3 * 20 * 3 * 18 + 3 * 20 + 3 * 18
        assert set(result.params) == {"arm-cortex-a9", "amd-k10"}

        assert result.frontier is not None
        assert result.only_a_frontier is not None
        assert result.only_b_frontier is not None
        assert result.frontier.min_energy_j > 0
        assert result.regions is not None
        assert set(result.queueing) == {0.1, 0.5}

        assert set(result.timings_s) == {
            "calibrate", "space", "frontier", "regions", "queueing"
        }
        summary = result.summary()
        assert summary["configurations"] == len(result.space)
        assert summary["frontier_points"] == len(result.frontier)

    def test_space_only_scenario(self, ctx):
        result = run_scenario(Scenario(workload="ep", max_a=2, max_b=2, stages=()), ctx)
        assert result.frontier is None
        assert result.regions is None
        assert result.queueing is None
        with pytest.raises(ValueError, match="frontier"):
            result.min_energy_for_deadline(1.0)

    def test_units_default_to_analysis_problem_size(self, ctx):
        result = run_scenario(Scenario(workload="ep", max_a=2, max_b=2), ctx)
        expected = EP.problem_sizes.get("analysis", EP.default_job_units)
        assert result.space.units_total == expected

    def test_runs_on_default_context_when_omitted(self):
        result = run_scenario(Scenario(workload="ep", max_a=2, max_b=2))
        assert result.frontier is not None

    def test_deadline_query_round_trip(self, ctx):
        result = run_scenario(
            Scenario(workload="ep", max_a=3, max_b=3, stages=("frontier",)), ctx
        )
        deadline = float(np.median(result.frontier.times_s))
        energy = result.min_energy_for_deadline(deadline)
        assert energy is not None
        index = result.frontier.config_index_for_deadline(deadline)
        assert result.space.point(index).time_s <= deadline


class TestCachingAcrossRuns:
    def test_name_never_invalidates_results(self, ctx):
        base = Scenario(workload="ep", max_a=2, max_b=2, name="monday")
        renamed = base.with_(name="tuesday")
        first = run_scenario(base, ctx)
        second = run_scenario(renamed, ctx)
        assert second.space is first.space

    def test_different_seed_reuses_ground_truth(self, ctx):
        # Uncalibrated params do not depend on the seed: no recomputation.
        run_scenario(Scenario(workload="ep", max_a=2, max_b=2, seed=0), ctx)
        misses = ctx.cache.stats.misses
        run_scenario(Scenario(workload="ep", max_a=2, max_b=2, seed=1), ctx)
        assert ctx.cache.stats.misses == misses

    def test_disk_cache_carries_across_contexts(self, tmp_path):
        scenario = Scenario(workload="ep", max_a=2, max_b=2)
        cold_ctx = RunContext(cache=ResultCache(disk_dir=tmp_path / "c"))
        cold = run_scenario(scenario, cold_ctx)

        warm_ctx = RunContext(cache=ResultCache(disk_dir=tmp_path / "c"))
        warm = run_scenario(scenario, warm_ctx)
        assert warm_ctx.cache.stats.disk_hits == 3  # 2 params + 1 space
        assert warm_ctx.cache.stats.misses == 0
        np.testing.assert_array_equal(cold.space.energies_j, warm.space.energies_j)

    def test_calibrated_noise_scale_changes_results(self, ctx):
        clean = run_scenario(
            Scenario(
                workload="ep", max_a=1, max_b=1, calibrated=True, noise_scale=0.0
            ),
            ctx,
        )
        noisy = run_scenario(
            Scenario(
                workload="ep", max_a=1, max_b=1, calibrated=True, noise_scale=1.0
            ),
            ctx,
        )
        assert not np.array_equal(clean.space.times_s, noisy.space.times_s)


class TestArgumentValidation:
    def test_spill_and_checkpoint_together_raise(self, ctx, tmp_path):
        scenario = Scenario(workload="ep", max_a=2, max_b=2)
        with pytest.raises(ValueError, match="checkpoint_dir and spill_dir"):
            run_scenario(
                scenario,
                ctx,
                spill_dir=tmp_path / "spill",
                checkpoint_dir=tmp_path / "ckpt",
            )
        # Fail-fast: nothing ran, nothing was created.
        assert not (tmp_path / "spill").exists()
        assert not (tmp_path / "ckpt").exists()
        assert ctx.cache.stats.misses == 0


class TestPerStageAccounting:
    def test_stage_cache_stats_in_result_and_summary(self, ctx):
        scenario = Scenario(
            workload="ep", max_a=2, max_b=2, stages=("frontier", "regions")
        )
        result = run_scenario(scenario, ctx)
        assert set(result.stage_cache_stats) == {
            "calibrate", "space", "frontier", "regions"
        }
        assert result.stage_cache_stats["calibrate"]["misses"] == 2
        assert result.stage_cache_stats["space"]["misses"] == 1
        assert result.summary()["cache_per_stage"] == result.stage_cache_stats

        rerun = run_scenario(scenario, ctx)
        assert rerun.stage_cache_stats["calibrate"]["hits"] == 2
        assert rerun.stage_cache_stats["calibrate"]["misses"] == 0

    def test_stage_done_events_carry_cache_deltas(self):
        events = []
        ctx = RunContext(
            seed=0, sinks=(lambda event, payload: events.append((event, payload)),)
        )
        run_scenario(Scenario(workload="ep", max_a=2, max_b=2), ctx)
        done = [p for e, p in events if e == "stage.done"]
        assert {p["stage"] for p in done} >= {
            "calibrate:arm-cortex-a9", "calibrate:amd-k10", "space"
        }
        for payload in done:
            assert payload["status"] in ("stored", "computed")
            assert "cache_misses" in payload and "cache_hits" in payload

    def test_stage_statuses_without_store_are_computed(self, ctx):
        result = run_scenario(Scenario(workload="ep", max_a=2, max_b=2), ctx)
        assert set(result.stage_statuses.values()) == {"computed"}
