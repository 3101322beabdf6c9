"""The streaming pipeline through the engine: scenarios, cache, spill.

Property tests pin the reducers themselves
(``tests/property/test_streaming_properties.py``); these tests pin the
engine threading: every exhaustive scenario streams, and its artifacts
are bit-identical to the materialized oracles
(:func:`~repro.engine.stagegraph.frontier_artifact_from_space`,
:func:`~repro.queueing.dispatcher.figure10_series`); ``result.space`` is
built only on first read, with the materialized columns' bits; the
executor's block iterator matches the chunked evaluation, spill
round-trips the full space, the retired ``space_mode`` stays out of the
cache identity, the ``space.memory`` accounting events fire, and a
streamed run builds each group's setting grid once, not once per block.
"""

import numpy as np
import pytest

from repro.core.streaming import load_spilled_space
from repro.engine import ResultCache, RunContext, Scenario, run_scenario
from repro.engine.executor import iter_space_groups_chunked
from repro.engine.scenario import NodeGroup
from repro.engine.stagegraph import build_stage_plan, frontier_artifact_from_space
from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.core.regions import analyze_regions
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.queueing.dispatcher import figure10_series
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

PARAMS = {
    spec.name: ground_truth_params(spec, EP) for spec in (ARM_CORTEX_A9, AMD_K10)
}
UNITS = 1e6
GROUPS = (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 3))
SPACE_COLUMNS = ("n", "cores", "f", "units", "times_s", "energies_j")


def small_scenario(**overrides):
    base = dict(
        workload="ep",
        max_a=3,
        max_b=3,
        stages=("frontier", "regions", "queueing"),
        utilizations=(0.1, 0.5),
        memory_budget_mb=1.0,
        name="modes",
    )
    base.update(overrides)
    return Scenario(**base)


def three_type_ctx():
    ctx = RunContext(seed=0)
    ctx.register_node(INTEL_ATOM)
    ctx.register_workload(with_atom(EP))
    return ctx


THREE_TYPE = dict(
    workload="ep",
    node_types=(
        NodeGroup("arm-cortex-a9", 2),
        NodeGroup("amd-k10", 2),
        NodeGroup("intel-atom", 2),
    ),
    stages=("frontier", "regions", "queueing"),
    utilizations=(0.25,),
    memory_budget_mb=0.5,
)


def oracle_space(scenario, ctx, result):
    """The whole space as the materialized pipeline evaluated it."""
    plan = build_stage_plan(scenario, ctx)
    return plan, evaluate_space_groups(plan.group_specs, result.params, plan.units)


def assert_frontiers_identical(left, right):
    np.testing.assert_array_equal(left.times_s, right.times_s)
    np.testing.assert_array_equal(left.energies_j, right.energies_j)
    np.testing.assert_array_equal(left.indices, right.indices)


def assert_spaces_identical(left, right):
    for name in SPACE_COLUMNS:
        np.testing.assert_array_equal(
            getattr(left, name), getattr(right, name), err_msg=name
        )
    assert left.units_total == right.units_total


def assert_matches_oracles(scenario, ctx, result):
    plan, space = oracle_space(scenario, ctx, result)
    art = frontier_artifact_from_space(space)
    assert result.num_configurations == len(space)
    assert_frontiers_identical(art.frontier, result.frontier)
    for oracle, streamed in zip(art.group_frontiers, result.group_frontiers):
        assert (oracle is None) == (streamed is None)
        if oracle is not None:
            assert_frontiers_identical(oracle, streamed)
    np.testing.assert_array_equal(art.frontier_n, result.reduced.frontier_n)
    assert art.composition == result.regions.composition
    assert result.queueing == figure10_series(space, **plan.queue_kw)
    return space


class TestScenarioModes:
    def test_streaming_matches_materialized_end_to_end(self):
        scenario = small_scenario()
        ctx = RunContext(seed=0)
        s = run_scenario(scenario, ctx)
        space = assert_matches_oracles(scenario, ctx, s)
        assert s.reduced is not None and s.search is None
        assert "space_mode" not in s.summary()
        assert s.summary()["configurations"] == len(space)
        regions = analyze_regions(space, s.frontier)
        assert regions.composition == s.regions.composition

    def test_three_type_streaming(self):
        scenario = Scenario(**THREE_TYPE)
        ctx = three_type_ctx()
        assert_matches_oracles(scenario, ctx, run_scenario(scenario, ctx))

    def test_spill_round_trips_the_full_space(self, tmp_path):
        scenario = small_scenario(stages=("frontier",))
        lazy = run_scenario(scenario, RunContext(seed=0))
        s = run_scenario(
            scenario, RunContext(seed=0), spill_dir=tmp_path / "spill"
        )
        assert s.space is not None  # spill hands the columns back
        assert isinstance(s.space.times_s, np.memmap)
        assert_spaces_identical(lazy.space, s.space)
        reopened = load_spilled_space(tmp_path / "spill")
        np.testing.assert_array_equal(lazy.space.times_s, reopened.times_s)
        np.testing.assert_array_equal(lazy.space.n, reopened.n)

    def test_space_mode_not_in_cache_identity(self):
        scenario = small_scenario()
        for mode in ("materialized", "streaming"):
            stored = dict(scenario.to_dict(), space_mode=mode)
            with pytest.warns(DeprecationWarning, match="space_mode"):
                loaded = Scenario.from_dict(stored)
            assert loaded == scenario
            assert loaded.cache_identity() == scenario.cache_identity()
        assert "space_mode" not in scenario.to_dict()
        assert "space_mode" not in scenario.cache_identity()

    def test_invalid_mode_and_budget_rejected(self):
        with pytest.raises(TypeError, match="space_mode"):
            Scenario(workload="ep", max_a=2, max_b=2, space_mode="lazy")
        with pytest.raises(ValueError, match="memory budget"):
            Scenario(workload="ep", max_a=2, max_b=2, memory_budget_mb=0.0)

    def test_reduced_artifacts_are_cached(self):
        cache = ResultCache()
        ctx = RunContext(seed=0, cache=cache)
        scenario = small_scenario()
        run_scenario(scenario, ctx)
        before = cache.stats.misses
        run_scenario(scenario, ctx)
        assert cache.stats.misses == before
        assert cache.stats.hits > 0


class TestLazySpace:
    """``result.space`` is evaluated on first read, with the bits the
    materialized pipeline produced, and nothing else builds it."""

    def test_paper_space_matches_materialized_columns(self):
        scenario = Scenario(workload="ep", stages=("frontier",))
        ctx = RunContext(seed=0)
        result = run_scenario(scenario, ctx)
        assert result.num_configurations == 36_380
        _, space = oracle_space(scenario, ctx, result)
        assert_spaces_identical(space, result.space)
        assert result.space is result.space  # built once

    def test_three_type_space_matches_materialized_columns(self):
        scenario = Scenario(**THREE_TYPE)
        ctx = three_type_ctx()
        result = run_scenario(scenario, ctx)
        _, space = oracle_space(scenario, ctx, result)
        assert_spaces_identical(space, result.space)

    def test_summary_never_builds_the_space(self, monkeypatch):
        ctx = RunContext(seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("the whole space was built")

        monkeypatch.setattr(ctx, "space_groups", refuse)
        result = run_scenario(small_scenario(), ctx)
        assert result.num_configurations == 3 * 20 + 3 * 18 + 3 * 20 * 3 * 18
        summary = result.summary()
        assert summary["configurations"] == result.num_configurations
        with pytest.raises(AssertionError, match="whole space"):
            result.space

    def test_searched_runs_have_no_space(self):
        scenario = small_scenario(
            stages=("frontier",),
            search={"strategy": "random", "budget_rows": 50, "seed": 1},
        )
        result = run_scenario(scenario, RunContext(seed=0))
        assert result.space is None
        assert result.num_configurations == result.reduced.total_rows


class TestMemoryAccounting:
    def test_nbytes_counts_all_columns(self):
        space = evaluate_space_groups(GROUPS, PARAMS, UNITS)
        per_row = 8 * (4 * space.num_groups + 2)
        assert space.nbytes == per_row * len(space)

    def test_space_memory_events_fire_in_both_modes(self):
        events = []

        def sink(event, payload):
            events.append((event, payload))

        scenario = small_scenario(stages=("frontier",))
        run_scenario(scenario, RunContext(seed=0, sinks=(sink,)))
        modes = {p["mode"]: p for e, p in events if e == "space.memory"}
        streamed = modes["streaming"]
        assert streamed["budget_mb"] == 1.0
        # The point of streaming: the held block is far below the space.
        assert streamed["peak_estimate_nbytes"] < streamed["full_nbytes"]

        events.clear()
        searched = scenario.with_(
            search={"strategy": "random", "budget_rows": 50, "seed": 1}
        )
        run_scenario(searched, RunContext(seed=0, sinks=(sink,)))
        modes = {p["mode"]: p for e, p in events if e == "space.memory"}
        assert modes["searched"]["rows"] == 50


class TestExecutorIterator:
    def test_parallel_blocks_match_serial(self):
        # Same two-worker plan either way: the pool must hand the blocks
        # back in deterministic plan order regardless of finish order.
        serial = list(
            iter_space_groups_chunked(
                GROUPS, PARAMS, UNITS, max_workers=2, memory_budget_mb=0.02,
                backend="serial",
            )
        )
        parallel = list(
            iter_space_groups_chunked(
                GROUPS, PARAMS, UNITS, max_workers=2, memory_budget_mb=0.02
            )
        )
        assert len(serial) > 1
        assert [b.index for b in serial] == [b.index for b in parallel]
        assert [b.start_row for b in serial] == [b.start_row for b in parallel]
        for left, right in zip(serial, parallel):
            np.testing.assert_array_equal(
                left.data.times_s, right.data.times_s
            )
            np.testing.assert_array_equal(left.data.n, right.data.n)

    def test_blocks_concat_to_whole_space(self):
        whole = evaluate_space_groups(GROUPS, PARAMS, UNITS)
        blocks = list(
            iter_space_groups_chunked(
                GROUPS, PARAMS, UNITS, max_workers=1, memory_budget_mb=0.25
            )
        )
        assert len(blocks) > 1
        times = np.concatenate([b.data.times_s for b in blocks])
        n = np.concatenate([b.data.n for b in blocks], axis=1)
        np.testing.assert_array_equal(whole.times_s, times)
        np.testing.assert_array_equal(whole.n, n)


class TestReducerCheckpointState:
    """state_dict/load_state snapshots restore a pass mid-stream exactly."""

    def _blocks(self):
        return list(
            iter_space_groups_chunked(
                GROUPS, PARAMS, UNITS, max_workers=1, memory_budget_mb=0.25
            )
        )

    def test_mid_pass_snapshot_resumes_bit_identical(self):
        from repro.core.streaming import reduce_space_blocks

        blocks = self._blocks()
        assert len(blocks) >= 3
        whole = reduce_space_blocks(iter(blocks))

        saved = {}
        cut = len(blocks) // 2

        def grab(state):
            saved.update(state)

        with pytest.raises(RuntimeError, match="stop"):
            def bomb(index):
                if index == cut:
                    raise RuntimeError("stop")
            reduce_space_blocks(
                iter(blocks), fold_hook=bomb, checkpoint_save=grab,
                checkpoint_every=1,
            )
        assert saved["blocks_done"] == cut

        resumed = reduce_space_blocks(iter(blocks[cut:]), initial=saved)
        assert_frontiers_identical(whole.frontier, resumed.frontier)
        assert whole.total_rows == resumed.total_rows
        assert whole.composition == resumed.composition
        np.testing.assert_array_equal(whole.frontier_n, resumed.frontier_n)
        for left, right in zip(whole.group_frontiers, resumed.group_frontiers):
            assert (left is None) == (right is None)
            if left is not None:
                assert_frontiers_identical(left, right)

    def test_out_of_order_blocks_rejected(self):
        from repro.core.streaming import reduce_space_blocks

        blocks = self._blocks()
        with pytest.raises(ValueError, match="plan order"):
            reduce_space_blocks(iter(blocks[1:]))

    def test_topk_reducer_state_round_trip(self):
        from repro.core.streaming import TopKReducer

        first = TopKReducer(3)
        first.update([((5, 0), "e"), ((1, 1), "a"), ((3, 2), "c")])
        clone = TopKReducer(3)
        clone.load_state(first.state_dict())
        clone.update([((2, 3), "b")])
        first.update([((2, 3), "b")])
        assert clone.finish() == first.finish()
        with pytest.raises(ValueError, match="top-"):
            TopKReducer(2).load_state(first.state_dict())

    def test_opaque_consumer_blocks_checkpointing(self):
        from repro.core.streaming import reduce_space_blocks

        class Opaque:
            def update(self, block):
                pass

        with pytest.raises(ValueError, match="state_dict"):
            reduce_space_blocks(
                iter(self._blocks()),
                consumers=(Opaque(),),
                checkpoint_save=lambda state: None,
            )


class TestSettingGridsBuiltOnce:
    """A streamed run builds each group's setting grid once, not per block."""

    @pytest.fixture
    def grid_builds(self, monkeypatch):
        from repro.core import evaluate

        calls = []
        real = evaluate._setting_grid

        def counting(spec, *args, **kwargs):
            calls.append(spec.name)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(evaluate, "_setting_grid", counting)
        return calls

    def test_serial_block_source(self, grid_builds):
        from repro.core.streaming import iter_space_blocks

        blocks = list(iter_space_blocks(GROUPS, PARAMS, UNITS, max_block_rows=4096))
        assert len(blocks) == 3
        assert sorted(grid_builds) == sorted(g.spec.name for g in GROUPS)

    def test_executor_stream(self, grid_builds):
        blocks = list(
            iter_space_groups_chunked(
                GROUPS, PARAMS, UNITS, max_workers=1, backend="serial"
            )
        )
        assert len(blocks) == 3
        assert sorted(grid_builds) == sorted(g.spec.name for g in GROUPS)
