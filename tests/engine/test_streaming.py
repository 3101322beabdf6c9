"""The streaming pipeline through the engine: scenarios, cache, spill.

Property tests pin the reducers themselves
(``tests/property/test_streaming_properties.py``); these tests pin the
engine threading: ``Scenario.space_mode`` runs end-to-end with
bit-identical artifacts, the executor's block iterator matches the
chunked evaluation, spill round-trips the full space, the mode stays out
of the cache identity, and the ``space.memory`` accounting events fire.
"""

import numpy as np
import pytest

from repro.core.streaming import load_spilled_space
from repro.engine import ResultCache, RunContext, Scenario, run_scenario
from repro.engine.executor import iter_space_groups_chunked
from repro.engine.scenario import NodeGroup
from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

PARAMS = {
    spec.name: ground_truth_params(spec, EP) for spec in (ARM_CORTEX_A9, AMD_K10)
}
UNITS = 1e6
GROUPS = (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 3))


def scenario_pair(**overrides):
    """(materialized, streaming) spellings of the same scenario."""
    base = dict(
        workload="ep",
        max_a=3,
        max_b=3,
        stages=("frontier", "regions", "queueing"),
        utilizations=(0.1, 0.5),
        name="modes",
    )
    base.update(overrides)
    return (
        Scenario(**base),
        Scenario(space_mode="streaming", memory_budget_mb=1.0, **base),
    )


def assert_frontiers_identical(left, right):
    np.testing.assert_array_equal(left.times_s, right.times_s)
    np.testing.assert_array_equal(left.energies_j, right.energies_j)
    np.testing.assert_array_equal(left.indices, right.indices)


class TestScenarioModes:
    def test_streaming_matches_materialized_end_to_end(self):
        materialized, streaming = scenario_pair()
        m = run_scenario(materialized, RunContext(seed=0))
        s = run_scenario(streaming, RunContext(seed=0))

        assert s.space is None and s.reduced is not None
        assert s.num_configurations == len(m.space)
        assert_frontiers_identical(m.frontier, s.frontier)
        assert_frontiers_identical(m.only_a_frontier, s.only_a_frontier)
        assert_frontiers_identical(m.only_b_frontier, s.only_b_frontier)
        assert m.regions.composition == s.regions.composition
        assert m.queueing == s.queueing
        assert s.summary()["space_mode"] == "streaming"
        assert s.summary()["configurations"] == len(m.space)

    def test_three_type_streaming(self):
        def fresh_ctx():
            ctx = RunContext(seed=0)
            ctx.register_node(INTEL_ATOM)
            ctx.register_workload(with_atom(EP))
            return ctx

        base = dict(
            workload="ep",
            node_types=(
                NodeGroup("arm-cortex-a9", 2),
                NodeGroup("amd-k10", 2),
                NodeGroup("intel-atom", 2),
            ),
            stages=("frontier", "regions", "queueing"),
            utilizations=(0.25,),
        )
        m = run_scenario(Scenario(**base), fresh_ctx())
        s = run_scenario(
            Scenario(space_mode="streaming", memory_budget_mb=0.5, **base),
            fresh_ctx(),
        )
        assert_frontiers_identical(m.frontier, s.frontier)
        assert m.regions.composition == s.regions.composition
        assert m.queueing == s.queueing

    def test_spill_round_trips_the_full_space(self, tmp_path):
        materialized, streaming = scenario_pair(stages=("frontier",))
        m = run_scenario(materialized, RunContext(seed=0))
        s = run_scenario(
            streaming, RunContext(seed=0), spill_dir=tmp_path / "spill"
        )
        assert s.space is not None  # spill hands the columns back
        for name in ("n", "cores", "f", "units", "times_s", "energies_j"):
            np.testing.assert_array_equal(
                getattr(m.space, name), getattr(s.space, name), err_msg=name
            )
        reopened = load_spilled_space(tmp_path / "spill")
        np.testing.assert_array_equal(m.space.times_s, reopened.times_s)
        np.testing.assert_array_equal(m.space.n, reopened.n)

    def test_space_mode_not_in_cache_identity(self):
        materialized, streaming = scenario_pair()
        assert materialized.cache_identity() == streaming.cache_identity()

    def test_invalid_mode_and_budget_rejected(self):
        with pytest.raises(ValueError, match="space_mode"):
            Scenario(workload="ep", max_a=2, max_b=2, space_mode="lazy")
        with pytest.raises(ValueError, match="memory budget"):
            Scenario(workload="ep", max_a=2, max_b=2, memory_budget_mb=0.0)

    def test_reduced_artifacts_are_cached(self):
        cache = ResultCache()
        ctx = RunContext(seed=0, cache=cache)
        _, streaming = scenario_pair()
        run_scenario(streaming, ctx)
        before = cache.stats.misses
        run_scenario(streaming, ctx)
        assert cache.stats.misses == before
        assert cache.stats.hits > 0


class TestMemoryAccounting:
    def test_nbytes_counts_all_columns(self):
        space = evaluate_space_groups(GROUPS, PARAMS, UNITS)
        per_row = 8 * (4 * space.num_groups + 2)
        assert space.nbytes == per_row * len(space)

    def test_space_memory_events_fire_in_both_modes(self):
        events = []

        def sink(event, payload):
            events.append((event, payload))

        materialized, streaming = scenario_pair(stages=("frontier",))
        run_scenario(materialized, RunContext(seed=0, sinks=(sink,)))
        modes = {
            p["mode"]: p for e, p in events if e == "space.memory"
        }
        assert modes["materialized"]["peak_estimate_nbytes"] > 0

        events.clear()
        run_scenario(streaming, RunContext(seed=0, sinks=(sink,)))
        modes = {p["mode"]: p for e, p in events if e == "space.memory"}
        streamed = modes["streaming"]
        assert streamed["budget_mb"] == 1.0
        # The point of streaming: the held block is far below the space.
        assert streamed["peak_estimate_nbytes"] < streamed["full_nbytes"]


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
