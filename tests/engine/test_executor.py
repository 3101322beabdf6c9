"""Executor: chunk decomposition, pooled execution, serial fallbacks."""

import numpy as np

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec, presence_masks
from repro.core.evaluate import evaluate_space
from repro.core.streaming import count_space_rows, max_rows_for_budget
from repro.engine.executor import (
    MIN_ADAPTIVE_BLOCK_ROWS,
    OVERSUBSCRIPTION,
    PARALLEL_THRESHOLD_ROWS,
    _chunk,
    _estimate_rows,
    default_max_workers,
    evaluate_space_chunked,
    parallel_map,
    space_block_plan,
)
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.workloads.suite import EP

PARAMS = {
    spec.name: ground_truth_params(spec, EP) for spec in (ARM_CORTEX_A9, AMD_K10)
}


def _double(x: float) -> float:  # top-level so process pools can pickle it
    return 2.0 * x


class TestChunkHelper:
    def test_preserves_order_and_content(self):
        values = np.array([1, 2, 3, 4, 5])
        parts = _chunk(values, 2)
        np.testing.assert_array_equal(np.concatenate(parts), values)

    def test_never_more_chunks_than_values(self):
        assert len(_chunk(np.array([1, 2]), 10)) == 2

    def test_at_least_one_chunk(self):
        assert len(_chunk(np.array([7]), 0)) == 1


class TestChunkedEvaluation:
    def test_pooled_run_matches_whole_space(self):
        whole = evaluate_space(ARM_CORTEX_A9, 6, AMD_K10, 4, PARAMS, 1e6)
        pooled = evaluate_space_chunked(
            ARM_CORTEX_A9, 6, AMD_K10, 4, PARAMS, 1e6, max_workers=4, n_chunks=4
        )
        np.testing.assert_array_equal(whole.times_s, pooled.times_s)
        np.testing.assert_array_equal(whole.energies_j, pooled.energies_j)
        np.testing.assert_array_equal(whole.n_a, pooled.n_a)
        np.testing.assert_array_equal(whole.n_b, pooled.n_b)

    def test_small_space_takes_direct_path(self):
        # The full paper space is ~36k rows, far below the pooling
        # threshold: without an explicit chunk count the direct path runs.
        group_specs = (GroupSpec(ARM_CORTEX_A9, 10), GroupSpec(AMD_K10, 10))
        pos = [np.arange(1, 11), np.arange(1, 11)]
        masks = list(presence_masks(group_specs))
        assert _estimate_rows(group_specs, pos, masks) < PARALLEL_THRESHOLD_ROWS
        result = evaluate_space_chunked(ARM_CORTEX_A9, 3, AMD_K10, 3, PARAMS, 1e6)
        direct = evaluate_space(ARM_CORTEX_A9, 3, AMD_K10, 3, PARAMS, 1e6)
        np.testing.assert_array_equal(result.times_s, direct.times_s)

    def test_single_type_space(self):
        only_a = evaluate_space_chunked(
            ARM_CORTEX_A9, 5, AMD_K10, 5, PARAMS, 1e6,
            counts_b=[0], max_workers=1, n_chunks=3,
        )
        direct = evaluate_space(
            ARM_CORTEX_A9, 5, AMD_K10, 5, PARAMS, 1e6, counts_b=[0]
        )
        np.testing.assert_array_equal(only_a.times_s, direct.times_s)
        assert (only_a.n_b == 0).all()


class TestAdaptiveBlockPlan:
    GROUPS = (GroupSpec(ARM_CORTEX_A9, 12), GroupSpec(AMD_K10, 12))

    def test_single_worker_plan_is_budget_only(self):
        # workers <= 1 skips the oversubscription math entirely: the
        # plan is the historical budget-sized serial plan, bit for bit.
        from repro.core.streaming import plan_block_tasks

        plan = space_block_plan(
            self.GROUPS, max_workers=1, memory_budget_mb=0.25,
            backend="serial",
        )
        budget_rows = max_rows_for_budget(0.25, len(self.GROUPS), 1)
        historical = plan_block_tasks(self.GROUPS, budget_rows, min_chunks=1)
        assert [(t.counts, t.rows) for t in plan] == [
            (t.counts, t.rows) for t in historical
        ]
        assert sum(t.rows for t in plan) == count_space_rows(self.GROUPS)

    def test_multi_worker_plan_oversubscribes(self):
        workers = 4
        total = count_space_rows(self.GROUPS)
        plan = space_block_plan(
            self.GROUPS, max_workers=workers, backend="serial"
        )
        # At least one block per worker, and block rows near the
        # oversubscription target (floored so blocks stay coarse enough
        # to amortize dispatch).
        assert len(plan) >= workers
        target = max(
            MIN_ADAPTIVE_BLOCK_ROWS, -(-total // (workers * OVERSUBSCRIPTION))
        )
        assert all(t.rows <= target for t in plan)
        assert sum(t.rows for t in plan) == total

    def test_budget_caps_the_adaptive_target(self):
        # A tight budget wins over the oversubscription target: the
        # adaptive plan is exactly the budget-rows plan (modulo the
        # planner's one-slice granularity floor, which both share).
        from repro.core.streaming import plan_block_tasks

        plan = space_block_plan(
            self.GROUPS, max_workers=4, memory_budget_mb=0.25,
            backend="serial",
        )
        budget_rows = max_rows_for_budget(0.25, len(self.GROUPS), 5)
        capped = plan_block_tasks(self.GROUPS, budget_rows, min_chunks=4)
        assert [(t.counts, t.rows) for t in plan] == [
            (t.counts, t.rows) for t in capped
        ]

    def test_small_budget_splits_the_plan(self):
        # The memory budget alone sizes the blocks: a small one splits
        # the space into many blocks.
        plan = space_block_plan(
            self.GROUPS, max_workers=4, memory_budget_mb=0.05,
            backend="serial",
        )
        assert len(plan) > 1
        assert sum(t.rows for t in plan) == count_space_rows(self.GROUPS)
        # A larger budget gives fewer, larger blocks over the same rows.
        roomy = space_block_plan(
            self.GROUPS, max_workers=4, memory_budget_mb=64.0,
            backend="serial",
        )
        assert len(roomy) < len(plan)
        assert sum(t.rows for t in roomy) == count_space_rows(self.GROUPS)


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_double, items, max_workers=4) == [2.0 * i for i in items]

    def test_serial_path_matches(self):
        items = [3.0, 1.0, 2.0]
        assert parallel_map(_double, items, max_workers=1) == [6.0, 2.0, 4.0]

    def test_empty_and_singleton(self):
        assert parallel_map(_double, [], max_workers=4) == []
        assert parallel_map(_double, [5.0], max_workers=4) == [10.0]

    def test_default_worker_count_sane(self):
        assert 1 <= default_max_workers() <= 8
