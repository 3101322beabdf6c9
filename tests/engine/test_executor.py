"""Executor: chunk decomposition, pooled execution, serial fallbacks."""

import numpy as np
import pytest

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space
from repro.core.streaming import count_space_rows, max_rows_for_budget
from repro.engine import executor
from repro.engine.executor import (
    MIN_ADAPTIVE_BLOCK_ROWS,
    OVERSUBSCRIPTION,
    PARALLEL_THRESHOLD_ROWS,
    default_max_workers,
    evaluate_space_groups_chunked,
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


class TestChunkedEvaluation:
    @pytest.fixture
    def small_spaces_chunk(self, monkeypatch):
        """Turn off the small-space shortcut, so these small spaces run
        the chunked path the memory budget plans."""
        monkeypatch.setattr(executor, "PARALLEL_THRESHOLD_ROWS", 0)

    def test_pooled_run_matches_whole_space(self, small_spaces_chunk):
        specs = (GroupSpec(ARM_CORTEX_A9, 6), GroupSpec(AMD_K10, 4))
        assert len(space_block_plan(
            specs, max_workers=4, memory_budget_mb=0.05
        )) > 1
        whole = evaluate_space(ARM_CORTEX_A9, 6, AMD_K10, 4, PARAMS, 1e6)
        pooled = evaluate_space_groups_chunked(
            specs, PARAMS, 1e6, max_workers=4, memory_budget_mb=0.05
        )
        np.testing.assert_array_equal(whole.times_s, pooled.times_s)
        np.testing.assert_array_equal(whole.energies_j, pooled.energies_j)
        np.testing.assert_array_equal(whole.n_a, pooled.n_a)
        np.testing.assert_array_equal(whole.n_b, pooled.n_b)

    def test_small_space_takes_direct_path(self):
        # The full paper space is ~36k rows, far below the pooling
        # threshold: the direct path runs whatever the budget.
        paper = (GroupSpec(ARM_CORTEX_A9, 10), GroupSpec(AMD_K10, 10))
        assert count_space_rows(paper) < PARALLEL_THRESHOLD_ROWS
        specs = (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 3))
        result = evaluate_space_groups_chunked(specs, PARAMS, 1e6)
        direct = evaluate_space(ARM_CORTEX_A9, 3, AMD_K10, 3, PARAMS, 1e6)
        np.testing.assert_array_equal(result.times_s, direct.times_s)

    def test_single_type_space(self, small_spaces_chunk):
        specs = (GroupSpec(ARM_CORTEX_A9, 5), GroupSpec(AMD_K10, 5, counts=[0]))
        assert len(space_block_plan(
            specs, max_workers=1, memory_budget_mb=0.01
        )) > 1
        only_a = evaluate_space_groups_chunked(
            specs, PARAMS, 1e6, max_workers=1, memory_budget_mb=0.01
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


class TestSmallSpaceRule:
    """A streamed space below ``PARALLEL_THRESHOLD_ROWS`` rows plans one
    in-process worker, unless the caller names a worker count or a
    backend -- in the plan and in execution alike."""

    SMALL = (GroupSpec(ARM_CORTEX_A9, 6), GroupSpec(AMD_K10, 6))

    @staticmethod
    def _shape(plan):
        return [(t.counts, t.rows) for t in plan]

    def test_small_space_plans_one_in_process_worker(self):
        assert count_space_rows(self.SMALL) < PARALLEL_THRESHOLD_ROWS
        backend, workers = executor._stream_backend(
            self.SMALL, None, None, None
        )
        assert (backend.name, workers) == ("serial", 1)
        assert self._shape(
            space_block_plan(self.SMALL, memory_budget_mb=0.25)
        ) == self._shape(
            space_block_plan(
                self.SMALL, max_workers=1, memory_budget_mb=0.25,
                backend="serial",
            )
        )

    def test_named_worker_count_or_backend_keeps_its_pool(self):
        _, workers = executor._stream_backend(self.SMALL, 2, None, None)
        assert workers == 2
        assert len(space_block_plan(self.SMALL, max_workers=2)) >= 2
        backend, workers = executor._stream_backend(
            self.SMALL, None, "process_pool", {"workers": 2}
        )
        assert (backend.name, workers) == ("process_pool", 2)

    def test_large_space_keeps_the_default_backend(self, monkeypatch):
        from repro.engine.backends import resolve_backend

        monkeypatch.setattr(executor, "PARALLEL_THRESHOLD_ROWS", 0)
        backend, workers = executor._stream_backend(
            self.SMALL, None, None, None
        )
        default = resolve_backend()
        assert (backend.name, workers) == (default.name, default.parallelism)


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
