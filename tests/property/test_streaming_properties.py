"""Streaming reducers must be invisible: bit-identical to materialized.

The streaming pipeline's whole contract is that folding memory-bounded
blocks through online reducers produces *exactly* the artifacts the
materialize-then-consume path produces -- same frontier points, same
original-point indices, same region labels, same top-k planner picks,
tie-for-tie on duplicate (time, energy) points.  These properties pin
that contract on random block splits (including the single-block edge
case) over two- and three-type spaces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space, evaluate_space_groups
from repro.core.pareto import ParetoFrontier, pareto_indices
from repro.core.planner import SLO, _candidate_items, plan_candidates
from repro.core.reduction import undominated_settings
from repro.core.regions import analyze_regions, regions_from_composition
from repro.core.streaming import (
    FrontierReducer,
    TopKReducer,
    block_row_bytes,
    count_space_rows,
    iter_space_blocks,
    max_rows_for_budget,
    plan_block_tasks,
    reduce_space_blocks,
    streaming_frontier,
)
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

PARAMS = {
    spec.name: ground_truth_params(spec, EP) for spec in (ARM_CORTEX_A9, AMD_K10)
}
EP3 = with_atom(EP)
PARAMS3 = {
    spec.name: ground_truth_params(spec, EP3)
    for spec in (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM)
}
UNITS = 1e6


def _two(max_a, max_b):
    return (GroupSpec(ARM_CORTEX_A9, max_a), GroupSpec(AMD_K10, max_b))


def _three(max_a, max_b, max_c):
    return (
        GroupSpec(ARM_CORTEX_A9, max_a),
        GroupSpec(AMD_K10, max_b),
        GroupSpec(INTEL_ATOM, max_c),
    )


def assert_frontiers_identical(left: ParetoFrontier, right: ParetoFrontier):
    np.testing.assert_array_equal(left.times_s, right.times_s)
    np.testing.assert_array_equal(left.energies_j, right.energies_j)
    np.testing.assert_array_equal(left.indices, right.indices)


class TestOnlineFrontier:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 200),
        n_cuts=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_matches_batch_on_duplicate_heavy_points(
        self, seed, n, n_cuts
    ):
        # Integer-valued coordinates force exact duplicate (t, e) points,
        # where "first occurrence wins" tie-breaking must survive any
        # split (n_cuts=0 is the single-block edge case).
        rng = np.random.default_rng(seed)
        t = rng.integers(1, 8, size=n).astype(float)
        e = rng.integers(1, 8, size=n).astype(float)
        batch = ParetoFrontier.from_points(t, e)
        bounds = sorted(
            {0, n, *(int(c) for c in rng.integers(0, n + 1, size=n_cuts))}
        )
        reducer = FrontierReducer()
        for a, b in zip(bounds, bounds[1:]):
            reducer.update(t[a:b], e[a:b], start_row=a)
        assert_frontiers_identical(batch, reducer.finish())

    @given(
        max_a=st.integers(1, 5),
        max_b=st.integers(1, 4),
        max_block_rows=st.integers(1, 5000),
    )
    @settings(max_examples=25, deadline=None)
    def test_streaming_frontier_matches_two_type_space(
        self, max_a, max_b, max_block_rows
    ):
        space = evaluate_space(ARM_CORTEX_A9, max_a, AMD_K10, max_b, PARAMS, UNITS)
        batch = ParetoFrontier.from_points(space.times_s, space.energies_j)
        reducer = FrontierReducer()
        for block in iter_space_blocks(
            _two(max_a, max_b), PARAMS, UNITS, max_block_rows=max_block_rows
        ):
            reducer.update(
                block.data.times_s, block.data.energies_j,
                start_row=block.start_row,
            )
        assert_frontiers_identical(batch, reducer.finish())


class TestBlockPlan:
    @given(
        max_a=st.integers(1, 5),
        max_b=st.integers(1, 4),
        max_c=st.integers(1, 3),
        max_block_rows=st.integers(1, 20000),
    )
    @settings(max_examples=25, deadline=None)
    def test_blocks_partition_rows_contiguously(
        self, max_a, max_b, max_c, max_block_rows
    ):
        groups = _three(max_a, max_b, max_c)
        total = count_space_rows(groups)
        next_row = 0
        for block in iter_space_blocks(
            groups, PARAMS3, UNITS, max_block_rows=max_block_rows
        ):
            assert block.start_row == next_row
            next_row = block.stop_row
        assert next_row == total

    @given(max_a=st.integers(1, 6), max_b=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_budget_bounds_block_rows_above_granularity_floor(
        self, max_a, max_b
    ):
        # The finest decomposition is one lead-count slice per block;
        # any row budget at or above that floor must be respected.
        groups = _two(max_a, max_b)
        floor = max(t.rows for t in plan_block_tasks(groups, 1))
        for budget in (floor, 2 * floor, count_space_rows(groups)):
            tasks = plan_block_tasks(groups, budget)
            assert sum(t.rows for t in tasks) == count_space_rows(groups)
            assert all(t.rows <= budget for t in tasks)

    def test_byte_budget_arithmetic(self):
        # max_rows_for_budget inverts block_row_bytes, never below 1 row.
        rows = max_rows_for_budget(1.0, num_groups=2)
        assert rows == (1 << 20) // block_row_bytes(2)
        assert max_rows_for_budget(1e-9, num_groups=4) == 1


class TestReducedArtifacts:
    @given(
        max_a=st.integers(1, 5),
        max_b=st.integers(1, 4),
        max_block_rows=st.integers(1, 5000),
    )
    @settings(max_examples=20, deadline=None)
    def test_two_type_reduction_matches_materialized(
        self, max_a, max_b, max_block_rows
    ):
        self._check_reduction(
            _two(max_a, max_b), PARAMS, max_block_rows, low_group=0
        )

    @given(
        max_a=st.integers(1, 3),
        max_b=st.integers(1, 3),
        max_c=st.integers(1, 2),
        max_block_rows=st.integers(1, 20000),
    )
    @settings(max_examples=12, deadline=None)
    def test_three_type_reduction_matches_materialized(
        self, max_a, max_b, max_c, max_block_rows
    ):
        self._check_reduction(
            _three(max_a, max_b, max_c), PARAMS3, max_block_rows, low_group=0
        )

    def _check_reduction(self, groups, params, max_block_rows, low_group):
        space = evaluate_space_groups(groups, params, UNITS)
        reduced = reduce_space_blocks(
            iter_space_blocks(
                groups, params, UNITS, max_block_rows=max_block_rows
            )
        )
        assert reduced.total_rows == len(space)

        frontier = ParetoFrontier.from_points(space.times_s, space.energies_j)
        assert_frontiers_identical(frontier, reduced.frontier)
        np.testing.assert_array_equal(
            reduced.frontier_n, space.n[:, frontier.indices]
        )

        for g in range(len(groups)):
            sub = space.subset(space.is_only(g))
            if len(sub) == 0:
                assert reduced.group_frontiers[g] is None
                continue
            assert_frontiers_identical(
                ParetoFrontier.from_points(sub.times_s, sub.energies_j),
                reduced.group_frontiers[g],
            )

        # Region labels: composition-driven analysis must agree label
        # for label with the materialized regions stage.
        materialized = analyze_regions(space, frontier)
        streamed = regions_from_composition(
            reduced.frontier, tuple(reduced.composition), reduced.num_groups
        )
        assert materialized.composition == streamed.composition
        for name in ("sweet", "overlap"):
            m, s = getattr(materialized, name), getattr(streamed, name)
            if m is None or s is None:
                assert m is s
                continue
            assert (m.start, m.stop) == (s.start, s.stop)
            np.testing.assert_array_equal(m.times_s, s.times_s)
            np.testing.assert_array_equal(m.energies_j, s.energies_j)


class TestPlannerTopK:
    @given(
        max_low=st.integers(1, 5),
        max_high=st.integers(1, 4),
        k=st.integers(1, 6),
        deadline_scale=st.floats(1.0, 30.0),
        utilization=st.sampled_from([0.0, 0.25, 0.5]),
        use_reduction=st.booleans(),
        max_block_rows=st.integers(1, 4000),
    )
    @settings(max_examples=20, deadline=None)
    def test_streaming_candidates_match_materialized(
        self,
        max_low,
        max_high,
        k,
        deadline_scale,
        utilization,
        use_reduction,
        max_block_rows,
    ):
        space = evaluate_space(
            ARM_CORTEX_A9, max_low, AMD_K10, max_high, PARAMS, UNITS
        )
        slo = SLO(
            deadline_s=float(space.times_s.min()) * deadline_scale,
            utilization=utilization,
        )
        kwargs = dict(
            k=k,
            max_low=max_low,
            max_high=max_high,
            use_reduction=use_reduction,
        )
        # The oracle ranks every row of the materialized space at once.
        settings = [None, None]
        if use_reduction:
            settings = [
                list(undominated_settings(spec, PARAMS[spec.name]).kept)
                for spec in (ARM_CORTEX_A9, AMD_K10)
            ]
        oracle_space = evaluate_space(
            ARM_CORTEX_A9, max_low, AMD_K10, max_high, PARAMS, UNITS,
            settings_a=settings[0], settings_b=settings[1],
        )
        topk = TopKReducer(k)
        topk.update(
            _candidate_items(
                oracle_space, 0, ARM_CORTEX_A9, AMD_K10, slo, None, None, 20.0
            )
        )
        materialized = [plan for _, plan in topk.finish()]
        budget_mb = (
            max_block_rows * block_row_bytes(2) / (1 << 20)
        )
        streamed = plan_candidates(
            ARM_CORTEX_A9, AMD_K10, PARAMS, UNITS, slo,
            memory_budget_mb=budget_mb, **kwargs
        )
        assert materialized == streamed
        assert plan_candidates(
            ARM_CORTEX_A9, AMD_K10, PARAMS, UNITS, slo, **kwargs
        ) == materialized


class TestStreamingFrontierHelper:
    @given(max_a=st.integers(1, 4), max_b=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_helper_equals_batch(self, max_a, max_b):
        space = evaluate_space(ARM_CORTEX_A9, max_a, AMD_K10, max_b, PARAMS, UNITS)
        assert_frontiers_identical(
            ParetoFrontier.from_points(space.times_s, space.energies_j),
            streaming_frontier(_two(max_a, max_b), PARAMS, UNITS),
        )
