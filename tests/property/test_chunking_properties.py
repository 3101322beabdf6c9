"""Chunked space evaluation must be invisible: bit-identical, same order.

The engine's executor splits a configuration space into node-count
blocks sized by the memory budget, evaluates them independently, and
reassembles with ``_concat_results``.  These properties pin the
decomposition against the whole-space evaluation -- every array equal,
row for row -- and check that ``ConfigSpaceResult.subset`` keeps
``config(i)``/``point(i)`` consistent with the parent space.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import ConfigSpaceResult, _concat_results, evaluate_space
from repro.core.streaming import block_row_bytes
from repro.engine import executor
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.workloads.suite import EP

PARAMS = {
    spec.name: ground_truth_params(spec, EP) for spec in (ARM_CORTEX_A9, AMD_K10)
}
UNITS = 1e6


def assert_spaces_equal(left: ConfigSpaceResult, right: ConfigSpaceResult) -> None:
    assert left.node_a == right.node_a and left.node_b == right.node_b
    assert left.units_total == right.units_total
    for name in (
        "n_a", "cores_a", "f_a", "n_b", "cores_b", "f_b",
        "units_a", "units_b", "times_s", "energies_j",
    ):
        np.testing.assert_array_equal(
            getattr(left, name), getattr(right, name), err_msg=name
        )


def chunked(specs, block_rows: int) -> ConfigSpaceResult:
    """The executor's chunked path in blocks of about ``block_rows`` rows.

    The memory budget is the only block-size input, so it is derived
    from the row target; the small-space shortcut is turned off so these
    small spaces take the chunked path, which must plan several blocks.
    """
    budget_mb = block_rows * block_row_bytes(len(specs)) / 2**20
    plan = executor.space_block_plan(
        specs, max_workers=1, memory_budget_mb=budget_mb
    )
    assume(len(plan) > 1)
    with mock.patch.object(executor, "PARALLEL_THRESHOLD_ROWS", 0):
        return executor.evaluate_space_groups_chunked(
            specs, PARAMS, UNITS, max_workers=1, memory_budget_mb=budget_mb
        )


class TestChunkedEqualsWhole:
    @given(
        max_a=st.integers(1, 6),
        max_b=st.integers(1, 5),
        block_rows=st.integers(1, 400),
    )
    @settings(max_examples=30, deadline=None)
    def test_chunked_matches_whole_space(self, max_a, max_b, block_rows):
        whole = evaluate_space(ARM_CORTEX_A9, max_a, AMD_K10, max_b, PARAMS, UNITS)
        specs = (GroupSpec(ARM_CORTEX_A9, max_a), GroupSpec(AMD_K10, max_b))
        assert_spaces_equal(whole, chunked(specs, block_rows))

    @given(
        counts_a=st.sets(st.integers(0, 6), min_size=1, max_size=4),
        counts_b=st.sets(st.integers(0, 5), min_size=1, max_size=4),
        block_rows=st.integers(1, 200),
    )
    @settings(max_examples=30, deadline=None)
    def test_chunked_matches_on_pinned_counts(self, counts_a, counts_b, block_rows):
        counts_a, counts_b = sorted(counts_a), sorted(counts_b)
        if counts_a == [0] and counts_b == [0]:
            return  # empty space: both paths raise
        whole = evaluate_space(
            ARM_CORTEX_A9, 6, AMD_K10, 5, PARAMS, UNITS,
            counts_a=counts_a, counts_b=counts_b,
        )
        specs = (
            GroupSpec(ARM_CORTEX_A9, 6, counts=counts_a),
            GroupSpec(AMD_K10, 5, counts=counts_b),
        )
        assert_spaces_equal(whole, chunked(specs, block_rows))

    @given(max_a=st.integers(2, 6), max_b=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_manual_blockwise_concat_matches(self, max_a, max_b):
        # Hand-rolled decomposition in evaluate_space's documented row
        # order: hetero rows partitioned per n_a, then a-only, then b-only.
        whole = evaluate_space(ARM_CORTEX_A9, max_a, AMD_K10, max_b, PARAMS, UNITS)
        blocks = []
        for n in range(1, max_a + 1):
            blocks.append(
                evaluate_space(
                    ARM_CORTEX_A9, max_a, AMD_K10, max_b, PARAMS, UNITS,
                    counts_a=[n], counts_b=list(range(1, max_b + 1)),
                )
            )
        blocks.append(
            evaluate_space(
                ARM_CORTEX_A9, max_a, AMD_K10, max_b, PARAMS, UNITS,
                counts_a=list(range(1, max_a + 1)), counts_b=[0],
            )
        )
        blocks.append(
            evaluate_space(
                ARM_CORTEX_A9, max_a, AMD_K10, max_b, PARAMS, UNITS,
                counts_a=[0], counts_b=list(range(1, max_b + 1)),
            )
        )
        assert_spaces_equal(whole, _concat_results(blocks))


class TestSubsetConsistency:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_subset_preserves_rows(self, seed):
        space = evaluate_space(ARM_CORTEX_A9, 3, AMD_K10, 3, PARAMS, UNITS)
        rng = np.random.default_rng(seed)
        mask = rng.random(len(space)) < 0.3
        subset = space.subset(mask)
        originals = np.flatnonzero(mask)
        assert len(subset) == originals.size
        assert subset.units_total == space.units_total
        for i, j in enumerate(originals):
            assert subset.config(i) == space.config(int(j))
            left, right = subset.point(i), space.point(int(j))
            assert left.config == right.config
            assert left.time_s == right.time_s
            assert left.energy_j == right.energy_j
            assert left.units_a == right.units_a
            assert left.units_b == right.units_b

    def test_homogeneous_masks_partition_the_space(self):
        space = evaluate_space(ARM_CORTEX_A9, 3, AMD_K10, 3, PARAMS, UNITS)
        het = space.subset(space.is_heterogeneous)
        only_a = space.subset(space.is_only_a)
        only_b = space.subset(space.is_only_b)
        assert len(het) + len(only_a) + len(only_b) == len(space)
        assert (only_a.n_b == 0).all() and (only_a.n_a > 0).all()
        assert (only_b.n_a == 0).all() and (only_b.n_b > 0).all()
