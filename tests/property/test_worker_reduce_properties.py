"""The block fold must be invisible: fold == merge == batch, bit for bit.

Every exhaustive streaming block is folded where it is evaluated: the
block task folds its block through a fresh
:class:`~repro.core.streaming.ReducerPass` and ships the pass's state,
which the coordinator merges in plan order.  Columns reach the
coordinator only for consumers that need them (the spill), which fold
through the same pass in-process.  The contract is exact equality of
both routes with the batch oracle -- ``ParetoFrontier.from_points`` over
the materialized space: same frontier points, same original-point
indices (tie-for-tie on duplicate points), same composition labels,
per-group frontiers, and queueing series.  These properties pin that
contract on random partitions of 2-, 3-, and 4-type spaces, plus merge
associativity and order determinism on synthetic duplicate-heavy Pareto
clouds, and the NaN-energy rule that keeps fold and batch in agreement.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.core.pareto import ParetoFrontier, pareto_indices
from repro.core.streaming import (
    FrontierReducer,
    ReducerPass,
    TopKReducer,
    fold_block_reduction,
    iter_space_blocks,
    reduce_space_blocks,
)
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.queueing.dispatcher import Figure10Reducer, figure10_series
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

# A fourth type: a second Atom bin sharing the Atom profile.
_ATOM2 = dataclasses.replace(INTEL_ATOM, name="intel-atom-d525")
_PROFILES4 = dict(EP3.profiles)
_PROFILES4[_ATOM2.name] = _PROFILES4[INTEL_ATOM.name]
EP4 = dataclasses.replace(EP3, profiles=_PROFILES4)
PARAMS4 = {
    spec.name: ground_truth_params(spec, EP4)
    for spec in (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM, _ATOM2)
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


def _four(max_a, max_b, max_c, max_d):
    return (
        GroupSpec(ARM_CORTEX_A9, max_a),
        GroupSpec(AMD_K10, max_b),
        GroupSpec(INTEL_ATOM, max_c),
        GroupSpec(_ATOM2, max_d),
    )


def _duplicate_cloud(seed, n):
    """Integer-valued (t, e) points: exact duplicates are the norm."""
    rng = np.random.default_rng(seed)
    t = rng.integers(1, 8, size=n).astype(float)
    e = rng.integers(1, 8, size=n).astype(float)
    return t, e


def _cuts(rng, n, n_cuts):
    """Contiguous partition bounds 0 = b0 <= ... <= bk = n."""
    return sorted({0, n, *(int(c) for c in rng.integers(0, n + 1, size=n_cuts))})


def _part_state(t, e, a, b):
    """One partition folded through a fresh worker-local reducer."""
    reducer = FrontierReducer()
    reducer.update(t[a:b], e[a:b], start_row=0)
    return reducer.state_dict()


def assert_frontiers_identical(left, right):
    np.testing.assert_array_equal(left.times_s, right.times_s)
    np.testing.assert_array_equal(left.energies_j, right.energies_j)
    np.testing.assert_array_equal(left.indices, right.indices)


def assert_reduced_identical(left, right):
    """Every artifact of two ReducedSpace instances, bit for bit."""
    assert left.nodes == right.nodes
    assert left.total_rows == right.total_rows
    assert left.num_blocks == right.num_blocks
    assert left.full_nbytes == right.full_nbytes
    assert left.peak_block_nbytes == right.peak_block_nbytes
    assert (left.frontier is None) == (right.frontier is None)
    if left.frontier is not None:
        assert_frontiers_identical(left.frontier, right.frontier)
        np.testing.assert_array_equal(left.frontier_n, right.frontier_n)
        assert left.composition == right.composition
    assert (left.group_frontiers is None) == (right.group_frontiers is None)
    if left.group_frontiers is not None:
        assert len(left.group_frontiers) == len(right.group_frontiers)
        for f1, f2 in zip(left.group_frontiers, right.group_frontiers):
            assert (f1 is None) == (f2 is None)
            if f1 is not None:
                assert_frontiers_identical(f1, f2)


class TestFrontierMergeAlgebra:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, seed, n):
        # (s1 * s2) * s3 == s1 * (s2 * s3) on a duplicate-heavy cloud,
        # where * merges the right state at the left state's row offset.
        rng = np.random.default_rng(seed)
        t, e = _duplicate_cloud(seed, n)
        a, b = sorted(int(c) for c in rng.integers(0, n + 1, size=2))
        s1 = _part_state(t, e, 0, a)
        s2 = _part_state(t, e, a, b)
        s3 = _part_state(t, e, b, n)

        left = FrontierReducer()
        left.load_state(s1)
        left.merge(s2, index_offset=a)
        left.merge(s3, index_offset=b)

        inner = FrontierReducer()
        inner.load_state(s2)
        inner.merge(s3, index_offset=b - a)
        right = FrontierReducer()
        right.load_state(s1)
        right.merge(inner.state_dict(), index_offset=a)

        batch = ParetoFrontier.from_points(t, e)
        for merged in (left, right):
            assert merged.rows_seen == n
            if n:
                assert_frontiers_identical(batch, merged.finish())

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 200),
        n_cuts=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partition_merges_to_the_batch_frontier(
        self, seed, n, n_cuts
    ):
        # Fold each contiguous partition locally (start_row=0, the
        # worker discipline), merge in order at the running offset:
        # bit-identical to the batch frontier, ties resolved first-wins.
        rng = np.random.default_rng(seed)
        t, e = _duplicate_cloud(seed, n)
        bounds = _cuts(rng, n, n_cuts)
        merged = FrontierReducer()
        for a, b in zip(bounds, bounds[1:]):
            merged.merge(_part_state(t, e, a, b), index_offset=a)
        assert_frontiers_identical(
            ParetoFrontier.from_points(t, e), merged.finish()
        )

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 100))
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_direct_update(self, seed, n):
        # Merging a worker state is bit-identical to update()-folding the
        # worker's rows directly -- extras included, dtype preserved.
        t, e = _duplicate_cloud(seed, n)
        counts = np.arange(n, dtype=np.int64) % 5
        half = n // 2

        direct = FrontierReducer(extra_names=("n0",))
        direct.update(t[:half], e[:half], start_row=0, extra={"n0": counts[:half]})
        direct.update(t[half:], e[half:], start_row=half, extra={"n0": counts[half:]})

        worker = FrontierReducer(extra_names=("n0",))
        worker.update(
            t[half:], e[half:], start_row=half, extra={"n0": counts[half:]}
        )
        via_merge = FrontierReducer(extra_names=("n0",))
        via_merge.update(t[:half], e[:half], start_row=0, extra={"n0": counts[:half]})
        via_merge.merge(worker.state_dict())

        assert_frontiers_identical(direct.finish(), via_merge.finish())
        np.testing.assert_array_equal(direct.extra("n0"), via_merge.extra("n0"))
        assert direct.extra("n0").dtype == via_merge.extra("n0").dtype
        assert direct.rows_seen == via_merge.rows_seen == n

    def test_merge_rejects_mismatched_extras(self):
        plain = FrontierReducer()
        with_extra = FrontierReducer(extra_names=("n0",))
        try:
            plain.merge(with_extra.state_dict())
        except ValueError as exc:
            assert "extras" in str(exc)
        else:
            raise AssertionError("mismatched extras must not merge")


class TestTopKMerge:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 60),
        k=st.integers(1, 8),
        n_cuts=st.integers(0, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_partitioned_merge_matches_single_fold(self, seed, n, k, n_cuts):
        rng = np.random.default_rng(seed)
        # Keys embed a unique index component, as planner callers do.
        items = [
            ((float(rng.integers(0, 5)), i), f"payload-{i}") for i in range(n)
        ]
        single = TopKReducer(k)
        single.update(items)
        bounds = _cuts(rng, n, n_cuts)
        merged = TopKReducer(k)
        for a, b in zip(bounds, bounds[1:]):
            part = TopKReducer(k)
            part.update(items[a:b])
            merged.merge(part.state_dict())
        assert single.finish() == merged.finish()

    def test_merge_rejects_k_mismatch(self):
        small = TopKReducer(2)
        big = TopKReducer(3)
        try:
            small.merge(big.state_dict())
        except ValueError as exc:
            assert "top-3" in str(exc) and "top-2" in str(exc)
        else:
            raise AssertionError("k mismatch must not merge")


def _batch_oracle(groups, params):
    """The reduced artifacts, computed in one batch over the whole space."""
    space = evaluate_space_groups(groups, params, UNITS)
    frontier = ParetoFrontier.from_points(space.times_s, space.energies_j)
    labels = []
    for i in frontier.indices:
        present = [g for g in range(space.num_groups) if space.n[g, i] > 0]
        labels.append(
            "hetero" if len(present) > 1 else f"only-{chr(ord('a') + present[0])}"
        )
    group_frontiers = []
    for g in range(space.num_groups):
        mask = space.is_only(g)
        group_frontiers.append(
            ParetoFrontier.from_points(
                space.times_s[mask], space.energies_j[mask]
            ) if mask.any() else None
        )
    return space, frontier, tuple(labels), tuple(group_frontiers)


def assert_reduced_matches_oracle(reduced, oracle):
    space, frontier, labels, group_frontiers = oracle
    assert reduced.nodes == space.nodes
    assert reduced.total_rows == len(space)
    assert reduced.full_nbytes == space.nbytes
    assert_frontiers_identical(frontier, reduced.frontier)
    np.testing.assert_array_equal(space.n[:, frontier.indices], reduced.frontier_n)
    assert reduced.composition == labels
    assert len(reduced.group_frontiers) == len(group_frontiers)
    for f1, f2 in zip(group_frontiers, reduced.group_frontiers):
        assert (f1 is None) == (f2 is None)
        if f1 is not None:
            assert_frontiers_identical(f1, f2)


class TestWorkerFoldEqualsCoordinatorFold:
    """Merged block-task folds and an in-process fold, each against the
    batch oracle."""

    @given(
        max_a=st.integers(1, 5),
        max_b=st.integers(1, 4),
        max_block_rows=st.integers(1, 5000),
    )
    @settings(max_examples=20, deadline=None)
    def test_two_type_space(self, max_a, max_b, max_block_rows):
        self._check(_two(max_a, max_b), PARAMS, max_block_rows)

    @given(
        max_a=st.integers(1, 3),
        max_b=st.integers(1, 3),
        max_c=st.integers(1, 2),
        max_block_rows=st.integers(1, 20000),
    )
    @settings(max_examples=12, deadline=None)
    def test_three_type_space(self, max_a, max_b, max_c, max_block_rows):
        self._check(_three(max_a, max_b, max_c), PARAMS3, max_block_rows)

    @given(
        max_a=st.integers(1, 2),
        max_b=st.integers(1, 2),
        max_c=st.integers(1, 2),
        max_d=st.integers(1, 2),
        max_block_rows=st.integers(1, 50000),
    )
    @settings(max_examples=8, deadline=None)
    def test_four_type_space(self, max_a, max_b, max_c, max_d, max_block_rows):
        self._check(
            _four(max_a, max_b, max_c, max_d), PARAMS4, max_block_rows
        )

    def _check(self, groups, params, max_block_rows):
        blocks = list(
            iter_space_blocks(groups, params, UNITS, max_block_rows=max_block_rows)
        )
        folded = reduce_space_blocks(iter(blocks))
        merged = reduce_space_blocks(fold_block_reduction(b) for b in blocks)
        oracle = _batch_oracle(groups, params)
        assert_reduced_matches_oracle(folded, oracle)
        assert_reduced_matches_oracle(merged, oracle)
        assert_reduced_identical(folded, merged)

    @given(
        max_a=st.integers(1, 4),
        max_b=st.integers(1, 3),
        max_block_rows=st.integers(1, 2000),
        cut_share=st.floats(0.0, 1.0),
        fold_first=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_snapshot_resumes_across_fold_and_merge(
        self, max_a, max_b, max_block_rows, cut_share, fold_first
    ):
        # A snapshot of folded blocks resumes by merging block-task
        # states, and the other way round: the state has one shape.
        groups = _two(max_a, max_b)
        blocks = list(
            iter_space_blocks(groups, PARAMS, UNITS, max_block_rows=max_block_rows)
        )
        cut = int(cut_share * len(blocks))
        first = ReducerPass()
        for block in blocks[:cut]:
            if fold_first:
                first.fold(block)
            else:
                first.merge(fold_block_reduction(block).state)
        resumed = ReducerPass()
        resumed.load_state(first.state_dict())
        for block in blocks[cut:]:
            if fold_first:
                resumed.merge(fold_block_reduction(block).state)
            else:
                resumed.fold(block)
        assert_reduced_matches_oracle(
            resumed.finish(), _batch_oracle(groups, PARAMS)
        )

    @given(max_a=st.integers(1, 4), max_b=st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_queueing_consumer_states_merge_identically(self, max_a, max_b):
        groups = _two(max_a, max_b)
        qkw = dict(
            idle_powers_w=(
                ARM_CORTEX_A9.idle_power_w, AMD_K10.idle_power_w
            ),
            utilizations=(0.05, 0.25),
            window_s=20.0,
        )
        via_merge = Figure10Reducer(**qkw)
        reduce_space_blocks(
            (
                fold_block_reduction(block, queueing=qkw)
                for block in iter_space_blocks(
                    groups, PARAMS, UNITS, max_block_rows=500
                )
            ),
            consumers=[via_merge],
        )
        batch = figure10_series(evaluate_space_groups(groups, PARAMS, UNITS), **qkw)
        merged = via_merge.finish()
        assert sorted(batch) == sorted(merged)
        for u in batch:
            assert batch[u] == merged[u]

    def test_out_of_order_reductions_are_rejected(self):
        blocks = list(
            iter_space_blocks(_two(2, 2), PARAMS, UNITS, max_block_rows=4)
        )
        assert len(blocks) >= 2
        reductions = [fold_block_reduction(b) for b in blocks]
        try:
            reduce_space_blocks(reversed(reductions))
        except ValueError as exc:
            assert "plan order" in str(exc)
        else:
            raise AssertionError("out-of-order merge must raise")


class TestNanEnergiesRejected:
    """A NaN energy has no frontier both the batch pass and a block-wise
    fold agree on, so every frontier builder raises on it."""

    TIMES = np.array([1.0, 2.0, 3.0, 4.0])
    ENERGIES = np.array([5.0, np.nan, 4.0, 3.0])

    def test_batch_and_fold_would_disagree(self):
        # The batch pass's running minimum carries the NaN forward; a
        # fold of [0:2] then [2:4] would keep rows 2 and 3.
        np.testing.assert_array_equal(
            pareto_indices(self.TIMES, self.ENERGIES), [0]
        )
        np.testing.assert_array_equal(
            pareto_indices(self.TIMES[2:], self.ENERGIES[2:]), [0, 1]
        )

    def test_from_points_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            ParetoFrontier.from_points(self.TIMES, self.ENERGIES)

    def test_update_raises(self):
        reducer = FrontierReducer()
        reducer.update(self.TIMES[:1], self.ENERGIES[:1])
        with pytest.raises(ValueError, match="NaN"):
            reducer.update(self.TIMES[1:], self.ENERGIES[1:])

    def test_merge_raises(self):
        state = FrontierReducer().state_dict()
        state.update(
            t=self.TIMES[1:2], e=self.ENERGIES[1:2],
            idx=np.array([1]), rows_seen=2,
        )
        reducer = FrontierReducer()
        reducer.update(self.TIMES[:1], self.ENERGIES[:1])
        with pytest.raises(ValueError, match="NaN"):
            reducer.merge(state)
