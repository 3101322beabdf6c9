"""Property: a warm-store rerun is bit-identical to the cold run.

The acceptance property of the artifact store: for any small scenario --
two or three node types, either space mode, varying axis sizes and
seeds -- running cold into a store and then rerunning from a fresh
context against the same store yields bit-identical frontier, region,
and count artifacts, with every stage loaded rather than computed.
Same for the invalidation path: after a hardware-spec edit, the
recomputed artifacts equal a from-scratch cold run's exactly.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RunContext, Scenario, run_scenario
from repro.engine.scenario import NodeGroup
from repro.hardware.catalog import ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.store import ArtifactStore
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

two_type_scenarios = st.builds(
    Scenario,
    workload=st.just("ep"),
    max_a=st.integers(1, 3),
    max_b=st.integers(1, 3),
    seed=st.integers(0, 3),
    stages=st.just(("frontier", "regions")),
)

three_type_scenarios = st.builds(
    Scenario,
    workload=st.just("ep"),
    node_types=st.tuples(
        st.builds(NodeGroup, st.just("arm-cortex-a9"), st.integers(1, 2)),
        st.builds(NodeGroup, st.just("amd-k10"), st.integers(1, 2)),
        st.builds(NodeGroup, st.just("intel-atom"), st.integers(1, 2)),
    ),
    seed=st.integers(0, 3),
    stages=st.just(("frontier", "regions")),
)


def _context(seed=0):
    ctx = RunContext(seed=seed)
    ctx.register_node(INTEL_ATOM)
    ctx.register_workload(with_atom(EP))
    return ctx


def _assert_bit_identical(cold, warm):
    np.testing.assert_array_equal(cold.frontier.times_s, warm.frontier.times_s)
    np.testing.assert_array_equal(
        cold.frontier.energies_j, warm.frontier.energies_j
    )
    np.testing.assert_array_equal(cold.frontier.indices, warm.frontier.indices)
    assert cold.regions.composition == warm.regions.composition
    assert cold.regions.has_sweet_region == warm.regions.has_sweet_region
    assert cold.regions.has_overlap_region == warm.regions.has_overlap_region
    for c, w in zip(cold.group_frontiers, warm.group_frontiers):
        if c is None:
            assert w is None
        else:
            np.testing.assert_array_equal(c.times_s, w.times_s)
            np.testing.assert_array_equal(c.energies_j, w.energies_j)


class TestWarmStoreBitIdentity:
    @given(scenario=two_type_scenarios)
    @settings(max_examples=8, deadline=None)
    def test_two_type_warm_equals_cold(self, tmp_path_factory, scenario):
        directory = tmp_path_factory.mktemp("prop") / "store"
        cold_ctx = _context(seed=0)
        with ArtifactStore(directory, memory=cold_ctx.cache) as store:
            cold = run_scenario(scenario, cold_ctx, store=store)
        warm_ctx = _context(seed=0)
        with ArtifactStore(directory, memory=warm_ctx.cache) as store:
            warm = run_scenario(scenario, warm_ctx, store=store)
        assert set(warm.stage_statuses.values()) == {"stored"}
        _assert_bit_identical(cold, warm)

    @given(scenario=three_type_scenarios)
    @settings(max_examples=5, deadline=None)
    def test_three_type_warm_equals_cold(self, tmp_path_factory, scenario):
        directory = tmp_path_factory.mktemp("prop") / "store"
        cold_ctx = _context(seed=0)
        with ArtifactStore(directory, memory=cold_ctx.cache) as store:
            cold = run_scenario(scenario, cold_ctx, store=store)
        warm_ctx = _context(seed=0)
        with ArtifactStore(directory, memory=warm_ctx.cache) as store:
            warm = run_scenario(scenario, warm_ctx, store=store)
        assert set(warm.stage_statuses.values()) == {"stored"}
        _assert_bit_identical(cold, warm)


class TestInvalidatedRerunBitIdentity:
    @given(
        scenario=two_type_scenarios,
        idle_factor=st.sampled_from([0.5, 1.25, 2.0]),
    )
    @settings(max_examples=5, deadline=None)
    def test_spec_edit_rerun_equals_fresh_cold_run(
        self, tmp_path_factory, scenario, idle_factor
    ):
        directory = tmp_path_factory.mktemp("prop") / "store"
        cold_ctx = _context(seed=0)
        with ArtifactStore(directory, memory=cold_ctx.cache) as store:
            run_scenario(scenario, cold_ctx, store=store)

        edited = dataclasses.replace(
            ARM_CORTEX_A9,
            power=dataclasses.replace(
                ARM_CORTEX_A9.power,
                idle_w=ARM_CORTEX_A9.power.idle_w * idle_factor,
            ),
        )
        # Path A: rerun against the store after the spec edit -- only the
        # invalidated cone recomputes.
        edit_ctx = _context(seed=0)
        edit_ctx.register_node(edited)
        with ArtifactStore(directory, memory=edit_ctx.cache) as store:
            partial = run_scenario(scenario, edit_ctx, store=store)
        assert partial.stage_statuses["space"] == "computed"

        # Path B: the same edited hardware from scratch, no store.
        fresh_ctx = _context(seed=0)
        fresh_ctx.register_node(edited)
        fresh = run_scenario(scenario, fresh_ctx)
        _assert_bit_identical(fresh, partial)
