"""RunContext: cached stages, RNG discipline, registries, sinks.

Includes the engine's acceptance test: running one scenario twice on one
context performs calibration and space evaluation *exactly once*,
verified by counting calls into the underlying core functions.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import repro.core.calibration as calibration_mod
import repro.core.evaluate as evaluate_mod
import repro.engine.executor as executor_mod
from repro.engine import RunContext, Scenario, run_scenario
from repro.engine.hashing import stable_hash
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.util.rng import RngStream
from repro.workloads.suite import EP, MEMCACHED


class TestCallCounting:
    """Same scenario twice => each expensive stage runs exactly once."""

    def test_scenario_rerun_is_pure_cache_hit(self, monkeypatch):
        calibrate_calls, stream_calls, space_calls = [], [], []
        real_calibrate = calibration_mod.calibrate_node
        real_stream = executor_mod.iter_space_groups_chunked
        real_space = evaluate_mod.evaluate_space_groups

        def counting_calibrate(*args, **kwargs):
            calibrate_calls.append(args[0].name)
            return real_calibrate(*args, **kwargs)

        def counting_stream(*args, **kwargs):
            stream_calls.append(1)
            return real_stream(*args, **kwargs)

        def counting_space(*args, **kwargs):
            space_calls.append(1)
            return real_space(*args, **kwargs)

        monkeypatch.setattr(calibration_mod, "calibrate_node", counting_calibrate)
        monkeypatch.setattr(executor_mod, "iter_space_groups_chunked", counting_stream)
        monkeypatch.setattr(evaluate_mod, "evaluate_space_groups", counting_space)

        scenario = Scenario(
            workload="ep", max_a=2, max_b=2, calibrated=True, stages=("frontier",)
        )
        ctx = RunContext(seed=0)
        first = run_scenario(scenario, ctx)
        second = run_scenario(scenario, ctx)

        # One calibration per node type, one streamed pass -- total.
        assert sorted(calibrate_calls) == ["amd-k10", "arm-cortex-a9"]
        assert len(stream_calls) == 1
        assert second.reduced is first.reduced
        # The whole space is evaluated once, on first read, and shared.
        before = len(space_calls)
        assert second.space is first.space
        assert len(space_calls) == before + 1
        np.testing.assert_array_equal(first.space.times_s, second.space.times_s)

    def test_ground_truth_params_computed_once(self, monkeypatch):
        calls = []
        real = calibration_mod.ground_truth_params

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(calibration_mod, "ground_truth_params", counting)
        ctx = RunContext()
        a = ctx.params(ARM_CORTEX_A9, EP)
        b = ctx.params(ARM_CORTEX_A9, EP)
        assert a is b
        assert len(calls) == 1

    def test_distinct_workloads_do_not_collide(self):
        ctx = RunContext()
        assert ctx.params(ARM_CORTEX_A9, EP) != ctx.params(ARM_CORTEX_A9, MEMCACHED)
        assert ctx.cache.stats.misses == 2


class TestRngDiscipline:
    def test_params_reproduces_reporting_derivation(self):
        """Engine-routed calibration must equal the pre-engine convention."""
        ctx = RunContext(seed=0)
        via_engine = ctx.params(ARM_CORTEX_A9, EP, calibrated=True, seed=0)
        direct = calibration_mod.calibrate_node(
            ARM_CORTEX_A9,
            EP,
            seed=RngStream(0).child("params-arm-cortex-a9", 0).rng,
        )
        assert stable_hash(via_engine) == stable_hash(direct)

    def test_params_for_indexes_children(self):
        ctx = RunContext(seed=0)
        both = ctx.params_for((ARM_CORTEX_A9, AMD_K10), EP, calibrated=True)
        direct_b = calibration_mod.calibrate_node(
            AMD_K10, EP, seed=RngStream(0).child("params-amd-k10", 1).rng
        )
        assert stable_hash(both["amd-k10"]) == stable_hash(direct_b)

    def test_generator_seed_bypasses_cache(self):
        ctx = RunContext()
        rng = np.random.default_rng(0)
        ctx.params(ARM_CORTEX_A9, EP, calibrated=True, seed=rng)
        assert len(ctx.cache) == 0  # stateful seeds are not content-addressable


class TestRegistriesAndSinks:
    def test_catalog_resolution(self):
        ctx = RunContext()
        assert ctx.resolve_node("amd-k10") is AMD_K10
        assert ctx.resolve_workload("ep").name == "ep"

    def test_registered_extras_shadow_catalog(self):
        ctx = RunContext()
        atom = dataclasses.replace(ARM_CORTEX_A9, name="intel-atom-ish")
        ctx.register_node(atom)
        assert ctx.resolve_node("intel-atom-ish") is atom
        with pytest.raises(KeyError):
            ctx.resolve_node("not-a-node")

    def test_extras_are_per_context(self):
        ctx = RunContext()
        ctx.register_node(dataclasses.replace(ARM_CORTEX_A9, name="mine"))
        with pytest.raises(KeyError):
            RunContext().resolve_node("mine")

    def test_sinks_see_space_evaluation_once(self):
        events = []
        ctx = RunContext(sinks=(lambda event, payload: events.append(event),))
        params = {
            n.name: ctx.params(n, EP) for n in (ARM_CORTEX_A9, AMD_K10)
        }
        ctx.space(ARM_CORTEX_A9, 2, AMD_K10, 2, params, 1e6)
        ctx.space(ARM_CORTEX_A9, 2, AMD_K10, 2, params, 1e6)  # cache hit: silent
        assert events.count("space.evaluated") == 1


class TestRefcountRelease:
    """A finished run is freed by reference counting alone: no
    context <-> cache cycle keeps its artifacts alive until a GC pass."""

    @pytest.mark.parametrize(
        "extra",
        [
            {"stages": ("frontier", "regions", "queueing")},
            {"stages": ("frontier",), "memory_budget_mb": 0.01},
            {"stages": ("frontier",),
             "search": {"strategy": "ga", "budget_rows": 200}},
        ],
    )
    def test_dropped_context_and_result_are_freed_without_gc(self, extra):
        gc.collect()
        gc.disable()
        try:
            events = []
            ctx = RunContext(
                max_workers=1,
                sinks=(lambda event, payload: events.append(event),),
            )
            result = run_scenario(
                Scenario(workload="ep", max_a=2, max_b=2, **extra), ctx
            )
            # The weak callback still reaches the context's sinks.
            ctx.cache.on_event("cache.quarantined", key="k", reason="probe")
            assert "cache.quarantined" in events
            refs = [weakref.ref(obj) for obj in (
                ctx, ctx.cache, result, result.frontier,
                result.space if result.space is not None else result.frontier,
            )]
            del ctx, result
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_shared_cache_outliving_its_context_stays_usable(self):
        ctx = RunContext()
        cache = ctx.cache
        del ctx
        cache.on_event("cache.quarantined", key="k", reason="r")  # no-op
        assert RunContext(cache=cache).cache is cache
