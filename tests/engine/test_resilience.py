"""The fault-tolerance layer, exercised by deterministic fault injection.

Every failure mode the resilience machinery claims to survive is staged
here via :class:`~repro.engine.faults.FaultPlan`: worker crashes (clean
raises and hard ``os._exit`` kills), injected latency against per-task
timeouts, on-disk cache corruption, torn checkpoints, and mid-stream
reducer aborts.  The invariant under test throughout: a recovered run is
*bit-identical* to a fault-free one, because every task is a pure
function of its arguments and blocks fold in plan order.
"""

import json
import multiprocessing
import os
import pickle
import select
import struct
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.engine.cache import ResultCache
from repro.engine.checkpoint import CHECKPOINT_MAGIC, CheckpointManager
from repro.engine.context import RunContext
from repro.engine.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TaskTimeout,
    WorkerCrash,
    normalize_injector,
)
from repro.engine.resilience import (
    ResiliencePolicy,
    iter_tasks_resilient,
    run_tasks_resilient,
    terminate_pool,
)
from repro.engine.runner import run_scenario
from repro.engine.scenario import Scenario

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

#: Fast-failing policy shared by most tests: no backoff sleeps.
FAST = ResiliencePolicy(backoff_base_s=0.0)


def _square(x):
    return x * x


def _bad_value(x):
    raise ValueError(f"genuine bug on {x}")


def _send_partial_result(result_fd, ready_fd):
    """Die mid-send: a result frame header promising more bytes than
    follow on the pool's result pipe, then hang until terminated."""
    os.write(result_fd, struct.pack("!i", 1000) + b"partial")
    os.write(ready_fd, b"x")
    time.sleep(60)


def _events_sink(events):
    def sink(event, **payload):
        events.append((event, payload))

    return sink


def _collect(events):
    return [name for name, _ in events]


def streaming_scenario(**overrides):
    base = dict(
        workload="ep",
        max_a=6,
        max_b=6,
        stages=("frontier", "regions", "queueing"),
        utilizations=(0.25,),
        memory_budget_mb=0.25,
        name="resilience",
    )
    base.update(overrides)
    return Scenario(**base)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultSpec(kind="crash", task=2, times=1),
                FaultSpec(kind="kill", task=4),
                FaultSpec(kind="delay", task=1, delay_s=0.5, times=2),
                FaultSpec(kind="corrupt_cache", key_substring="space"),
                FaultSpec(kind="fold_error", task=3),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_file(self, tmp_path):
        plan = FaultPlan(faults=(FaultSpec(kind="crash", task=0),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", task=0)

    @pytest.mark.parametrize("kind", ["worker_vanish", "net_delay"])
    def test_retired_remote_kinds_rejected_at_load(self, kind, tmp_path):
        # The kinds only a remote worker realized are gone with it; a
        # plan naming one fails at load, not mid-run.
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 0, "faults": [{"kind": kind, "task": 1, "delay_s": 0.3}]}
        ))
        with pytest.raises(ValueError, match=f"unknown fault kind '{kind}'"):
            FaultPlan.from_file(path)

    def test_task_faults_need_coordinates(self):
        with pytest.raises(ValueError, match="task index"):
            FaultSpec(kind="crash")
        with pytest.raises(ValueError, match="key_substring"):
            FaultSpec(kind="corrupt_cache")
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(kind="delay", task=0)

    def test_injector_is_picklable(self):
        injector = normalize_injector(
            FaultPlan(faults=(FaultSpec(kind="crash", task=1),))
        )
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.crash_mode(1, 0) == "crash"
        assert clone.crash_mode(1, 1) is None
        assert clone.crash_mode(0, 0) is None


class TestPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = ResiliencePolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3,
            jitter=0.5, seed=3,
        )
        first = policy.backoff_s(task=4, attempt=2)
        assert first == policy.backoff_s(task=4, attempt=2)
        assert 0.2 <= first <= 0.3 * 1.5
        # The cap applies before jitter.
        assert policy.backoff_s(4, 10) <= 0.3 * 1.5
        # Different tasks draw different jitter from the seed tree.
        assert policy.backoff_s(4, 2) != policy.backoff_s(5, 2)

    def test_dict_round_trip(self):
        policy = ResiliencePolicy(max_task_retries=5, task_timeout_s=1.5)
        assert ResiliencePolicy.from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_task_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(task_timeout_s=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(jitter=2.0)

    @pytest.mark.parametrize(
        "field",
        ["task_timeout_s", "backoff_base_s", "backoff_factor", "backoff_max_s"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1"])
    def test_non_finite_seconds_rejected(self, field, value):
        # NaN passes every ``<= 0`` guard: a NaN timeout once made each
        # pooled task "exceed nan" on every attempt.
        with pytest.raises(ValueError, match="finite number"):
            ResiliencePolicy(**{field: value})


class TestSerialRecovery:
    def test_crash_is_retried(self):
        events = []
        injector = normalize_injector(
            FaultPlan(faults=(FaultSpec(kind="crash", task=1, times=1),))
        )
        results = run_tasks_resilient(
            _square, [(i,) for i in range(4)], max_workers=1,
            policy=FAST, injector=injector, emit=_events_sink(events),
        )
        assert results == [0, 1, 4, 9]
        assert "resilience.retry" in _collect(events)

    def test_exhausted_retries_raise_worker_crash(self):
        injector = normalize_injector(
            FaultPlan(faults=(FaultSpec(kind="crash", task=2, times=9),))
        )
        with pytest.raises(WorkerCrash):
            run_tasks_resilient(
                _square, [(i,) for i in range(4)], max_workers=1,
                policy=ResiliencePolicy(max_task_retries=1, backoff_base_s=0.0),
                injector=injector,
            )

    def test_kill_degrades_to_crash_outside_workers(self):
        # A 'kill' fault in serial execution must not take the test
        # process down: it degrades to a clean WorkerCrash and retries.
        injector = normalize_injector(
            FaultPlan(faults=(FaultSpec(kind="kill", task=0, times=1),))
        )
        results = run_tasks_resilient(
            _square, [(i,) for i in range(3)], max_workers=1,
            policy=FAST, injector=injector,
        )
        assert results == [0, 1, 4]

    def test_programming_errors_propagate_immediately(self):
        with pytest.raises(ValueError, match="genuine bug"):
            run_tasks_resilient(
                _bad_value, [(0,)], max_workers=1,
                policy=ResiliencePolicy(max_task_retries=5, backoff_base_s=0.0),
            )

    def test_start_index_skips_prefix(self):
        got = list(
            iter_tasks_resilient(
                _square, [(i,) for i in range(5)], max_workers=1,
                policy=FAST, start_index=3,
            )
        )
        assert got == [(3, 9), (4, 16)]


class TestPooledRecovery:
    def test_crash_retried_in_pool(self):
        events = []
        injector = normalize_injector(
            FaultPlan(faults=(FaultSpec(kind="crash", task=3, times=1),))
        )
        results = run_tasks_resilient(
            _square, [(i,) for i in range(8)], max_workers=2,
            policy=FAST, injector=injector, emit=_events_sink(events),
        )
        assert results == [i * i for i in range(8)]

    def test_killed_worker_replaces_pool_bit_identical(self):
        events = []
        injector = normalize_injector(
            FaultPlan(faults=(FaultSpec(kind="kill", task=2, times=1),))
        )
        results = run_tasks_resilient(
            _square, [(i,) for i in range(8)], max_workers=2,
            policy=FAST, injector=injector, emit=_events_sink(events),
        )
        assert results == [i * i for i in range(8)]
        assert "resilience.pool_replaced" in _collect(events)

    def test_degrades_to_serial_after_pool_budget(self):
        events = []
        injector = normalize_injector(
            FaultPlan(faults=(FaultSpec(kind="kill", task=1, times=2),))
        )
        results = run_tasks_resilient(
            _square, [(i,) for i in range(6)], max_workers=2,
            policy=ResiliencePolicy(
                max_task_retries=4, max_pool_failures=0, backoff_base_s=0.0
            ),
            injector=injector, emit=_events_sink(events),
        )
        assert results == [i * i for i in range(6)]
        assert "resilience.degraded" in _collect(events)

    def test_timeout_replaces_pool_then_raises_when_exhausted(self):
        events = []
        injector = normalize_injector(
            FaultPlan(
                faults=(FaultSpec(kind="delay", task=1, delay_s=5.0, times=9),)
            )
        )
        start = time.perf_counter()
        with pytest.raises(TaskTimeout):
            run_tasks_resilient(
                _square, [(i,) for i in range(4)], max_workers=2,
                policy=ResiliencePolicy(
                    task_timeout_s=0.25, max_task_retries=1,
                    backoff_base_s=0.0, max_pool_failures=5,
                ),
                injector=injector, emit=_events_sink(events),
            )
        # Two attempts at ~0.25s each, not the injected 5s sleeps.
        assert time.perf_counter() - start < 5.0
        names = _collect(events)
        assert "resilience.timeout" in names
        assert "resilience.pool_replaced" in names

    def test_timeout_then_clean_retry_succeeds(self):
        injector = normalize_injector(
            FaultPlan(
                faults=(FaultSpec(kind="delay", task=0, delay_s=5.0, times=1),)
            )
        )
        results = run_tasks_resilient(
            _square, [(i,) for i in range(4)], max_workers=2,
            policy=ResiliencePolicy(
                task_timeout_s=0.25, max_task_retries=2, backoff_base_s=0.0
            ),
            injector=injector,
        )
        assert results == [0, 1, 4, 9]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the task writes to pipe ends it inherits by fork",
    )
    def test_terminate_joins_manager_stuck_on_partial_result(self):
        # The manager thread blocks reading a result that a killed
        # worker never finished; unless terminate_pool unblocks and
        # joins it, interpreter exit hangs joining it.
        ready_r, ready_w = os.pipe()
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            result_fd = pool._result_queue._writer.fileno()
            pool.submit(_send_partial_result, result_fd, ready_w)
            manager = pool._executor_manager_thread
            assert select.select([ready_r], [], [], 30.0)[0]
            time.sleep(0.2)  # the manager is now inside the partial read
            start = time.perf_counter()
            terminate_pool(pool)
            assert not manager.is_alive()
            assert time.perf_counter() - start < 10.0
        finally:
            os.close(ready_r)
            os.close(ready_w)

    def test_abandoned_iterator_terminates_workers(self):
        # Satellite: interrupting a pooled run (KeyboardInterrupt closes
        # the generator the same way) must not leak worker processes --
        # even with a 30s task in flight, teardown is prompt.
        injector = normalize_injector(
            FaultPlan(
                faults=(FaultSpec(kind="delay", task=3, delay_s=30.0, times=9),)
            )
        )
        before = {id(p) for p in multiprocessing.active_children()}
        it = iter_tasks_resilient(
            _square, [(i,) for i in range(6)], max_workers=2,
            window=4, policy=FAST, injector=injector,
        )
        assert next(it) == (0, 0)
        start = time.perf_counter()
        it.close()
        assert time.perf_counter() - start < 10.0
        leaked = [
            p for p in multiprocessing.active_children()
            if id(p) not in before and p.is_alive()
        ]
        assert leaked == []


class TestCacheFaults:
    def test_injected_corruption_is_quarantined(self, tmp_path):
        warm = ResultCache(disk_dir=tmp_path)
        warm.get_or_compute("space", "victim", lambda: [1, 2, 3])

        injector = normalize_injector(
            FaultPlan(
                faults=(
                    FaultSpec(kind="corrupt_cache", key_substring="space"),
                ),
            )
        )
        events = []
        reader = ResultCache(
            disk_dir=tmp_path,
            fault_injector=injector,
            on_event=_events_sink(events),
        )
        value = reader.get_or_compute("space", "victim", lambda: [1, 2, 3])
        assert value == [1, 2, 3]
        assert reader.stats.quarantined == 1
        assert reader.stats.misses == 1
        assert _collect(events) == ["cache.quarantined"]
        # The fault fired its once; the rewritten entry now verifies.
        fresh = ResultCache(disk_dir=tmp_path, fault_injector=injector)
        assert fresh.get_or_compute("space", "victim", lambda: None) == [1, 2, 3]
        assert fresh.stats.disk_hits == 1


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path, fingerprint="abc", every=2)
        state = {"blocks_done": 3, "plan_fingerprint": "p1", "x": [1, 2]}
        manager.save(state)
        assert manager.load(plan_fingerprint="p1") == state
        assert manager.saves == 1

    def test_missing_is_none(self, tmp_path):
        assert CheckpointManager(tmp_path, fingerprint="abc").load() is None

    def test_corrupt_checkpoint_set_aside(self, tmp_path):
        events = []
        manager = CheckpointManager(
            tmp_path, fingerprint="abc", on_event=_events_sink(events)
        )
        manager.save({"blocks_done": 1, "plan_fingerprint": "p"})
        raw = bytearray(manager.path.read_bytes())
        raw[-1] ^= 0xFF
        manager.path.write_bytes(bytes(raw))

        assert manager.load(plan_fingerprint="p") is None
        assert "checkpoint.corrupt" in _collect(events)
        assert manager.path.with_suffix(".corrupt").exists()
        assert not manager.path.exists()

    def test_truncated_checkpoint_set_aside(self, tmp_path):
        manager = CheckpointManager(tmp_path, fingerprint="abc")
        manager.save({"blocks_done": 1, "plan_fingerprint": "p"})
        raw = manager.path.read_bytes()
        manager.path.write_bytes(raw[: len(CHECKPOINT_MAGIC) + 10])
        assert manager.load() is None

    def test_plan_mismatch_invalidates(self, tmp_path):
        events = []
        manager = CheckpointManager(
            tmp_path, fingerprint="abc", on_event=_events_sink(events)
        )
        manager.save({"blocks_done": 1, "plan_fingerprint": "old-plan"})
        assert manager.load(plan_fingerprint="new-plan") is None
        assert "checkpoint.invalidated" in _collect(events)

    def test_clear_removes_file(self, tmp_path):
        manager = CheckpointManager(tmp_path, fingerprint="abc")
        manager.save({"blocks_done": 1})
        manager.clear()
        assert manager.load() is None


def _assert_results_identical(a, b):
    assert np.array_equal(a.frontier.times_s, b.frontier.times_s)
    assert np.array_equal(a.frontier.energies_j, b.frontier.energies_j)
    assert a.reduced.total_rows == b.reduced.total_rows
    for fa, fb in zip(a.group_frontiers, b.group_frontiers):
        assert (fa is None) == (fb is None)
        if fa is not None:
            assert np.array_equal(fa.times_s, fb.times_s)
            assert np.array_equal(fa.energies_j, fb.energies_j)
    assert a.regions.has_sweet_region == b.regions.has_sweet_region
    assert a.regions.has_overlap_region == b.regions.has_overlap_region
    if a.queueing is not None or b.queueing is not None:
        assert sorted(a.queueing) == sorted(b.queueing)
        for u in a.queueing:
            assert a.queueing[u] == b.queueing[u]


class TestCheckpointResume:
    def test_checkpoint_works_on_every_exhaustive_scenario(self, tmp_path):
        # Every exhaustive run streams, so any scenario can checkpoint --
        # including one stored with the retired ``space_mode`` key.
        stored = dict(streaming_scenario().to_dict(), space_mode="materialized")
        with pytest.warns(DeprecationWarning, match="space_mode"):
            scenario = Scenario.from_dict(stored)
        clean = run_scenario(scenario, RunContext(max_workers=1))
        checkpointed = run_scenario(
            scenario, RunContext(max_workers=1),
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        assert list(tmp_path.glob("checkpoint-*.ckpt"))
        _assert_results_identical(clean, checkpointed)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_scenario(
                streaming_scenario(), RunContext(max_workers=1), resume=True
            )

    def test_checkpoint_and_spill_incompatible(self, tmp_path):
        with pytest.raises(ValueError, match="incompatible"):
            run_scenario(
                streaming_scenario(), RunContext(max_workers=1),
                spill_dir=tmp_path / "spill",
                checkpoint_dir=tmp_path / "ck",
            )

    def test_interrupted_run_resumes_bit_identical(self, tmp_path):
        scenario = streaming_scenario()
        clean = run_scenario(scenario, RunContext(max_workers=1))

        chaos_ctx = RunContext(
            max_workers=1,
            faults=FaultPlan(faults=(FaultSpec(kind="fold_error", task=4),)),
        )
        with pytest.raises(InjectedFault):
            run_scenario(
                scenario, chaos_ctx,
                checkpoint_dir=tmp_path, checkpoint_every=1,
            )

        events = []
        resume_ctx = RunContext(max_workers=1, sinks=(
            lambda event, payload: events.append((event, payload)),
        ))
        resumed = run_scenario(
            scenario, resume_ctx,
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=1,
        )
        _assert_results_identical(clean, resumed)
        reduced_events = [
            p for e, p in events if e == "space.reduced"
        ]
        assert reduced_events and reduced_events[0]["resumed_from_block"] == 4

    def test_resume_after_completion_is_instant_and_identical(self, tmp_path):
        scenario = streaming_scenario()
        first = run_scenario(
            scenario, RunContext(max_workers=1),
            checkpoint_dir=tmp_path, checkpoint_every=2,
        )
        events = []
        again = run_scenario(
            scenario,
            RunContext(max_workers=1, sinks=(
                lambda event, payload: events.append((event, payload)),
            )),
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=2,
        )
        _assert_results_identical(first, again)
        reduced_events = [p for e, p in events if e == "space.reduced"]
        # Every block was already folded: nothing re-evaluated.
        assert reduced_events[0]["resumed_from_block"] == first.reduced.num_blocks

    def test_worker_count_change_invalidates_checkpoint(self, tmp_path):
        scenario = streaming_scenario()
        chaos_ctx = RunContext(
            max_workers=1,
            faults=FaultPlan(faults=(FaultSpec(kind="fold_error", task=2),)),
        )
        with pytest.raises(InjectedFault):
            run_scenario(
                scenario, chaos_ctx,
                checkpoint_dir=tmp_path, checkpoint_every=1,
            )
        # A different worker count changes the block plan; the stale
        # checkpoint must be rejected, and the from-scratch run is still
        # correct.
        events = []
        resumed = run_scenario(
            scenario,
            RunContext(max_workers=2, sinks=(
                lambda event, payload: events.append((event, payload)),
            )),
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=1,
        )
        clean = run_scenario(scenario, RunContext(max_workers=1))
        _assert_results_identical(clean, resumed)
        assert "checkpoint.invalidated" in _collect(events)


class TestChaosScenarioAcceptance:
    def test_crash_timeout_and_corruption_bit_identical(self, tmp_path):
        """The issue's acceptance bar: a run suffering a worker kill, a
        clean crash, injected latency, and cache corruption produces
        artifacts bit-identical to a fault-free run."""
        scenario = streaming_scenario()
        cache_dir = tmp_path / "cache"

        clean = run_scenario(
            scenario,
            RunContext(max_workers=1, cache=ResultCache(disk_dir=cache_dir)),
        )

        plan = FaultPlan(
            seed=11,
            faults=(
                FaultSpec(kind="kill", task=1, times=1),
                FaultSpec(kind="crash", task=3, times=1),
                FaultSpec(kind="delay", task=2, delay_s=0.05, times=1),
                FaultSpec(kind="corrupt_cache", key_substring="params"),
            ),
        )
        events = []
        chaos_ctx = RunContext(
            max_workers=2,
            cache=ResultCache(disk_dir=cache_dir),
            resilience=ResiliencePolicy(backoff_base_s=0.0),
            faults=plan,
            sinks=(lambda event, payload: events.append((event, payload)),),
        )
        chaos = run_scenario(scenario, chaos_ctx)

        _assert_results_identical(clean, chaos)
        assert chaos_ctx.cache.stats.quarantined >= 1
        assert "cache.quarantined" in _collect(events)
