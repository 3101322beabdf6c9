"""The backend conformance suite: every backend, one contract.

The executor's correctness argument is that *where* tasks run is
invisible: ``serial`` and ``process_pool`` must deliver results in plan
order, bit-identical to in-process evaluation, under fault plans, and
through checkpoint/resume -- while the scenario cache identity never
varies with the backend.  Each class below pins one face of that
contract across the whole matrix.
"""

import json
import shutil
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.engine.backends import (
    ProcessPoolBackend,
    SerialBackend,
    backend_class,
    backend_names,
    create_backend,
    resolve_backend,
    validate_backend_options,
    validate_workers,
)
from repro.engine.context import RunContext
from repro.engine.executor import evaluate_space_groups_chunked
from repro.engine.faults import FaultPlan, FaultSpec, InjectedFault
from repro.engine.hashing import stable_hash
from repro.engine.resilience import ResiliencePolicy
from repro.engine.runner import run_scenario
from repro.engine.scenario import Scenario
from repro.engine.stagegraph import build_stage_plan, frontier_artifact_from_space
from repro.queueing.dispatcher import figure10_series

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

#: Fast-failing policy: no backoff sleeps between retries.
FAST = ResiliencePolicy(backoff_base_s=0.0)

#: The error a retired backend name meets at every way in.
RETIRED_BACKEND = (
    r"unknown execution backend 'tcp_remote'; "
    r"available: \['process_pool', 'serial'\]"
)

#: The conformance matrix: (backend name, options) for each way the
#: engine can execute a fan-out.
MATRIX = [
    pytest.param("serial", None, id="serial"),
    pytest.param("process_pool", {"workers": 2}, id="process_pool"),
]


def _square(x):
    return x * x


def _sleepy_identity(index, delay_s):
    time.sleep(delay_s)
    return index


def streaming_scenario(**overrides):
    base = dict(
        workload="ep",
        max_a=6,
        max_b=6,
        stages=("frontier", "regions", "queueing"),
        utilizations=(0.25,),
        memory_budget_mb=0.25,
        name="backend-conformance",
    )
    base.update(overrides)
    return Scenario(**base)


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


# ---------------------------------------------------------------------------
# Registry and option validation
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == ["process_pool", "serial"]

    def test_unknown_backend_names_the_alternatives(self):
        with pytest.raises(ValueError, match=r"unknown execution backend 'gpu'"):
            backend_class("gpu")
        with pytest.raises(ValueError, match=r"process_pool"):
            backend_class("gpu")

    def test_unknown_option_names_key_and_accepted(self):
        with pytest.raises(
            ValueError, match=r"unknown option 'threads' for backend 'process_pool'"
        ) as exc:
            validate_backend_options("process_pool", {"threads": 4})
        assert "workers" in str(exc.value)

    def test_serial_accepts_no_options(self):
        with pytest.raises(ValueError, match=r"unknown option 'workers'"):
            validate_backend_options("serial", {"workers": 2})

    @pytest.mark.parametrize("bad", [0, -3, "nope", 2.5, []])
    def test_validate_workers_rejects_non_positive(self, bad):
        if bad == 2.5:
            assert validate_workers(bad) == 2  # int() truncation is accepted
            return
        with pytest.raises(ValueError, match="positive integer"):
            validate_workers(bad)

    def test_create_backend_seeds_workers_from_max_workers(self):
        backend = create_backend("process_pool", max_workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3
        # An explicit option wins over the legacy knob.
        pinned = create_backend("process_pool", {"workers": 5}, max_workers=3)
        assert pinned.workers == 5

    def test_resolve_default_heuristic(self):
        assert isinstance(resolve_backend(max_workers=1), SerialBackend)
        pool = resolve_backend(max_workers=4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 4

    def test_resolve_passes_instances_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError, match="by name"):
            resolve_backend(backend, options={"workers": 2})
        with pytest.raises(TypeError, match="ExecutionBackend"):
            resolve_backend(42)

    def test_custom_backend_registration_is_scoped(self):
        class Fake(SerialBackend):
            name = "fake-for-test"

        from repro.engine import backends as mod

        mod.register_backend(Fake)
        try:
            assert backend_class("fake-for-test") is Fake
        finally:
            del mod._REGISTRY["fake-for-test"]


# ---------------------------------------------------------------------------
# Core contract: order, bit-identity, resume offsets
# ---------------------------------------------------------------------------


class TestSubmitContract:
    @pytest.mark.parametrize("name, options", MATRIX)
    def test_map_matches_serial(self, name, options):
        backend = create_backend(name, options)
        assert backend.map(_square, range(8), policy=FAST) == [
            x * x for x in range(8)
        ]

    @pytest.mark.parametrize("name, options", MATRIX)
    def test_indices_strictly_ascending(self, name, options):
        backend = create_backend(name, options)
        # Early tasks sleep longer: completion order inverts plan order,
        # delivery order must not.
        args = [(i, 0.15 if i < 2 else 0.0) for i in range(6)]
        out = list(
            backend.submit_blocks(
                _sleepy_identity, args, window=4, policy=FAST
            )
        )
        assert [i for i, _ in out] == list(range(6))
        assert [v for _, v in out] == list(range(6))

    @pytest.mark.parametrize("name, options", MATRIX)
    def test_start_index_skips_finished_prefix(self, name, options):
        backend = create_backend(name, options)
        out = list(
            backend.submit_blocks(
                _square, [(i,) for i in range(6)], policy=FAST, start_index=4
            )
        )
        assert out == [(4, 16), (5, 25)]

    @pytest.mark.parametrize("name, options", MATRIX)
    def test_chunked_space_bit_identical(
        self, name, options, ep, arm, amd, monkeypatch
    ):
        from repro.core.calibration import ground_truth_params
        from repro.engine import executor

        groups = (GroupSpec(arm, 4), GroupSpec(amd, 3))
        params = {
            spec.name: ground_truth_params(spec, ep) for spec in (arm, amd)
        }
        # A small budget splits this small space, and with the
        # small-space shortcut off the blocks go through the backend.
        monkeypatch.setattr(executor, "PARALLEL_THRESHOLD_ROWS", 0)
        assert len(executor.space_block_plan(
            groups, memory_budget_mb=0.05,
            backend=name, backend_options=options,
        )) > 1
        ref = evaluate_space_groups(groups, params, 20e6)
        chunked = evaluate_space_groups_chunked(
            groups,
            params,
            20e6,
            memory_budget_mb=0.05,
            backend=name,
            backend_options=options,
        )
        assert np.array_equal(ref.times_s, chunked.times_s)
        assert np.array_equal(ref.energies_j, chunked.energies_j)
        assert np.array_equal(ref.n, chunked.n)
        assert np.array_equal(ref.units, chunked.units)


# ---------------------------------------------------------------------------
# Scenario-level conformance: artifacts, cache identity, faults, resume
# ---------------------------------------------------------------------------


class TestScenarioConformance:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        return run_scenario(streaming_scenario(), RunContext(max_workers=1))

    @pytest.mark.parametrize("name, options", MATRIX)
    def test_streaming_artifacts_bit_identical(
        self, name, options, serial_reference
    ):
        scenario = streaming_scenario().with_(
            backend=name, backend_options=options
        )
        result = run_scenario(scenario, RunContext(max_workers=2))
        _assert_results_identical(serial_reference, result)

    def test_cache_identity_ignores_backend(self):
        identities = {
            repr(
                streaming_scenario()
                .with_(backend=name, backend_options=opts)
                .cache_identity()
            )
            for name, opts in [
                (None, None),
                ("serial", None),
                ("process_pool", {"workers": 2}),
            ]
        }
        assert len(identities) == 1

    @pytest.mark.parametrize(
        "name, options, kind",
        [
            pytest.param("serial", None, "crash", id="serial-crash"),
            pytest.param(
                "process_pool", {"workers": 2}, "crash", id="pool-crash"
            ),
            pytest.param(
                "process_pool", {"workers": 2}, "kill", id="pool-kill"
            ),
        ],
    )
    def test_faulted_run_bit_identical(
        self, name, options, kind, serial_reference
    ):
        spec = FaultSpec(kind=kind, task=1)
        scenario = streaming_scenario().with_(
            backend=name, backend_options=options
        )
        events = []
        ctx = RunContext(
            max_workers=2,
            faults=FaultPlan(faults=(spec,)),
            sinks=(lambda event, payload: events.append(event),),
        )
        result = run_scenario(scenario, ctx)
        _assert_results_identical(serial_reference, result)
        if kind == "crash":
            assert "resilience.retry" in events
        else:
            assert "resilience.pool_replaced" in events

    @pytest.mark.parametrize(
        "name, options",
        [
            pytest.param("serial", None, id="serial"),
            pytest.param("process_pool", {"workers": 2}, id="process_pool"),
        ],
    )
    def test_interrupted_resume_bit_identical(
        self, name, options, tmp_path, serial_reference
    ):
        scenario = streaming_scenario().with_(
            backend=name, backend_options=options
        )
        chaos_ctx = RunContext(
            max_workers=2,
            faults=FaultPlan(faults=(FaultSpec(kind="fold_error", task=4),)),
        )
        with pytest.raises(InjectedFault):
            run_scenario(
                scenario, chaos_ctx,
                checkpoint_dir=tmp_path, checkpoint_every=1,
            )
        events = []
        resumed = run_scenario(
            scenario,
            RunContext(
                max_workers=2,
                sinks=(lambda event, payload: events.append((event, payload)),),
            ),
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=1,
        )
        _assert_results_identical(serial_reference, resumed)
        reduced = [p for e, p in events if e == "space.reduced"]
        assert reduced and reduced[0]["resumed_from_block"] == 4


# ---------------------------------------------------------------------------
# The block fold against the batch oracle
# ---------------------------------------------------------------------------

#: A mid-pass checkpoint of ``streaming_scenario()`` written by an earlier
#: release, under ``RunContext(max_workers=2)`` with ``checkpoint_every=1``
#: and a ``fold_error`` before block 4.  That release folded blocks either
#: at the coordinator or in the workers, and wrote these same bytes both
#: ways.
PARENT_CHECKPOINT = Path(__file__).parent / "data" / "streaming_ep6x6_block4.ckpt"


def _assert_matches_oracle(oracle, result):
    """A streamed run against the materialized batch run, bit for bit."""
    assert len(oracle.group_frontiers) == len(result.group_frontiers)
    for fa, fb in zip(
        (oracle.frontier, *oracle.group_frontiers),
        (result.frontier, *result.group_frontiers),
    ):
        assert (fa is None) == (fb is None)
        if fa is not None:
            assert np.array_equal(fa.times_s, fb.times_s)
            assert np.array_equal(fa.energies_j, fb.energies_j)
            assert np.array_equal(fa.indices, fb.indices)
    assert result.num_configurations == len(oracle.space)
    assert oracle.regions.composition == result.regions.composition
    assert sorted(oracle.queueing) == sorted(result.queueing)
    for u in oracle.queueing:
        assert oracle.queueing[u] == result.queueing[u]


class TestWorkerReduceConformance:
    """The scenario conformance matrix against the batch oracle.

    Each block task folds its own block through a fresh reducer pass and
    ships only the pass's state, which the coordinator merges in plan
    order; a run with a spill consumer ships the columns instead and
    folds them here through the same pass.  Every backend must reproduce
    the materialized run -- ``ParetoFrontier.from_points`` over the whole
    space -- bit for bit, through fault plans and checkpoint/resume
    (including a checkpoint written by an earlier release), with the
    cache identity untouched.
    """

    @pytest.fixture(scope="class")
    def batch_oracle(self):
        """The materialized pipeline: the whole space through the
        ``frontier_artifact_from_space``/``figure10_series`` oracles."""
        scenario = streaming_scenario()
        ctx = RunContext(max_workers=1)
        plan = build_stage_plan(scenario, ctx)
        params = run_scenario(scenario, ctx).params
        space = evaluate_space_groups(plan.group_specs, params, plan.units)
        art = frontier_artifact_from_space(space)
        return SimpleNamespace(
            space=space,
            frontier=art.frontier,
            group_frontiers=art.group_frontiers,
            regions=SimpleNamespace(composition=art.composition),
            queueing=figure10_series(space, **plan.queue_kw),
        )

    @pytest.mark.parametrize("name, options", MATRIX)
    def test_artifacts_bit_identical(self, name, options, batch_oracle):
        scenario = streaming_scenario().with_(
            backend=name, backend_options=options
        )
        result = run_scenario(scenario, RunContext(max_workers=2))
        _assert_matches_oracle(batch_oracle, result)

    def test_small_memory_budget_stays_bit_identical(self, batch_oracle):
        scenario = streaming_scenario(memory_budget_mb=0.02)
        result = run_scenario(scenario, RunContext(max_workers=2))
        assert result.reduced.num_blocks > 1
        _assert_matches_oracle(batch_oracle, result)

    def test_cache_identity_ignores_reduce_at_and_chunk_rows(self):
        stored = dict(
            streaming_scenario().to_dict(),
            reduce_at="worker", chunk_rows=1000, simulation="reference",
        )
        with pytest.warns(DeprecationWarning, match="reduce_at"):
            retired = Scenario.from_dict(stored)
        identities = {
            repr(scenario.cache_identity())
            for scenario in [
                streaming_scenario(),
                retired,
                streaming_scenario(memory_budget_mb=0.02),
                retired.with_(memory_budget_mb=64.0),
            ]
        }
        assert len(identities) == 1

    def test_block_consumers_fold_at_the_coordinator(
        self, tmp_path, batch_oracle
    ):
        # A spill needs the columns: they ship to the coordinator, fold
        # through the same pass there, and spill the whole space.
        scenario = streaming_scenario().with_(
            backend="process_pool", backend_options={"workers": 2}
        )
        result = run_scenario(
            scenario, RunContext(max_workers=2), spill_dir=tmp_path
        )
        _assert_matches_oracle(batch_oracle, result)
        for column in ("n", "cores", "f", "units", "times_s", "energies_j"):
            assert np.array_equal(
                getattr(batch_oracle.space, column),
                getattr(result.space, column),
            )

    @pytest.mark.parametrize(
        "name, options, kind",
        [
            pytest.param("serial", None, "crash", id="serial-crash"),
            pytest.param(
                "process_pool", {"workers": 2}, "crash", id="pool-crash"
            ),
            pytest.param(
                "process_pool", {"workers": 2}, "kill", id="pool-kill"
            ),
        ],
    )
    def test_faulted_run_bit_identical(
        self, name, options, kind, batch_oracle
    ):
        # A retried task re-evaluates AND re-folds its block from the
        # start; the merged artifacts must not notice.
        spec = FaultSpec(kind=kind, task=1)
        scenario = streaming_scenario().with_(
            backend=name, backend_options=options
        )
        events = []
        ctx = RunContext(
            max_workers=2,
            faults=FaultPlan(faults=(spec,)),
            sinks=(lambda event, payload: events.append(event),),
        )
        result = run_scenario(scenario, ctx)
        _assert_matches_oracle(batch_oracle, result)
        if kind == "crash":
            assert "resilience.retry" in events
        else:
            assert "resilience.pool_replaced" in events

    @pytest.mark.parametrize(
        "name, options",
        [
            pytest.param("serial", None, id="serial"),
            pytest.param("process_pool", {"workers": 2}, id="process_pool"),
        ],
    )
    def test_interrupted_resume_bit_identical(
        self, name, options, tmp_path, batch_oracle
    ):
        scenario = streaming_scenario().with_(
            backend=name, backend_options=options
        )
        chaos_ctx = RunContext(
            max_workers=2,
            faults=FaultPlan(faults=(FaultSpec(kind="fold_error", task=4),)),
        )
        with pytest.raises(InjectedFault):
            run_scenario(
                scenario, chaos_ctx,
                checkpoint_dir=tmp_path, checkpoint_every=1,
            )
        events = []
        resumed = run_scenario(
            scenario,
            RunContext(
                max_workers=2,
                sinks=(lambda event, payload: events.append((event, payload)),),
            ),
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=1,
        )
        _assert_matches_oracle(batch_oracle, resumed)
        reduced = [p for e, p in events if e == "space.reduced"]
        assert reduced and reduced[0]["resumed_from_block"] == 4

    @pytest.mark.parametrize(
        "name, options",
        [
            pytest.param("serial", None, id="serial"),
            pytest.param("process_pool", {"workers": 2}, id="process_pool"),
        ],
    )
    def test_parent_checkpoint_resumes(
        self, name, options, tmp_path, batch_oracle
    ):
        scenario = streaming_scenario().with_(
            backend=name, backend_options=options
        )
        fingerprint = stable_hash(
            ("scenario-checkpoint", scenario.cache_identity())
        )
        shutil.copyfile(
            PARENT_CHECKPOINT, tmp_path / f"checkpoint-{fingerprint}.ckpt"
        )
        events = []
        resumed = run_scenario(
            scenario,
            RunContext(
                max_workers=2,
                sinks=(lambda event, payload: events.append((event, payload)),),
            ),
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=1,
        )
        _assert_matches_oracle(batch_oracle, resumed)
        reduced = [p for e, p in events if e == "space.reduced"]
        assert reduced and reduced[0]["resumed_from_block"] == 4


# ---------------------------------------------------------------------------
# Scenario field validation and selection precedence
# ---------------------------------------------------------------------------


class TestScenarioBackendField:
    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            streaming_scenario(backend="gpu")

    def test_unknown_option_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"unknown option 'threads'"):
            streaming_scenario(
                backend="process_pool", backend_options={"threads": 4}
            )

    def test_retired_tcp_remote_rejected_at_construction(self):
        # Running locally instead would ignore the hosts the user named.
        with pytest.raises(ValueError, match=RETIRED_BACKEND):
            streaming_scenario(backend="tcp_remote")

    def test_retired_tcp_remote_rejected_in_a_stored_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(dict(
            streaming_scenario().to_dict(),
            backend="tcp_remote",
            backend_options={"worker_hosts": "10.0.0.1:7000"},
        )))
        with pytest.raises(ValueError, match=RETIRED_BACKEND):
            Scenario.from_file(path)

    def test_stored_shared_memory_option_is_dropped(self):
        # The option never changed a result: a stored one is dropped
        # with the retired-fields warning and the run goes ahead on the
        # pool, bit-identical to the serial reference.
        stored = dict(
            streaming_scenario().to_dict(),
            backend="process_pool",
            backend_options={"workers": 2, "shared_memory": True},
        )
        with pytest.warns(
            DeprecationWarning,
            match=r"ignoring retired scenario fields "
            r"\(backend_options\.shared_memory: ",
        ):
            scenario = Scenario.from_dict(stored)
        assert scenario.backend == "process_pool"
        assert scenario.backend_options == {"workers": 2}
        assert scenario.cache_identity() == streaming_scenario().cache_identity()
        result = run_scenario(scenario, RunContext(max_workers=2))
        reference = run_scenario(streaming_scenario(), RunContext(max_workers=1))
        _assert_results_identical(reference, result)

    def test_shared_memory_option_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"unknown option 'shared_memory'"):
            streaming_scenario(
                backend="process_pool", backend_options={"shared_memory": True}
            )

    def test_options_without_backend_rejected(self):
        with pytest.raises(ValueError, match="backend_options require"):
            streaming_scenario(backend_options={"workers": 2})

    def test_backend_round_trips_through_json(self):
        scenario = streaming_scenario(
            backend="process_pool", backend_options={"workers": 2}
        )
        again = Scenario.from_dict(scenario.to_dict())
        assert again.backend == "process_pool"
        assert again.backend_options == {"workers": 2}

    def test_scenario_backend_wins_over_context(self):
        # A scenario naming 'serial' runs serial even on a pool context:
        # the run must succeed and produce reference-identical artifacts
        # (an unknown backend would raise at resolve time).
        scenario = streaming_scenario(backend="serial")
        result = run_scenario(scenario, RunContext(max_workers=2))
        reference = run_scenario(streaming_scenario(), RunContext(max_workers=1))
        _assert_results_identical(reference, result)


# ---------------------------------------------------------------------------
# Teardown: idempotent, leak-free
# ---------------------------------------------------------------------------


class TestTeardown:
    @pytest.mark.parametrize("name, options", MATRIX)
    def test_close_is_idempotent(self, name, options):
        backend = create_backend(name, options)
        assert backend.map(_square, [3], policy=FAST) == [9]
        backend.close()
        assert backend.closed
        backend.close()  # second close: no error, no double-free
        assert backend.closed

    def test_context_manager_closes(self):
        with create_backend("process_pool", {"workers": 2}) as backend:
            assert not backend.closed
        assert backend.closed
