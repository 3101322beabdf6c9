"""Resume equivalence: an interrupted-then-resumed run changes nothing.

The checkpoint/resume contract, pinned as a property: interrupt a
streaming scenario after a *random* prefix of blocks (via a
deterministic ``fold_error`` injection), resume from the checkpoint, and
every artifact -- whole-space frontier, per-group homogeneous frontiers,
region decomposition, queueing series -- must be bit-for-bit identical
to the uninterrupted run, on two- and three-type spaces, at any
checkpoint cadence.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.context import RunContext
from repro.engine.faults import FaultPlan, FaultSpec, InjectedFault
from repro.engine.runner import run_scenario
from repro.engine.scenario import NodeGroup, Scenario
from repro.hardware.extension import INTEL_ATOM
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

TWO_TYPE = Scenario(
    workload="ep",
    max_a=5,
    max_b=5,
    stages=("frontier", "regions", "queueing"),
    utilizations=(0.25,),
    memory_budget_mb=0.25,
    name="resume-two",
)

THREE_TYPE = Scenario(
    workload="ep",
    node_types=(
        NodeGroup("arm-cortex-a9", 3),
        NodeGroup("amd-k10", 2),
        NodeGroup("intel-atom", 2),
    ),
    stages=("frontier", "regions", "queueing"),
    utilizations=(0.25,),
    memory_budget_mb=0.25,
    name="resume-three",
)


def _context(faults=None):
    ctx = RunContext(seed=0, max_workers=1, faults=faults)
    ctx.register_node(INTEL_ATOM)
    ctx.register_workload(with_atom(EP))
    return ctx


def _baseline(scenario):
    return run_scenario(scenario, _context())


#: Fault-free references, computed once; every example compares against
#: these, so any divergence is attributable to the interrupt/resume.
CLEAN = {"two": _baseline(TWO_TYPE), "three": _baseline(THREE_TYPE)}
SCENARIOS = {"two": TWO_TYPE, "three": THREE_TYPE}


def _assert_identical(clean, resumed):
    assert np.array_equal(clean.frontier.times_s, resumed.frontier.times_s)
    assert np.array_equal(
        clean.frontier.energies_j, resumed.frontier.energies_j
    )
    assert np.array_equal(clean.frontier.indices, resumed.frontier.indices)
    assert clean.reduced.total_rows == resumed.reduced.total_rows
    assert clean.reduced.composition == resumed.reduced.composition
    assert np.array_equal(
        clean.reduced.frontier_n, resumed.reduced.frontier_n
    )
    for fc, fr in zip(clean.group_frontiers, resumed.group_frontiers):
        assert (fc is None) == (fr is None)
        if fc is not None:
            assert np.array_equal(fc.times_s, fr.times_s)
            assert np.array_equal(fc.energies_j, fr.energies_j)
            assert np.array_equal(fc.indices, fr.indices)
    assert clean.regions.composition == resumed.regions.composition
    assert clean.regions.has_sweet_region == resumed.regions.has_sweet_region
    assert (
        clean.regions.has_overlap_region
        == resumed.regions.has_overlap_region
    )
    assert sorted(clean.queueing) == sorted(resumed.queueing)
    for u in clean.queueing:
        assert clean.queueing[u] == resumed.queueing[u]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    space=st.sampled_from(["two", "three"]),
    fraction=st.floats(0.0, 1.0, allow_nan=False),
    every=st.integers(1, 4),
)
def test_interrupt_anywhere_then_resume_is_bit_identical(
    tmp_path_factory, space, fraction, every
):
    clean = CLEAN[space]
    scenario = SCENARIOS[space]
    num_blocks = clean.reduced.num_blocks
    interrupt_at = min(int(fraction * num_blocks), num_blocks - 1)
    checkpoint_dir = tmp_path_factory.mktemp("ckpt")

    chaos = _context(
        faults=FaultPlan(
            faults=(FaultSpec(kind="fold_error", task=interrupt_at),)
        )
    )
    with pytest.raises(InjectedFault):
        run_scenario(
            scenario, chaos,
            checkpoint_dir=checkpoint_dir, checkpoint_every=every,
        )

    resumed = run_scenario(
        scenario, _context(),
        checkpoint_dir=checkpoint_dir, resume=True, checkpoint_every=every,
    )
    _assert_identical(clean, resumed)


def test_interrupt_on_first_block_resumes_from_scratch(tmp_path):
    # Interrupting before any fold leaves nothing checkpointed; resume
    # must fall back to a clean full run, not fail.
    chaos = _context(
        faults=FaultPlan(faults=(FaultSpec(kind="fold_error", task=0),))
    )
    with pytest.raises(InjectedFault):
        run_scenario(
            TWO_TYPE, chaos, checkpoint_dir=tmp_path, checkpoint_every=1
        )
    resumed = run_scenario(
        TWO_TYPE, _context(),
        checkpoint_dir=tmp_path, resume=True, checkpoint_every=1,
    )
    _assert_identical(CLEAN["two"], resumed)
