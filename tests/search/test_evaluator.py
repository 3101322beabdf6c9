"""The candidate evaluator: exhaustive bits for any row set, loud on bad rows.

Candidate rows are grouped by packed presence pattern and their
settings looked up in the search's once-built grids; neither may change
a single bit against the exhaustive evaluator, whatever the row order,
duplication or pattern mix of the batch, and a whole search builds each
group's setting grid once.
"""

import numpy as np
import pytest

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.search.evaluator import evaluate_candidate_rows
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

UNITS = 1e6
EP3 = with_atom(EP)
CASES = {
    "two_type": (
        (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 2)),
        {s.name: ground_truth_params(s, EP) for s in (ARM_CORTEX_A9, AMD_K10)},
    ),
    "three_type": (
        (
            GroupSpec(ARM_CORTEX_A9, 2),
            GroupSpec(AMD_K10, 2),
            GroupSpec(INTEL_ATOM, 2),
        ),
        {
            s.name: ground_truth_params(s, EP3)
            for s in (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM)
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_any_row_set_matches_exhaustive_bits(case):
    specs, params = CASES[case]
    full = evaluate_space_groups(specs, params, UNITS)
    rng = np.random.default_rng(5)
    # Shuffled, with repeats: every presence pattern interleaved.
    rows = rng.integers(len(full), size=2 * len(full) // 3)
    got = evaluate_candidate_rows(
        specs, params, UNITS, full.n[:, rows], full.cores[:, rows],
        full.f[:, rows],
    )
    for name in ("n", "cores", "f", "units", "times_s", "energies_j"):
        expected = getattr(full, name)[..., rows]
        np.testing.assert_array_equal(getattr(got, name), expected, name)


def test_empty_batch():
    specs, params = CASES["two_type"]
    empty = np.zeros((2, 0), dtype=np.int64)
    got = evaluate_candidate_rows(
        specs, params, UNITS, empty, empty, empty.astype(float)
    )
    assert len(got) == 0


def _one_row(specs, params, cores_a, f_a, n_a=1, n_b=1):
    amd = AMD_K10.cores
    return evaluate_candidate_rows(
        specs, params, UNITS,
        np.asarray([[n_a], [n_b]]),
        np.asarray([[cores_a], [amd.count]]),
        np.asarray([[f_a], [amd.fmax_ghz]]),
    )


def test_inadmissible_setting_rejected():
    specs, params = CASES["two_type"]
    arm = ARM_CORTEX_A9.cores
    _one_row(specs, params, arm.count, arm.fmax_ghz)
    with pytest.raises(ValueError, match="not admissible for node type"):
        _one_row(specs, params, arm.count, arm.fmax_ghz + 0.001)
    with pytest.raises(ValueError, match="not admissible for node type"):
        _one_row(specs, params, arm.count + 1, arm.fmax_ghz)


def test_absent_group_setting_is_not_checked():
    # An absent group's (cores, f) is a placeholder, never looked up.
    specs, params = CASES["two_type"]
    got = _one_row(specs, params, 999, 9.9, n_a=0)
    assert got.cores[0, 0] == ARM_CORTEX_A9.cores.count


def test_row_without_present_group_rejected():
    specs, params = CASES["two_type"]
    with pytest.raises(ValueError, match="at least one present group"):
        _one_row(specs, params, 1, 1.0, n_a=0, n_b=0)


@pytest.mark.parametrize("through", ["driver", "engine"])
def test_a_search_builds_each_setting_grid_once(monkeypatch, through):
    from repro.core import evaluate
    from repro.engine import RunContext
    from repro.search import SearchSpace, make_source, run_search

    specs, params = CASES["two_type"]
    calls = []
    real = evaluate._setting_grid

    def counting(spec, *args, **kwargs):
        calls.append(spec.name)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(evaluate, "_setting_grid", counting)
    search = {"strategy": "ga", "budget_rows": 400, "batch_rows": 64}
    if through == "driver":
        space = SearchSpace(specs)
        searched = run_search(
            specs, params, UNITS, source=make_source("ga", space, 0),
            budget_rows=400, batch_rows=64, space=space,
        )
    else:
        searched = RunContext(seed=0).space_searched(
            specs, params, UNITS, search
        )
    assert len(searched.trajectory.rounds) > 3
    assert sorted(calls) == sorted(gs.spec.name for gs in specs)
