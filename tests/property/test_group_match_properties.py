"""Pin the k-way vectorized matcher and evaluator to their references.

Three anchors keep the group-table refactor honest:

* :func:`repro.core.evaluate._vector_match_groups` agrees with the
  scalar :func:`repro.core.multiway.match_multiway` on random
  gamma/floor clouds spanning all three regimes (closed-form no-floor,
  exclusive single-feasible-group, mixed floors);
* for two groups it agrees with the legacy pairwise
  :func:`repro.core.evaluate._vector_match`;
* the refactored :func:`repro.core.evaluate.evaluate_space` is
  **bit-for-bit** identical to the frozen pre-refactor snapshot in
  ``tests/property/_evaluate_pair.py`` on random model parameters, both
  without floors (EP-like) and with arrival floors (memcached-like).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluate import _vector_match, _vector_match_groups, evaluate_space
from repro.core.multiway import match_multiway
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9

from tests.property._evaluate_pair import evaluate_space_pair
from tests.property.strategies import (
    AMD_PSTATES,
    ARM_PSTATES,
    model_params,
    work_amounts,
)


class _Coefficients:
    """A GroupSetting stand-in: just the (gamma, floor) the matcher reads."""

    n_nodes = 1

    def __init__(self, gamma: float, floor: float):
        self._gamma = gamma
        self._floor = floor

    def coefficients(self):
        return self._gamma, self._floor


@st.composite
def coefficient_cloud(draw, min_groups=2, max_groups=5, regime="mixed"):
    """Random per-group (gamma, floor) pairs in a chosen floor regime."""
    count = draw(st.integers(min_groups, max_groups))
    gammas = [draw(st.floats(1e-6, 10.0)) for _ in range(count)]
    if regime == "closed-form":
        floors = [0.0] * count
    elif regime == "exclusive":
        # One group's floor dwarfs every other group's best-case time, so
        # at small jobs the bisection must exclude it entirely.
        floors = [draw(st.floats(0.0, 1.0)) for _ in range(count)]
        floors[draw(st.integers(0, count - 1))] = draw(st.floats(1e6, 1e9))
    else:
        floors = [
            draw(st.one_of(st.just(0.0), st.floats(0.01, 1e4)))
            for _ in range(count)
        ]
    return gammas, floors


def _scalar_reference(units, gammas, floors):
    groups = [_Coefficients(g, f) for g, f in zip(gammas, floors)]
    return match_multiway(units, groups)


class TestGroupsMatcherAgainstScalar:
    @pytest.mark.parametrize("regime", ["closed-form", "exclusive", "mixed"])
    @given(data=st.data(), units=work_amounts())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_multiway(self, regime, data, units):
        gammas, floors = data.draw(coefficient_cloud(regime=regime))
        ref = _scalar_reference(units, gammas, floors)
        g = np.asarray(gammas)[:, None]
        f = np.asarray(floors)[:, None]
        w, t = _vector_match_groups(units, g, f)
        assert t[0] == pytest.approx(ref.time_s, rel=1e-9, abs=1e-12)
        for p in range(len(gammas)):
            assert w[p, 0] == pytest.approx(
                ref.units[p], rel=1e-9, abs=units * 1e-9
            )

    @given(data=st.data(), units=work_amounts())
    @settings(max_examples=60, deadline=None)
    def test_work_conserved(self, data, units):
        gammas, floors = data.draw(coefficient_cloud())
        w, _ = _vector_match_groups(
            units, np.asarray(gammas)[:, None], np.asarray(floors)[:, None]
        )
        assert float(w.sum()) == pytest.approx(units, rel=1e-9)
        assert (w >= 0).all()

    @given(data=st.data(), units=work_amounts())
    @settings(max_examples=60, deadline=None)
    def test_two_groups_match_legacy_pairwise(self, data, units):
        gammas, floors = data.draw(coefficient_cloud(max_groups=2))
        ga, gb = gammas
        fa, fb = floors
        w_pair, t_pair = _vector_match(
            units,
            np.array([ga]), np.array([fa]),
            np.array([gb]), np.array([fb]),
        )
        w, t = _vector_match_groups(
            units, np.array([[ga], [gb]]), np.array([[fa], [fb]])
        )
        assert t[0] == pytest.approx(t_pair[0], rel=1e-9, abs=1e-12)
        assert w[0, 0] == pytest.approx(w_pair[0], rel=1e-9, abs=units * 1e-9)


#: PairSpaceResult field -> accessor on the refactored ConfigSpaceResult.
_PINNED_ARRAYS = (
    "n_a", "cores_a", "f_a", "n_b", "cores_b", "f_b",
    "units_a", "units_b", "times_s", "energies_j",
)


def _assert_bit_identical(new, old):
    assert new.node_a == old.node_a and new.node_b == old.node_b
    assert new.units_total == old.units_total
    for name in _PINNED_ARRAYS:
        left = np.asarray(getattr(new, name))
        right = np.asarray(getattr(old, name))
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


class TestTwoTypeBitForBit:
    @given(
        arm=model_params(ARM_PSTATES, "arm-cortex-a9"),
        amd=model_params(AMD_PSTATES, "amd-k10"),
        max_a=st.integers(1, 4),
        max_b=st.integers(1, 3),
        units=st.floats(1e3, 1e8),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_params_pin_old_evaluator(self, arm, amd, max_a, max_b, units):
        params = {"arm-cortex-a9": arm, "amd-k10": amd}
        new = evaluate_space(ARM_CORTEX_A9, max_a, AMD_K10, max_b, params, units)
        old = evaluate_space_pair(ARM_CORTEX_A9, max_a, AMD_K10, max_b, params, units)
        _assert_bit_identical(new, old)

    @given(
        arm=model_params(ARM_PSTATES, "arm-cortex-a9"),
        amd=model_params(AMD_PSTATES, "amd-k10"),
        units=st.floats(1e3, 1e8),
    )
    @settings(max_examples=15, deadline=None)
    def test_pinned_counts_and_settings(self, arm, amd, units):
        params = {"arm-cortex-a9": arm, "amd-k10": amd}
        kwargs = dict(
            counts_a=[0, 2, 5],
            counts_b=[1, 3],
            settings_a=[(2, 0.8), (4, 1.4)],
            settings_b=[(6, 2.1)],
        )
        new = evaluate_space(
            ARM_CORTEX_A9, 5, AMD_K10, 3, params, units, **kwargs
        )
        old = evaluate_space_pair(
            ARM_CORTEX_A9, 5, AMD_K10, 3, params, units, **kwargs
        )
        _assert_bit_identical(new, old)
