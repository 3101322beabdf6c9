"""The N-group cluster table: configuration, enumeration, evaluation.

Everything here exercises the k-group generalization beyond the paper's
two types -- a third catalog node (the Atom extension) rides along with
ARM and AMD through enumeration, vectorized evaluation, and the
group-table accessors.
"""

import numpy as np
import pytest

from repro.core.calibration import ground_truth_params
from repro.core.configuration import (
    ClusterConfig,
    GroupConfig,
    GroupSpec,
    count_configs_groups,
    enumerate_configs_groups,
    node_settings,
    presence_masks,
)
from repro.core.evaluate import evaluate_space, evaluate_space_groups
from repro.core.streaming import solo_groups
from repro.engine.executor import evaluate_space_groups_chunked
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

WORKLOAD = with_atom(EP)
NODES = (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM)
PARAMS = {spec.name: ground_truth_params(spec, WORKLOAD) for spec in NODES}
UNITS = 1e6


def three_groups(max_arm=2, max_amd=2, max_atom=2):
    return (
        GroupSpec(ARM_CORTEX_A9, max_arm),
        GroupSpec(AMD_K10, max_amd),
        GroupSpec(INTEL_ATOM, max_atom),
    )


class TestNodeSettings:
    def test_default_rectangle(self):
        settings = node_settings(ARM_CORTEX_A9)
        assert len(settings) == ARM_CORTEX_A9.cores.count * len(
            ARM_CORTEX_A9.cores.pstates_ghz
        )
        assert (1, ARM_CORTEX_A9.cores.pstates_ghz[0]) in settings

    def test_explicit_list_validated(self):
        assert node_settings(ARM_CORTEX_A9, [(2, 0.8)]) == [(2, 0.8)]
        with pytest.raises(ValueError):
            node_settings(ARM_CORTEX_A9, [(99, 0.8)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty settings"):
            node_settings(ARM_CORTEX_A9, [])


class TestClusterConfig:
    def test_group_form(self):
        cfg = ClusterConfig(
            groups=[
                GroupConfig("arm-cortex-a9", 2, 4, 1.4),
                GroupConfig("amd-k10", 0, 6, 2.1),
                GroupConfig("intel-atom", 1, 2, 1.66),
            ]
        )
        assert cfg.num_groups == 3
        assert cfg.present == (0, 2)
        assert cfg.is_heterogeneous
        assert cfg.total_nodes == 3

    def test_pair_accessors_require_two_groups(self):
        cfg = ClusterConfig(
            groups=[
                GroupConfig("a", 1, 1, 1.0),
                GroupConfig("b", 1, 1, 1.0),
                GroupConfig("c", 1, 1, 1.0),
            ]
        )
        with pytest.raises(ValueError, match="exactly two groups"):
            cfg.n_a

    def test_legacy_kwargs_build_two_groups(self):
        cfg = ClusterConfig(
            node_a="arm-cortex-a9", n_a=2, cores_a=4, f_a_ghz=1.4,
            node_b="amd-k10", n_b=1, cores_b=6, f_b_ghz=2.1,
        )
        assert cfg.num_groups == 2
        assert cfg.n_a == 2 and cfg.node_b == "amd-k10"


class TestEnumeration:
    def test_masks_cover_every_presence_pattern(self):
        masks = list(presence_masks(three_groups()))
        assert len(masks) == 7  # 2^3 - 1: everything but the empty cluster
        assert masks[0] == (0, 1, 2)

    def test_count_matches_enumeration(self):
        specs = three_groups()
        configs = list(enumerate_configs_groups(specs))
        assert len(configs) == count_configs_groups(specs)
        labels = {c.label() for c in configs}
        assert len(labels) == len(configs)  # no duplicates

    def test_absent_group_allows_zero_only_when_admitted(self):
        specs = (
            GroupSpec(ARM_CORTEX_A9, 2),
            GroupSpec(AMD_K10, 2, counts=(1, 2)),  # zero not admitted
        )
        configs = list(enumerate_configs_groups(specs))
        assert all(c.groups[1].n > 0 for c in configs)


class TestThreeTypeEvaluation:
    def test_rows_match_enumeration_count(self):
        specs = three_groups()
        space = evaluate_space_groups(specs, PARAMS, UNITS)
        assert len(space) == count_configs_groups(specs)
        assert space.num_groups == 3
        assert space.nodes == ("arm-cortex-a9", "amd-k10", "intel-atom")

    def test_units_conserved_row_by_row(self):
        space = evaluate_space_groups(three_groups(), PARAMS, UNITS)
        np.testing.assert_allclose(space.units.sum(axis=0), UNITS, rtol=1e-9)

    def test_config_point_round_trip(self):
        specs = three_groups()
        space = evaluate_space_groups(specs, PARAMS, UNITS)
        enumerated = list(enumerate_configs_groups(specs))
        for i in (0, len(space) // 2, len(space) - 1):
            cfg = space.config(i)
            assert cfg == enumerated[i]
            point = space.point(i)
            assert point.time_s == pytest.approx(float(space.times_s[i]))
            assert len(point.units) == 3

    def test_is_only_partitions_single_group_rows(self):
        space = evaluate_space_groups(three_groups(), PARAMS, UNITS)
        present = (space.n > 0).sum(axis=0)
        for g in range(3):
            only = space.is_only(g)
            assert ((space.n[g] > 0) & (present == 1) == only).all()
            assert ((solo_groups(space.n) == g) == only).all()
        assert (space.is_heterogeneous == (present >= 2)).all()
        assert (space.is_heterogeneous == (solo_groups(space.n) == -1)).all()

    def test_missing_params_named_in_error(self):
        incomplete = {k: v for k, v in PARAMS.items() if k != "intel-atom"}
        with pytest.raises(ValueError, match="'intel-atom'.*available"):
            evaluate_space_groups(three_groups(), incomplete, UNITS)

    def test_two_group_call_equals_legacy_entry_point(self):
        specs = (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 2))
        via_groups = evaluate_space_groups(specs, PARAMS, UNITS)
        via_legacy = evaluate_space(ARM_CORTEX_A9, 3, AMD_K10, 2, PARAMS, UNITS)
        np.testing.assert_array_equal(via_groups.times_s, via_legacy.times_s)
        np.testing.assert_array_equal(via_groups.energies_j, via_legacy.energies_j)
        np.testing.assert_array_equal(via_groups.n, via_legacy.n)

    def test_chunked_three_type_bitwise_equal(self):
        specs = three_groups()
        whole = evaluate_space_groups(specs, PARAMS, UNITS)
        chunked = evaluate_space_groups_chunked(
            specs, PARAMS, UNITS, max_workers=1, n_chunks=3
        )
        np.testing.assert_array_equal(whole.times_s, chunked.times_s)
        np.testing.assert_array_equal(whole.energies_j, chunked.energies_j)
        np.testing.assert_array_equal(whole.n, chunked.n)
        np.testing.assert_array_equal(whole.units, chunked.units)

    def test_subset_keeps_group_axis(self):
        space = evaluate_space_groups(three_groups(), PARAMS, UNITS)
        sub = space.subset(space.is_heterogeneous)
        assert sub.num_groups == 3
        assert sub.is_heterogeneous.all()

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="zero nodes"):
            evaluate_space_groups(three_groups(0, 0, 0), PARAMS, UNITS)
