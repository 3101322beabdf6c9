"""Scenario: declarative experiment descriptions and their serialization."""

import json
import warnings
from pathlib import Path

import pytest

from repro.engine.hashing import stable_hash
from repro.engine.scenario import STAGES, NodeGroup, Scenario
from repro.engine.stagegraph import scenario_identity

#: A scenario file as an earlier release wrote it (with ``reduce_at``,
#: ``simulation`` and ``chunk_rows``).
PARENT_SCENARIO = Path(__file__).parent / "data" / "parent_scenario.json"


class TestValidation:
    def test_minimal_scenario(self):
        s = Scenario(workload="ep")
        assert s.node_a == "arm-cortex-a9"
        assert s.node_b == "amd-k10"
        assert s.wants("calibrate") and s.wants("space")

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Scenario(workload="ep", max_a=-1)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            Scenario(workload="ep", max_a=0, max_b=0)

    def test_nonpositive_units_rejected(self):
        with pytest.raises(ValueError):
            Scenario(workload="ep", units=0.0)

    def test_negative_noise_scale_rejected(self):
        with pytest.raises(ValueError):
            Scenario(workload="ep", noise_scale=-0.1)

    @pytest.mark.parametrize(
        "changes",
        [
            {"units": float("nan")},
            {"units": float("inf")},
            {"window_s": float("nan")},
            {"noise_scale": float("inf")},
            {"noise_scale": float("nan")},
            {"memory_budget_mb": float("nan")},
            {"utilizations": (0.05, float("nan"))},
            {"utilizations": (float("inf"),)},
            {"units": True},
            {"window_s": "20"},
        ],
    )
    def test_non_finite_floats_rejected(self, changes):
        with pytest.raises(ValueError, match="must be a finite number"):
            Scenario(workload="ep", **changes)
        with pytest.raises(ValueError, match="must be a finite number"):
            Scenario.from_dict(dict(workload="ep", **changes))

    @pytest.mark.parametrize(
        "changes",
        [
            {"max_a": float("nan")},
            {"max_a": 1e999},
            {"max_a": True},
            {"max_a": 2.5},
            {"max_b": "3"},
            {"counts_a": (1.7,)},
            {"counts_b": (1, float("nan"))},
            {"node_types": [{"node": "arm-cortex-a9", "max_nodes": float("nan")}]},
            {"node_types": [{"node": "arm-cortex-a9", "max_nodes": 1e999}]},
            {"node_types": [{"node": "arm-cortex-a9", "max_nodes": True}]},
            {"node_types": [{"node": "arm-cortex-a9", "max_nodes": 2.5}]},
            {"node_types": [{"node": "arm-cortex-a9", "counts": [1.7]}]},
            {"node_types": [{"node": "arm-cortex-a9", "counts": [False]}]},
            {"node_types": [{"node": "arm-cortex-a9", "settings": [[2.5, 1.0]]}]},
        ],
    )
    def test_non_integral_node_counts_rejected(self, changes):
        with pytest.raises(ValueError, match="must be an integer"):
            Scenario(workload="ep", **changes)
        with pytest.raises(ValueError, match="must be an integer"):
            Scenario.from_dict(dict(workload="ep", **changes))

    @pytest.mark.parametrize("f", [float("nan"), float("inf"), True, "1.4"])
    def test_non_finite_setting_frequency_rejected(self, f):
        group = {"node": "arm-cortex-a9", "settings": [[2, f]]}
        with pytest.raises(ValueError, match="must be a finite number"):
            NodeGroup(**group)
        with pytest.raises(ValueError, match="must be a finite number"):
            Scenario.from_dict({"workload": "ep", "node_types": [group]})

    def test_node_group_constructor_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="max_nodes must be an integer"):
            NodeGroup("arm-cortex-a9", max_nodes=float("nan"))
        with pytest.raises(ValueError, match="each count must be an integer"):
            NodeGroup("arm-cortex-a9", counts=[1.7])
        with pytest.raises(ValueError, match="cores must be an integer"):
            NodeGroup("arm-cortex-a9", settings=[[True, 1.0]])

    def test_integral_counts_keep_their_identity(self):
        # Guards validate without rewriting: integral floats (as a JSON
        # file may spell them) keep the identities an earlier release
        # computed for the same inputs.
        pair = Scenario(workload="ep", max_a=3.0, max_b=4)
        assert pair.max_a == 3.0 and isinstance(pair.max_a, float)
        assert stable_hash(pair.cache_identity()) == (
            "13456bfcc865b67a23d99de5cd030e96a74489bc3593dcb3ba940ba123d56400"
        )
        groups = Scenario(workload="ep", node_types=[
            {"node": "arm-cortex-a9", "max_nodes": 3.0, "counts": [1.0, 2],
             "settings": [[2.0, 1]]},
            {"node": "amd-k10", "max_nodes": 2},
        ])
        assert groups.node_types[0].counts == (1, 2)
        assert groups.node_types[0].settings == ((2, 1.0),)
        assert stable_hash(groups.cache_identity()) == (
            "82dea1ed909bcca6338d9287d806c5d31ed7f37c3469316b8b7c02746e44756d"
        )

    def test_finite_floats_keep_their_type(self):
        # Validation must not coerce: an int and a float hash differently,
        # so coercing would move cache identities.
        s = Scenario(workload="ep", units=1000, window_s=20)
        assert s.units == 1000 and isinstance(s.units, int)
        assert isinstance(s.window_s, int)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stages"):
            Scenario(workload="ep", stages=("fronteer",))

    def test_lists_coerced_to_tuples(self):
        s = Scenario(workload="ep", counts_a=[1, 2], stages=["frontier"])
        assert s.counts_a == (1, 2)
        assert isinstance(s.stages, tuple)


class TestStageNormalization:
    def test_regions_implies_frontier(self):
        s = Scenario(workload="ep", stages=("regions",))
        assert s.stages == ("calibrate", "space", "frontier", "regions")

    def test_stages_come_out_in_pipeline_order(self):
        s = Scenario(workload="ep", stages=("queueing", "regions", "frontier"))
        assert s.stages == STAGES

    def test_empty_stages_mean_space_only(self):
        s = Scenario(workload="ep", stages=())
        assert s.stages == ("calibrate", "space")
        assert not s.wants("frontier")


class TestSerialization:
    def test_dict_round_trip(self):
        s = Scenario(
            workload="memcached",
            counts_a=(2, 4),
            units=5e4,
            calibrated=True,
            noise_scale=0.5,
            seed=7,
            stages=("frontier", "queueing"),
            name="fig5-ish",
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip(self):
        s = Scenario(workload="ep", utilizations=(0.1, 0.9))
        assert Scenario.from_json(s.to_json()) == s

    def test_file_round_trip(self, tmp_path):
        s = Scenario(workload="ep", seed=3)
        path = tmp_path / "scenario.json"
        path.write_text(s.to_json())
        assert Scenario.from_file(path) == s

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"workload": "ep", "max_arm": 3})

    def test_to_dict_is_json_plain(self):
        raw = Scenario(workload="ep").to_dict()
        assert not any(isinstance(v, tuple) for v in raw.values())

    def test_retired_reduce_at_key_ignored(self):
        # A scenario file an earlier release wrote: it carries the
        # retired ``reduce_at``, ``simulation``, ``chunk_rows`` and
        # ``space_mode`` fields, ``reduce_at`` set to a value that
        # release accepted only for streaming runs.
        with pytest.warns(DeprecationWarning, match="reduce_at") as caught:
            s = Scenario.from_file(PARENT_SCENARIO)
        (warning,) = [w for w in caught if w.category is DeprecationWarning]
        message = str(warning.message)
        for key, reason in (
            ("chunk_rows", "the memory budget alone sizes streaming blocks"),
            ("reduce_at", "folded where it is evaluated"),
            ("simulation", "the batched measurement campaign is the only one"),
            ("space_mode", "every exhaustive run streams its space"),
        ):
            assert f"{key}: " in message and reason in message
        for key in ("reduce_at", "simulation", "chunk_rows", "space_mode"):
            assert key not in s.to_dict()
        # The identities that release computed for the same file.
        assert stable_hash(s.cache_identity()) == (
            "92f72000427299662d3d608d7166e5889b649127a3e7bd2474b32da4f916aea4"
        )
        assert scenario_identity(s) == (
            "678ec9e6ff4c366f4ec8e12e026c1741ba7cf165bf07952eadeda98ef44d4d6f"
        )
        stored = json.loads(PARENT_SCENARIO.read_text())
        with pytest.warns(DeprecationWarning):
            again = Scenario.from_dict(
                dict(stored, space_mode="materialized", reduce_at="sideways")
            )
        assert again == s

    def test_retired_key_admits_no_unknown_keys(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match=r"unknown scenario fields \['max_arm'\]"):
                Scenario.from_dict(
                    {"workload": "ep", "reduce_at": "worker", "max_arm": 3}
                )

    @pytest.mark.parametrize("load", [
        lambda text: Scenario.from_json(text),
        lambda text: Scenario.from_dict(json.loads(text)),
    ], ids=["from_json", "from_dict"])
    def test_retired_field_warning_names_the_caller(self, load):
        text = json.dumps({"workload": "ep", "reduce_at": "worker"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load(text)
        (warning,) = [w for w in caught if w.category is DeprecationWarning]
        assert warning.filename == __file__

    def test_retired_field_warning_from_file_names_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Scenario.from_file(PARENT_SCENARIO)
        (warning,) = [w for w in caught if w.category is DeprecationWarning]
        assert warning.filename == __file__


class TestIdentity:
    def test_name_is_cosmetic(self):
        a = Scenario(workload="ep", name="monday")
        b = Scenario(workload="ep", name="tuesday")
        assert a.cache_identity() == b.cache_identity()
        assert stable_hash(a.cache_identity()) == stable_hash(b.cache_identity())

    def test_seed_changes_identity(self):
        a = Scenario(workload="ep", seed=0)
        b = Scenario(workload="ep", seed=1)
        assert stable_hash(a.cache_identity()) != stable_hash(b.cache_identity())

    def test_with_applies_changes(self):
        s = Scenario(workload="ep", seed=0)
        t = s.with_(seed=9, name="sweep")
        assert (t.seed, t.name) == (9, "sweep")
        assert s.seed == 0  # original untouched (frozen)
