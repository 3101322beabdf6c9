"""Property tests of the batched measurement layer.

The whole vectorization contract rests on two claims, so both are tested
exhaustively here:

1. the seed-tree fast path (:mod:`repro.util.seedtree`) derives exactly
   the generator states numpy's ``SeedSequence`` -> ``PCG64`` pipeline
   would, for any entropy/spawn-key shape;
2. :func:`repro.simulator.batch.run_batch` rows are **bit-identical** to
   the scalar :meth:`NodeSimulator.run` reference given the same seeds,
   for every noise regime (calibrated, noiseless, straggler-heavy,
   zero-meter), and the campaigns built on it (calibration, Table 3/4
   validation, cluster jobs, Fig. 3) reproduce, hash for hash, the
   outputs recorded in ``data/campaign_golden.json``.

To re-record the golden after a deliberate change of a campaign's
output, run ``PYTHONPATH=src python tests/property/test_batch_properties.py``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import calibrate_node
from repro.engine.hashing import stable_hash
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.reporting.figures import build_fig3
from repro.simulator.batch import repeat_settings, run_batch
from repro.simulator.cluster import ClusterSimulator, GroupAssignment
from repro.simulator.node import NodeSimulator
from repro.simulator.noise import CALIBRATED_NOISE, NOISELESS
from repro.simulator.power_meter import PowerMeter
from repro.util.rng import RngStream
from repro.util.seedtree import (
    entropy_words,
    pcg64_states,
    padded_entropy_words,
    seat_generators,
)
from repro.validation.harness import validate_cluster, validate_single_node
from repro.workloads.suite import EP, MEMCACHED

entropy_ints = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**128 - 1),
)
spawn_keys = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), min_size=0, max_size=4
).map(tuple)


class TestSeedTreeGroundTruth:
    """The reimplementation must match numpy bit for bit."""

    @given(entropy=entropy_ints, spawn_key=spawn_keys)
    @settings(max_examples=150, deadline=None)
    def test_pcg64_state_matches_numpy(self, entropy, spawn_key):
        words = entropy_words(entropy, spawn_key)
        (state, inc), = pcg64_states([words])
        reference = np.random.PCG64(
            np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
        ).state["state"]
        assert state == reference["state"]
        assert inc == reference["inc"]

    @given(entropy=entropy_ints, spawn_key=spawn_keys)
    @settings(max_examples=50, deadline=None)
    def test_seated_draws_match_default_rng(self, entropy, spawn_key):
        words = entropy_words(entropy, spawn_key)
        rng = next(seat_generators([words]))
        reference = np.random.default_rng(
            np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
        )
        assert (rng.standard_normal(8) == reference.standard_normal(8)).all()
        assert rng.random() == reference.random()
        assert (
            rng.standard_exponential(5) == reference.standard_exponential(5)
        ).all()

    @given(entropy=entropy_ints)
    @settings(max_examples=50, deadline=None)
    def test_padded_words_are_the_spawn_prefix(self, entropy):
        key = (7, 99)
        assert padded_entropy_words(entropy) + key == entropy_words(entropy, key)

    def test_mixed_width_batch(self):
        """Rows of different word widths may share one derivation call."""
        rows = [
            entropy_words(3),
            entropy_words(2**70, (1, 2)),
            entropy_words(5, (2**30,)),
        ]
        got = pcg64_states(rows)
        for (state, inc), (entropy, key) in zip(
            got, [(3, ()), (2**70, (1, 2)), (5, (2**30,))]
        ):
            ref = np.random.PCG64(
                np.random.SeedSequence(entropy=entropy, spawn_key=key)
            ).state["state"]
            assert (state, inc) == (ref["state"], ref["inc"])

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError):
            entropy_words(-1)

    def test_seat_reuse_is_sequential(self):
        """Re-seating replaces the previous stream's state."""
        rows = [entropy_words(1), entropy_words(2)]
        generators = list(seat_generators(rows))
        assert generators[0] is generators[1]  # one shared object
        # Draw from the final seating: must equal stream 2, not stream 1.
        assert generators[1].random() == np.random.default_rng(2).random()


class TestRngStreamFastPath:
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_entropy_words_reproduce_child_rng(self, seed):
        child = RngStream(seed).child("measure", 3).child("rep", 1)
        seated = next(seat_generators([child.entropy_words()]))
        assert seated.random() == child.rng.random()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_generator_is_lazy(self):
        stream = RngStream(0)
        children = [stream.child("x", i) for i in range(100)]
        assert all(c._rng is None for c in children)
        assert children[7].rng is children[7].rng  # built once on access

    def test_generator_seed_digested_to_int(self):
        stream = RngStream(np.random.default_rng(0))
        assert isinstance(stream._seed, int)  # derived deterministically

    def test_non_int_seed_has_no_words(self):
        assert RngStream(np.random.SeedSequence(5)).entropy_words() is None


NOISE_VARIANTS = {
    "calibrated": CALIBRATED_NOISE,
    "noiseless": NOISELESS,
    "straggler-heavy": replace(
        CALIBRATED_NOISE, straggler_probability=0.5, straggler_slowdown=2.0
    ),
    "zero-meter": replace(CALIBRATED_NOISE, meter_sigma=0.0),
}


class TestRunBatchBitIdentity:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_VARIANTS))
    @pytest.mark.parametrize(
        "node,workload", [(ARM_CORTEX_A9, EP), (AMD_K10, MEMCACHED)]
    )
    def test_rows_equal_scalar_runs(self, node, workload, noise_name):
        noise = NOISE_VARIANTS[noise_name]
        sim = NodeSimulator(node, noise=noise)
        settings_rows = repeat_settings(
            [(1, node.cores.pstates_ghz[0]), (node.cores.count, node.cores.fmax_ghz)],
            3,
        )
        stream = RngStream(11)
        seeds = [stream.child("row", i) for i in range(len(settings_rows))]
        batch = sim.run_batch(workload, 500.0, settings_rows, seeds)
        for i, (cores, f) in enumerate(settings_rows):
            scalar = sim.run(
                workload, 500.0, cores, f, seed=stream.child("row", i).rng
            )
            assert batch.row(i) == scalar, f"row {i} diverged under {noise_name}"

    @pytest.mark.parametrize("floor_s", [1e-3, 10.0])
    def test_arrival_floor_rows_equal_scalar_runs(self, floor_s):
        # The I/O arrival floor ClusterSimulator.run_job passes for
        # workloads with an I/O job arrival rate.
        sim = NodeSimulator(AMD_K10, noise=CALIBRATED_NOISE)
        settings_rows = repeat_settings(
            [(1, AMD_K10.cores.pstates_ghz[0]), (AMD_K10.cores.count, AMD_K10.cores.fmax_ghz)],
            2,
        )
        stream = RngStream(13)
        seeds = [stream.child("floor", i) for i in range(len(settings_rows))]
        batch = sim.run_batch(
            MEMCACHED, 500.0, settings_rows, seeds, arrival_floor_s=floor_s
        )
        for i, (cores, f) in enumerate(settings_rows):
            scalar = sim.run(
                MEMCACHED, 500.0, cores, f,
                seed=stream.child("floor", i).rng, arrival_floor_s=floor_s,
            )
            assert batch.row(i) == scalar, f"row {i} diverged at floor {floor_s}"

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_bit_identical(self, seed):
        sim = NodeSimulator(ARM_CORTEX_A9, noise=CALIBRATED_NOISE)
        stream = RngStream(seed)
        f = ARM_CORTEX_A9.cores.fmax_ghz
        batch = sim.run_batch(EP, 100.0, [(2, f)], [stream.child("only")])
        scalar = sim.run(EP, 100.0, 2, f, seed=stream.child("only").rng)
        assert batch.row(0) == scalar

    def test_generator_seeds_accepted(self):
        """Non-RngStream seeds fall back to per-row generators."""
        sim = NodeSimulator(ARM_CORTEX_A9, noise=CALIBRATED_NOISE)
        f = ARM_CORTEX_A9.cores.fmax_ghz
        batch = sim.run_batch(
            EP, 100.0, [(1, f)], [np.random.default_rng(3)]
        )
        scalar = sim.run(EP, 100.0, 1, f, seed=np.random.default_rng(3))
        assert batch.row(0) == scalar

    def test_mismatched_lengths_rejected(self):
        sim = NodeSimulator(ARM_CORTEX_A9)
        f = ARM_CORTEX_A9.cores.fmax_ghz
        with pytest.raises(ValueError):
            run_batch(sim, EP, 100.0, [(1, f)], [0, 1])

    def test_batch_mean_consistent_with_clt(self):
        """Batched noisy times scatter around the noiseless time.

        A sanity check that vectorized noise is actually *noise*: the
        mean over many repetitions converges on the deterministic value
        and the spread is small (CLT-scaled phase noise).
        """
        sim = NodeSimulator(ARM_CORTEX_A9, noise=CALIBRATED_NOISE)
        clean = NodeSimulator(ARM_CORTEX_A9, noise=NOISELESS)
        f = ARM_CORTEX_A9.cores.fmax_ghz
        rows = repeat_settings([(2, f)], 200)
        stream = RngStream(5)
        seeds = [stream.child("clt", i) for i in range(len(rows))]
        # Large unit count so compute, not startup jitter, dominates.
        batch = sim.run_batch(EP, 1_000_000.0, rows, seeds)
        truth = clean.run(EP, 1_000_000.0, 2, f, seed=0).time_s
        assert np.mean(batch.time_s) == pytest.approx(truth, rel=0.05)
        assert np.std(batch.time_s) < 0.25 * truth


class TestPowerMeterPrefetch:
    def test_prefetched_reads_bit_identical(self):
        fresh = PowerMeter(AMD_K10, noise=CALIBRATED_NOISE, seed=4)
        prefetched = PowerMeter(AMD_K10, noise=CALIBRATED_NOISE, seed=4)
        pstates = AMD_K10.cores.pstates_ghz
        prefetched.prefetch_readings(2 * len(pstates) * AMD_K10.cores.count + 3 + 2)
        for f in pstates:
            assert prefetched.characterize_core_active(f) == fresh.characterize_core_active(f)
        for f in pstates:
            assert prefetched.characterize_core_stall(f) == fresh.characterize_core_stall(f)
        assert prefetched.characterize_idle() == fresh.characterize_idle()
        assert prefetched.characterize_io() == fresh.characterize_io()

    def test_prefetch_validates(self):
        meter = PowerMeter(AMD_K10, seed=0)
        with pytest.raises(ValueError):
            meter.prefetch_readings(0)

    def test_exhausted_prefetch_draws_fresh(self):
        a = PowerMeter(AMD_K10, noise=CALIBRATED_NOISE, seed=9)
        b = PowerMeter(AMD_K10, noise=CALIBRATED_NOISE, seed=9)
        a.prefetch_readings(1)
        # First read consumes the prefetch; the second draws fresh but
        # from the same stream position as the unprefetched meter.
        assert a.measure_idle() == b.measure_idle()
        assert a.measure_idle() == b.measure_idle()


#: Campaign goldens: one stable hash per (campaign, noise, seed).
GOLDEN = Path(__file__).parent / "data" / "campaign_golden.json"
GOLDEN_NOISES = {
    name: NOISE_VARIANTS[name] for name in ("calibrated", "straggler-heavy")
}
GOLDEN_SEEDS = (2, 7)


def _run_job(noise, seed):
    arm_f = ARM_CORTEX_A9.cores.fmax_ghz
    amd_f = AMD_K10.cores.pstates_ghz[0]
    assignments = [
        GroupAssignment(ARM_CORTEX_A9, 2, ARM_CORTEX_A9.cores.count, arm_f, 6_000.0),
        GroupAssignment(AMD_K10, 1, 2, amd_f, 4_000.0),
    ]
    return ClusterSimulator(noise=noise).run_job(EP, assignments, seed=seed)


#: The measurement campaigns the paper's Section III and Tables 3-4 run,
#: each as ``fn(noise, seed) -> hashable output``.
CAMPAIGNS = {
    "calibrate_node": lambda noise, seed: calibrate_node(
        ARM_CORTEX_A9, EP, noise=noise, seed=seed
    ),
    "validate_single_node": lambda noise, seed: validate_single_node(
        AMD_K10, MEMCACHED, noise=noise, seed=seed, repetitions=2
    ).records,
    "validate_cluster": lambda noise, seed: validate_cluster(
        ARM_CORTEX_A9, 2, AMD_K10, 1, EP, noise=noise, seed=seed
    ).record,
    "run_job": _run_job,
    "build_fig3": lambda noise, seed: build_fig3(noise=noise, seed=seed),
}


def _golden_key(campaign, noise_name, seed):
    return f"{campaign}/{noise_name}/{seed}"


@pytest.fixture(scope="module")
def campaign_golden():
    return json.loads(GOLDEN.read_text())


def _assert_campaign_matches_golden(golden, campaign):
    for noise_name, noise in GOLDEN_NOISES.items():
        for seed in GOLDEN_SEEDS:
            key = _golden_key(campaign, noise_name, seed)
            assert stable_hash(CAMPAIGNS[campaign](noise, seed)) == golden[key], key


class TestCampaignEquality:
    """Whole campaigns reproduce the recorded reference, hash for hash.

    ``data/campaign_golden.json`` was recorded when each campaign still
    had a scalar per-run loop beside the batched one, and the recording
    asserted that the two agreed.  Each test checks the batched campaign
    -- now the only one -- against that record under calibrated and
    straggler-heavy noise at two seeds.  :class:`TestRunBatchBitIdentity`
    keeps :meth:`NodeSimulator.run` as the row-level oracle.
    """

    def test_calibration_batched_equals_reference(self, campaign_golden):
        _assert_campaign_matches_golden(campaign_golden, "calibrate_node")

    def test_validation_batched_equals_reference(self, campaign_golden):
        _assert_campaign_matches_golden(campaign_golden, "validate_single_node")

    def test_cluster_batched_equals_reference(self, campaign_golden):
        _assert_campaign_matches_golden(campaign_golden, "validate_cluster")

    def test_run_job_batched_equals_reference(self, campaign_golden):
        _assert_campaign_matches_golden(campaign_golden, "run_job")

    def test_fig3_batched_equals_reference(self, campaign_golden):
        _assert_campaign_matches_golden(campaign_golden, "build_fig3")


def _rerecord() -> None:
    """Rewrite the golden file from the current campaigns."""
    out = {
        _golden_key(campaign, noise_name, seed): stable_hash(run(noise, seed))
        for campaign, run in CAMPAIGNS.items()
        for noise_name, noise in GOLDEN_NOISES.items()
        for seed in GOLDEN_SEEDS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _rerecord()
