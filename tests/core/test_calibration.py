"""Trace-driven calibration: measured parameters vs ground truth."""

import pytest

from repro.core.calibration import (
    calibrate_node,
    ground_truth_params,
    measure_scale_constancy,
    params_for,
)
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.simulator.noise import CALIBRATED_NOISE, NOISELESS
from repro.workloads.suite import EP, MEMCACHED, X264


class TestGroundTruth:
    def test_copies_profile_values(self):
        params = ground_truth_params(ARM_CORTEX_A9, EP)
        profile = EP.profile_for(ARM_CORTEX_A9.name)
        assert params.instructions_per_unit == profile.instructions_per_unit
        assert params.wpi == profile.wpi
        assert params.spi_core == profile.spi_core
        assert params.u_cpu == profile.cpu_utilization
        assert params.source == "ground-truth"

    def test_power_tables_cover_all_pstates(self):
        params = ground_truth_params(AMD_K10, EP)
        assert params.pstates() == AMD_K10.cores.pstates_ghz

    def test_spimem_fit_matches_latency_model(self):
        params = ground_truth_params(AMD_K10, X264)
        profile = X264.profile_for(AMD_K10.name)
        cores = 6
        f = 2.1
        c_act = profile.cpu_utilization * cores
        truth = profile.spi_mem(AMD_K10.memory.latency_ns(c_act, 1.0), f)
        # The linear fit absorbs the small quadratic contention term.
        assert params.spi_mem(cores, f) == pytest.approx(truth, rel=0.05)

    def test_spimem_fits_per_core_count(self):
        params = ground_truth_params(AMD_K10, X264)
        assert params.spimem.core_counts() == (1, 2, 3, 4, 5, 6)
        assert params.spi_mem(6, 2.1) > params.spi_mem(1, 2.1)


class TestCalibration:
    def test_noiseless_calibration_recovers_truth(self):
        """With noise off, calibration = ground truth (up to fit residue)."""
        measured = calibrate_node(
            ARM_CORTEX_A9, EP, noise=NOISELESS, seed=0, repetitions=1
        )
        truth = ground_truth_params(ARM_CORTEX_A9, EP)
        assert measured.instructions_per_unit == pytest.approx(
            truth.instructions_per_unit, rel=1e-6
        )
        assert measured.wpi == pytest.approx(truth.wpi, rel=1e-6)
        assert measured.spi_core == pytest.approx(truth.spi_core, rel=1e-6)
        assert measured.u_cpu == pytest.approx(truth.u_cpu, rel=1e-6)
        for f in ARM_CORTEX_A9.cores.pstates_ghz:
            assert measured.p_act(f) == pytest.approx(truth.p_act(f), rel=1e-6)

    def test_noisy_calibration_close_to_truth(self):
        measured = calibrate_node(ARM_CORTEX_A9, EP, noise=CALIBRATED_NOISE, seed=1)
        truth = ground_truth_params(ARM_CORTEX_A9, EP)
        assert measured.instructions_per_unit == pytest.approx(
            truth.instructions_per_unit, rel=0.05
        )
        assert measured.wpi == pytest.approx(truth.wpi, rel=0.05)
        assert measured.p_idle_w == pytest.approx(truth.p_idle_w, rel=0.1)
        assert measured.source == "calibrated"

    def test_diagnostics_recorded(self):
        measured = calibrate_node(ARM_CORTEX_A9, EP, seed=2)
        assert "wpi_rel_spread" in measured.diagnostics
        assert "spimem_worst_r2" in measured.diagnostics
        assert measured.diagnostics["wpi_rel_spread"] < 0.05

    def test_spimem_regression_quality(self):
        """The Fig. 3 claim: measured SPI_mem regresses with r^2 >= 0.94."""
        measured = calibrate_node(AMD_K10, X264, seed=3)
        assert measured.spimem.worst_r2() >= 0.94

    def test_io_demand_measured(self):
        measured = calibrate_node(
            ARM_CORTEX_A9, MEMCACHED, noise=NOISELESS, seed=0, repetitions=1
        )
        assert measured.io_bytes_per_unit == pytest.approx(1024.0, rel=1e-6)
        assert measured.io_job_arrival_rate is None

    def test_reproducible_under_seed(self):
        a = calibrate_node(ARM_CORTEX_A9, EP, seed=7)
        b = calibrate_node(ARM_CORTEX_A9, EP, seed=7)
        assert a.instructions_per_unit == b.instructions_per_unit
        assert a.p_idle_w == b.p_idle_w

    def test_different_seeds_differ(self):
        a = calibrate_node(ARM_CORTEX_A9, EP, seed=7)
        b = calibrate_node(ARM_CORTEX_A9, EP, seed=8)
        assert a.instructions_per_unit != b.instructions_per_unit

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            calibrate_node(ARM_CORTEX_A9, EP, repetitions=0)
        with pytest.raises(ValueError):
            calibrate_node(ARM_CORTEX_A9, EP, baseline_units=0.0)
        from repro.workloads.microbench import cpu_max_microbench

        with pytest.raises(KeyError):
            calibrate_node(AMD_K10, cpu_max_microbench(ARM_CORTEX_A9))


class TestNoisyPowerSlopes:
    def test_scenario_whose_stall_slope_reads_negative_runs(self):
        # This seed's meter error drives the AMD node's 0.8 GHz stall
        # slope (truth 0.19 W per core) below zero; it reads as 0 W and
        # the run goes ahead instead of failing parameter validation.
        from repro.engine import RunContext, Scenario, run_scenario

        scenario = Scenario(workload="ep", max_a=5, max_b=5,
                            calibrated=True, seed=1927029302,
                            stages=("frontier",))
        result = run_scenario(scenario, RunContext(max_workers=1))
        assert result.params[AMD_K10.name].p_core_stall_w[0.8] == 0.0
        assert len(result.frontier) > 0


class TestParamsFor:
    def test_ground_truth_for_both_nodes(self):
        params = params_for((ARM_CORTEX_A9, AMD_K10), EP)
        assert set(params) == {"arm-cortex-a9", "amd-k10"}
        assert all(p.source == "ground-truth" for p in params.values())

    def test_calibrated_mode(self):
        params = params_for((ARM_CORTEX_A9,), EP, calibrated=True, seed=0)
        assert params["arm-cortex-a9"].source == "calibrated"


class TestScaleConstancy:
    def test_wpi_flat_across_sizes(self):
        """The Fig. 2 hypothesis, on the simulated testbed."""
        measured = measure_scale_constancy(
            ARM_CORTEX_A9, EP, {"A": 1e4, "B": 1e5, "C": 1e6}, seed=0
        )
        wpis = [measured[s]["wpi"] for s in ("A", "B", "C")]
        spread = (max(wpis) - min(wpis)) / min(wpis)
        assert spread < 0.05

    def test_spi_core_flat_across_sizes(self):
        measured = measure_scale_constancy(
            AMD_K10, EP, {"A": 1e4, "B": 1e5, "C": 1e6}, seed=1
        )
        spis = [measured[s]["spi_core"] for s in ("A", "B", "C")]
        spread = (max(spis) - min(spis)) / min(spis)
        assert spread < 0.06
