"""Power-meter emulation and characterization procedures."""

import numpy as np
import pytest

from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.simulator.noise import CALIBRATED_NOISE, NOISELESS
from repro.simulator.power_meter import PowerMeter, PowerSample


class TestReadings:
    def test_idle_reading_near_truth(self):
        meter = PowerMeter(AMD_K10, noise=CALIBRATED_NOISE, seed=0)
        sample = meter.measure_idle()
        assert sample.watts == pytest.approx(45.0, rel=0.06)

    def test_noiseless_reading_exact(self):
        meter = PowerMeter(ARM_CORTEX_A9, noise=NOISELESS, seed=0)
        assert meter.measure_idle().watts == pytest.approx(1.2)

    def test_cpu_active_reading(self):
        node = ARM_CORTEX_A9
        meter = PowerMeter(node, noise=NOISELESS, seed=0)
        sample = meter.measure_cpu_active(4, 1.4)
        expected = node.power.idle_w + 4 * node.power.core_active.watts(1.4)
        assert sample.watts == pytest.approx(expected)

    def test_stall_reading_includes_memory(self):
        node = AMD_K10
        meter = PowerMeter(node, noise=NOISELESS, seed=0)
        sample = meter.measure_cpu_stall(6, 2.1)
        expected = (
            node.power.idle_w
            + 6 * node.power.core_stall.watts(2.1)
            + node.power.mem_active_w
        )
        assert sample.watts == pytest.approx(expected)

    def test_invalid_setting_rejected(self):
        meter = PowerMeter(ARM_CORTEX_A9, seed=0)
        with pytest.raises(ValueError):
            meter.measure_cpu_active(9, 1.4)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            PowerSample(watts=-1.0, duration_s=1.0)
        with pytest.raises(ValueError):
            PowerSample(watts=1.0, duration_s=0.0)


class TestCharacterization:
    @pytest.mark.parametrize("node", (ARM_CORTEX_A9, AMD_K10), ids=lambda n: n.name)
    def test_core_active_slope_recovers_truth(self, node):
        meter = PowerMeter(node, noise=NOISELESS, seed=0)
        f = node.cores.fmax_ghz
        estimate = meter.characterize_core_active(f)
        assert estimate == pytest.approx(node.power.core_active.watts(f), rel=1e-6)

    def test_core_stall_slope_recovers_truth(self):
        node = ARM_CORTEX_A9
        meter = PowerMeter(node, noise=NOISELESS, seed=0)
        estimate = meter.characterize_core_stall(0.8)
        assert estimate == pytest.approx(node.power.core_stall.watts(0.8), rel=1e-6)

    def test_noisy_characterization_close(self):
        node = AMD_K10
        meter = PowerMeter(node, noise=CALIBRATED_NOISE, seed=1)
        estimate = meter.characterize_core_active(2.1)
        assert estimate == pytest.approx(node.power.core_active.watts(2.1), rel=0.25)

    @pytest.mark.parametrize(
        "characterize", ("characterize_core_active", "characterize_core_stall")
    )
    def test_negative_slope_reads_as_zero(self, characterize, monkeypatch):
        """Readings that fall with the core count (meter error beside a
        tiny per-core power) estimate 0 W, never a negative power."""
        meter = PowerMeter(AMD_K10, noise=NOISELESS, seed=0)
        monkeypatch.setattr(
            meter, "_read_many",
            lambda true_watts: 50.0 - 0.01 * np.arange(len(true_watts)),
        )
        assert getattr(meter, characterize)(0.8) == 0.0

    def test_io_characterization(self):
        node = ARM_CORTEX_A9
        meter = PowerMeter(node, noise=NOISELESS, seed=0)
        assert meter.characterize_io() == pytest.approx(node.power.io_active_w)

    def test_idle_repetitions_validated(self):
        meter = PowerMeter(ARM_CORTEX_A9, seed=0)
        with pytest.raises(ValueError):
            meter.characterize_idle(repetitions=0)

    def test_session_calibration_fixed(self):
        """Two meters with different seeds disagree; one meter is stable."""
        m1 = PowerMeter(AMD_K10, noise=CALIBRATED_NOISE, seed=1)
        readings = [m1.measure_idle().watts for _ in range(5)]
        spread = max(readings) - min(readings)
        assert spread / 45.0 < 0.03  # within-session jitter only
