"""A bench power meter for the simulated testbed (Yokogawa WT210 stand-in).

The paper characterizes power (Section II-D2) by pointing a wall-plug
meter at a node while it runs a micro-benchmark pinned to a given core
count and frequency.  :class:`PowerMeter` reproduces that workflow: it
"samples" a node's power during a simulated steady state and reports the
average with the instrument's calibration error and sampling jitter, so
calibration code downstream sees realistic readings rather than the
catalog's ground-truth coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.hardware.specs import NodeSpec
from repro.simulator.noise import CALIBRATED_NOISE, NoiseModel
from repro.util.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class PowerSample:
    """One averaged meter reading."""

    watts: float
    duration_s: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.watts < 0:
            raise ValueError("meter cannot read negative power")
        if self.duration_s <= 0:
            raise ValueError("sample duration must be positive")


class PowerMeter:
    """Samples a node's power in synthetic steady states.

    Parameters
    ----------
    node:
        Machine under the meter.
    noise:
        Instrument model: ``meter_sigma`` is the calibration error (one
        draw per meter session), and per-sample jitter is taken as half
        of it (line noise, quantization).
    """

    #: Number of one-second readings averaged per measurement.
    SAMPLES_PER_READING = 10

    def __init__(self, node: NodeSpec, noise: NoiseModel = CALIBRATED_NOISE, seed: SeedLike = None):
        self.node = node
        self.noise = noise
        rng = ensure_rng(seed)
        # Instrument calibration is fixed for the session.
        self._calibration = float(noise.factor(rng, noise.meter_sigma))
        self._rng = rng
        self._prefetch: np.ndarray = np.empty((0, self.SAMPLES_PER_READING))
        self._prefetch_used = 0

    # -- steady-state measurement primitives -----------------------------

    def prefetch_readings(self, n_reads: int) -> None:
        """Draw the jitter factors for the next ``n_reads`` readings at once.

        One fused ``standard_normal`` block replaces ``n_reads`` sequential
        per-reading draws; readings that consume it are bit-identical to
        unprefetched ones because ``normal(1, s, k)`` consumes the bit
        stream exactly like ``1 + s * standard_normal(k)``.  Prefetching
        more readings than are then taken only discards tail draws the
        session would never observe.
        """
        if n_reads < 1:
            raise ValueError("need at least one reading to prefetch")
        if self.noise.meter_sigma == 0.0:
            return  # factor() draws nothing at zero sigma
        self._prefetch = self._jitter_factors(n_reads)
        self._prefetch_used = 0

    def _jitter_factors(self, n_reads: int) -> np.ndarray:
        """``(n_reads, SAMPLES_PER_READING)`` jitter factors, one fused draw.

        Must consume the meter's RNG exactly like ``n_reads`` sequential
        ``noise.factor(rng, jitter, size=SAMPLES_PER_READING)`` calls.
        """
        jitter_sigma = self.noise.meter_sigma / 2.0
        shape = (n_reads, self.SAMPLES_PER_READING)
        if jitter_sigma == 0.0:
            return np.ones(shape)
        z = self._rng.standard_normal(n_reads * self.SAMPLES_PER_READING)
        factors = np.clip(
            1.0 + jitter_sigma * z,
            1.0 - 3.0 * jitter_sigma,
            1.0 + 3.0 * jitter_sigma,
        )
        return factors.reshape(shape)

    def _next_factors(self, n_reads: int) -> np.ndarray:
        """The next ``n_reads`` readings' factors, prefetched or fresh."""
        remaining = self._prefetch.shape[0] - self._prefetch_used
        if remaining >= n_reads:
            out = self._prefetch[self._prefetch_used:self._prefetch_used + n_reads]
            self._prefetch_used += n_reads
            return out
        return self._jitter_factors(n_reads)

    def _read(self, true_watts: float, label: str) -> PowerSample:
        samples = true_watts * self._next_factors(1)[0]
        watts = float(np.mean(samples)) * self._calibration
        return PowerSample(
            watts=max(0.0, watts),
            duration_s=float(self.SAMPLES_PER_READING),
            label=label,
        )

    def _read_many(self, true_watts: np.ndarray) -> np.ndarray:
        """Average meter readings for several steady states in one pass.

        Row ``i`` is bit-identical to ``_read(true_watts[i], ...)``: the
        factors come off the same stream and the row-wise mean reduces 10
        contiguous samples exactly like the scalar read's 1-D mean.
        """
        factors = self._next_factors(len(true_watts))
        samples = true_watts[:, np.newaxis] * factors
        watts = np.mean(samples, axis=1) * self._calibration
        return np.maximum(0.0, watts)

    def measure_idle(self) -> PowerSample:
        """Node power with no workload (``P_idle``)."""
        return self._read(self.node.power.idle_w, "idle")

    def measure_cpu_active(self, cores: int, f_ghz: float) -> PowerSample:
        """Node power while the CPU-max micro-benchmark runs.

        True power is ``P_idle + cores * P_CPU,act(f)``; the NIC and
        memory are quiescent under this kernel.
        """
        self.node.cores.validate_setting(cores, f_ghz)
        true = self.node.power.idle_w + cores * self.node.power.core_active.watts(f_ghz)
        return self._read(true, f"cpu-max c={cores} f={f_ghz}")

    def measure_cpu_stall(self, cores: int, f_ghz: float) -> PowerSample:
        """Node power while the cache-miss (stall) micro-benchmark runs.

        True power adds the stalled-core draw and the now-busy memory.
        """
        self.node.cores.validate_setting(cores, f_ghz)
        true = (
            self.node.power.idle_w
            + cores * self.node.power.core_stall.watts(f_ghz)
            + self.node.power.mem_active_w
        )
        return self._read(true, f"stall c={cores} f={f_ghz}")

    # -- derived characterization ----------------------------------------

    def characterize_core_active(self, f_ghz: float) -> float:
        """Estimate per-core active power at ``f_ghz`` by differencing.

        Measures the CPU-max kernel at every core count and regresses the
        readings on the count -- the slope is ``P_CPU,act(f)``.  This is
        the paper's measurement procedure, and it inherits meter error.
        A slope the meter error drives below zero reads as 0 W, as
        :meth:`characterize_io` does: power is never negative.
        """
        self.node.cores.validate_setting(self.node.cores.count, f_ghz)
        counts = np.arange(1, self.node.cores.count + 1)
        per_core = self.node.power.core_active.watts(f_ghz)
        readings = self._read_many(self.node.power.idle_w + counts * per_core)
        return max(0.0, _slope(counts, readings))

    def characterize_core_stall(self, f_ghz: float) -> float:
        """Estimate per-core stall power at ``f_ghz`` (slope over cores).

        At low P-states a core stalls on a fraction of a watt, small
        beside the meter's error on the whole node's draw, so the slope
        can come out negative; it then reads as 0 W.
        """
        self.node.cores.validate_setting(self.node.cores.count, f_ghz)
        counts = np.arange(1, self.node.cores.count + 1)
        per_core = self.node.power.core_stall.watts(f_ghz)
        # Term order matches measure_cpu_stall: (idle + c*stall) + mem.
        readings = self._read_many(
            self.node.power.idle_w + counts * per_core + self.node.power.mem_active_w
        )
        return max(0.0, _slope(counts, readings))

    def characterize_idle(self, repetitions: int = 3) -> float:
        """Average several idle readings (``P_idle``)."""
        if repetitions < 1:
            raise ValueError("need at least one repetition")
        readings = self._read_many(np.full(repetitions, self.node.power.idle_w))
        return float(np.mean(readings))

    def characterize_io(self) -> float:
        """Estimate NIC active power by differencing against idle."""
        active, idle = self._read_many(
            np.asarray(
                [
                    self.node.power.idle_w + self.node.power.io_active_w,
                    self.node.power.idle_w,
                ]
            )
        )
        return max(0.0, float(active) - float(idle))


def _slope(x: List[int], y: List[float]) -> float:
    """Least-squares slope of ``y`` on ``x`` (local to avoid a util import cycle)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    xbar = xa.mean()
    denom = float(np.sum((xa - xbar) ** 2))
    if denom == 0.0:
        raise ValueError("cannot regress power on a single core count")
    return float(np.sum((xa - xbar) * (ya - ya.mean())) / denom)
