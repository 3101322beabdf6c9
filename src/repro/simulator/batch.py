"""Batched node simulation: many runs through one NumPy pass.

:meth:`repro.simulator.node.NodeSimulator.run` is the readable reference:
one Python call per simulated run, ~30 small NumPy operations each.  The
measurement layer (calibration campaigns, the Table 3/4 validation
harness, the sweeps) needs R repetitions x S machine settings of those
runs, and the Python-call overhead dominates the arithmetic.

:func:`run_batch` simulates all ``N = R * S`` runs in one pass: every
noise factor is drawn as an ``(N, B)`` (or ``(N,)``) array -- one row per
run, from that run's *own* random stream -- and the phase arithmetic is
evaluated on the stacked arrays.  Two invariants make the batch a drop-in
replacement rather than an approximation:

* **Seed-tree determinism**: row ``i`` consumes its generator
  ``seeds[i]`` with exactly the draw sequence of the scalar path
  (systematic factor, meter factor, optional straggler coin, four
  per-phase factor vectors, I/O factor, startup factor), so row ``i`` is
  **bit-identical** to ``run(..., seed=seeds[i])`` -- property-tested in
  ``tests/property/test_batch_properties.py``.
* **Scalar-exact setting constants**: the per-setting deterministic
  quantities (active cores, clock, memory latency, component powers) are
  computed per *unique* setting with the very same Python-float
  expressions as the scalar path, then scattered to rows, so no
  vectorized re-derivation can drift in the last bit.

Elementwise float64 operations are IEEE-deterministic and the row-wise
reductions (`sum` along the last axis of a C-contiguous array) reduce in
the same order as the scalar path's 1-D sums, which is why bit-identity
holds rather than merely tolerance-level agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.simulator.counters import CounterSet
from repro.util.rng import RngStream, SeedLike, ensure_rng
from repro.util.seedtree import seat_generators
from repro.util.units import ghz_to_hz
from repro.workloads.base import WorkloadSpec


def _row_rngs(seeds: Sequence[SeedLike]):
    """Per-row generators, derived vectorized when the seeds allow it.

    A batch seeded by ``RngStream`` children (the common campaign shape)
    skips numpy's per-child ``SeedSequence``/``PCG64`` construction:
    every child state is computed in one :mod:`repro.util.seedtree`
    array pass and a single shared generator is re-seated per row.  The
    yielded generators are bit-identical to ``seed.rng`` but only valid
    until the next row is requested -- exactly how the draw loops below
    consume them.  Any other seed type falls back to ``ensure_rng``.
    """
    word_rows = []
    for seed in seeds:
        words = seed.entropy_words() if isinstance(seed, RngStream) else None
        if words is None:
            return (ensure_rng(seed) for seed in seeds)
        word_rows.append(words)
    return seat_generators(word_rows)


@dataclass(frozen=True)
class BatchRunResult:
    """Observables of ``N`` node runs, as parallel arrays of length ``N``.

    Field semantics match :class:`repro.simulator.node.NodeRunResult`
    row-for-row; :meth:`row` materializes one run in the scalar form.
    """

    time_s: np.ndarray
    t_cpu_s: np.ndarray
    t_core_s: np.ndarray
    t_mem_s: np.ndarray
    t_io_s: np.ndarray
    energy_j: np.ndarray
    mean_power_w: np.ndarray
    #: Counter arrays, mirroring :class:`CounterSet` fields.
    instructions: np.ndarray
    work_cycles: np.ndarray
    core_stall_cycles: np.ndarray
    mem_stall_cycles: np.ndarray
    io_bytes: np.ndarray
    active_cores: np.ndarray
    total_cores: np.ndarray
    f_ghz: np.ndarray

    def __post_init__(self) -> None:
        n = self.time_s.shape[0]
        for name in (
            "t_cpu_s", "t_core_s", "t_mem_s", "t_io_s", "energy_j",
            "mean_power_w", "instructions", "work_cycles",
            "core_stall_cycles", "mem_stall_cycles", "io_bytes",
            "active_cores", "total_cores", "f_ghz",
        ):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"batch field {name} is not parallel to time_s")
        if np.any(self.time_s < 0) or np.any(self.energy_j < 0):
            raise ValueError("negative time or energy from batched simulator")

    def __len__(self) -> int:
        return int(self.time_s.shape[0])

    def counters(self, i: int) -> CounterSet:
        """Row ``i``'s event counters, as perf would report them."""
        return CounterSet(
            instructions=float(self.instructions[i]),
            work_cycles=float(self.work_cycles[i]),
            core_stall_cycles=float(self.core_stall_cycles[i]),
            mem_stall_cycles=float(self.mem_stall_cycles[i]),
            io_bytes=float(self.io_bytes[i]),
            active_cores=float(self.active_cores[i]),
            total_cores=int(self.total_cores[i]),
            f_ghz=float(self.f_ghz[i]),
        )

    def merged_counters(self, start: int, count: int) -> CounterSet:
        """Counters of rows ``start .. start + count - 1``, summed in row
        order -- one setting's repetitions under :func:`repeat_settings`."""
        merged = self.counters(start)
        for i in range(start + 1, start + count):
            merged = merged + self.counters(i)
        return merged

    def row(self, i: int):
        """Row ``i`` as a scalar :class:`NodeRunResult` (compat view)."""
        from repro.simulator.node import NodeRunResult

        return NodeRunResult(
            time_s=float(self.time_s[i]),
            t_cpu_s=float(self.t_cpu_s[i]),
            t_core_s=float(self.t_core_s[i]),
            t_mem_s=float(self.t_mem_s[i]),
            t_io_s=float(self.t_io_s[i]),
            energy_j=float(self.energy_j[i]),
            counters=self.counters(i),
            mean_power_w=float(self.mean_power_w[i]),
        )


def run_batch(
    sim,
    workload: WorkloadSpec,
    units: float,
    settings: Sequence[Tuple[int, float]],
    seeds: Sequence[SeedLike],
    arrival_floor_s: float = 0.0,
) -> BatchRunResult:
    """Simulate ``len(settings)`` runs of ``sim``'s node in one NumPy pass.

    Parameters
    ----------
    sim:
        The :class:`~repro.simulator.node.NodeSimulator` to batch.
    workload, units, arrival_floor_s:
        As in :meth:`~repro.simulator.node.NodeSimulator.run`; ``units``
        is shared by every row (the calibration/validation shape).
    settings:
        One ``(cores, f_ghz)`` machine setting per row; settings may
        repeat freely (repetitions of one setting are just extra rows).
    seeds:
        One RNG (or seed) per row, consumed exactly as the scalar path
        would -- pass ``RngStream`` children to reproduce a scalar
        campaign bit-for-bit.
    """
    if len(settings) != len(seeds):
        raise ValueError(
            f"need one seed per row: {len(settings)} settings, {len(seeds)} seeds"
        )
    if len(settings) == 0:
        raise ValueError("batch needs at least one row")
    if units < 0:
        raise ValueError(f"units must be non-negative, got {units}")
    if arrival_floor_s < 0:
        raise ValueError("arrival floor must be non-negative")
    node = sim.node
    noise = sim.noise
    profile = workload.profile_for(node.name)
    n = len(settings)

    cores_arr = np.asarray([int(c) for c, _ in settings])
    f_arr = np.asarray([float(f) for _, f in settings])
    for cores, f in set(settings):
        node.cores.validate_setting(int(cores), float(f))

    if units == 0:
        zeros = np.zeros(n)
        return BatchRunResult(
            time_s=zeros, t_cpu_s=zeros, t_core_s=zeros, t_mem_s=zeros,
            t_io_s=zeros, energy_j=zeros, mean_power_w=zeros,
            instructions=zeros, work_cycles=zeros, core_stall_cycles=zeros,
            mem_stall_cycles=zeros, io_bytes=zeros, active_cores=zeros,
            total_cores=cores_arr.copy(), f_ghz=f_arr.copy(),
        )

    # ---- per-row noise draws, one run's stream per row ------------------
    # The scalar path consumes its RNG as a fixed sequence of normal
    # draws (systematic, meter, four per-phase vectors, I/O, startup)
    # split by the optional straggler coin (a uniform draw).  Since
    # ``rng.normal(loc, scale, k)`` consumes the bit stream exactly like
    # ``loc + scale * standard_normal(k)`` and consecutive
    # ``standard_normal`` calls concatenate, each segment collapses to
    # ONE draw call per row; the loc/scale/clip transforms then run
    # vectorized over all rows at once, preserving bit-identity.
    B = sim.n_batches

    def eff(sigma: float, batches: float = 1.0) -> float:
        # Must match NoiseModel.factor's effective-sigma expression.
        return sigma / np.sqrt(max(1.0, batches))

    pre: List[Tuple[str, float, int]] = []   # draws before the coin
    post: List[Tuple[str, float, int]] = []  # draws after the coin
    if noise.run_systematic_sigma > 0.0:
        pre.append(("run", eff(noise.run_systematic_sigma), 1))
    if noise.meter_sigma > 0.0:
        pre.append(("meter", eff(noise.meter_sigma), 1))
    if noise.instructions_sigma > 0.0:
        post.append(("instr", eff(noise.instructions_sigma), B))
    if noise.wpi_sigma > 0.0:
        post.append(("wpi", eff(noise.wpi_sigma), B))
    if noise.spi_core_sigma > 0.0:
        post.append(("spi_core", eff(noise.spi_core_sigma), B))
    if noise.mem_latency_sigma > 0.0:
        post.append(("latency", eff(noise.mem_latency_sigma), B))
    if noise.io_sigma > 0.0:
        post.append(("io", eff(noise.io_sigma, batches=B), 1))
    if noise.startup_sigma > 0.0:
        post.append(("startup", eff(noise.startup_sigma), 1))
    k1 = sum(width for _, _, width in pre)
    k2 = sum(width for _, _, width in post)
    has_coin = noise.straggler_probability > 0.0

    z1 = np.empty((n, k1))
    z2 = np.empty((n, k2))
    coin = np.empty(n)
    if has_coin:
        for i, rng in enumerate(_row_rngs(seeds)):
            if k1:
                z1[i] = rng.standard_normal(k1)
            coin[i] = rng.random()
            if k2:
                z2[i] = rng.standard_normal(k2)
    elif k1 + k2 > 0:
        # Without the coin the whole sequence is one normal block: a
        # single fused draw per row.
        z = np.empty((n, k1 + k2))
        for i, rng in enumerate(_row_rngs(seeds)):
            z[i] = rng.standard_normal(k1 + k2)
        z1 = z[:, :k1]
        z2 = z[:, k1:]

    def factor_block(plan, z, name: str, width: int) -> np.ndarray:
        """The named noise factor for every row; ones when sigma == 0."""
        col0 = 0
        for block_name, e, w in plan:
            if block_name == name:
                block = 1.0 + e * z[:, col0:col0 + w]
                block = np.clip(block, 1.0 - 3.0 * e, 1.0 + 3.0 * e)
                return block[:, 0] if width == 1 else block
            col0 += w
        return np.ones(n) if width == 1 else np.ones((n, width))

    run_factor = factor_block(pre, z1, "run", 1)
    meter_factor = factor_block(pre, z1, "meter", 1)
    straggler = np.ones(n)
    if has_coin:
        straggler[coin < noise.straggler_probability] = noise.straggler_slowdown
    instr_f = factor_block(post, z2, "instr", B)
    wpi_f = factor_block(post, z2, "wpi", B)
    spi_core_f = factor_block(post, z2, "spi_core", B)
    latency_f = factor_block(post, z2, "latency", B)
    io_f = factor_block(post, z2, "io", 1)
    startup_f = factor_block(post, z2, "startup", 1)

    # ---- per-setting deterministic constants, scalar-exact --------------
    # Computed once per unique setting with the scalar path's own
    # Python-float expressions, then scattered to rows.
    unique: Dict[Tuple[int, float], int] = {}
    row_of = np.empty(n, dtype=np.intp)
    for i, s in enumerate(settings):
        row_of[i] = unique.setdefault(s, len(unique))
    table = np.empty((len(unique), 5))
    for (cores, f), u in unique.items():
        c_act = profile.cpu_utilization * cores
        f_hz = ghz_to_hz(f)
        f_ratio = f / node.cores.fmax_ghz
        latency0 = node.memory.latency_ns(c_act, f_ratio)
        p_act = node.power.core_active.watts(f)
        p_stall = node.power.core_stall.watts(f)
        table[u] = (c_act, f_hz, latency0, p_act, p_stall)
    c_act, f_hz, latency0, p_act, p_stall = table[row_of].T.copy()

    # ---- CPU side (mirrors NodeSimulator.run term-for-term) -------------
    col = np.newaxis  # (n,) -> (n, 1) broadcasts against the (n, B) draws
    units_b = units / B
    instr_b = units_b * profile.instructions_per_unit * instr_f * run_factor[:, col]
    instr_core_b = instr_b / c_act[:, col]
    work_cycles_core_b = instr_core_b * profile.wpi * straggler[:, col] * wpi_f
    core_stall_cycles_b = (
        instr_core_b * profile.spi_core * straggler[:, col] * spi_core_f
    )
    latency_ns_b = latency0[:, col] * straggler[:, col] * latency_f
    misses_core_b = instr_core_b * profile.llc_misses_per_instr
    mem_stall_s_b = misses_core_b * latency_ns_b * 1e-9

    t_core_b = (work_cycles_core_b + core_stall_cycles_b) / f_hz[:, col]
    t_mem_b = work_cycles_core_b / f_hz[:, col] + mem_stall_s_b
    t_cpu = np.sum(np.maximum(t_core_b, t_mem_b), axis=1)
    t_core = np.sum(t_core_b, axis=1)
    t_mem = np.sum(t_mem_b, axis=1)
    t_work = np.sum(work_cycles_core_b, axis=1) / f_hz

    # ---- I/O side -------------------------------------------------------
    io_bytes = units * workload.io_bytes_per_unit * io_f
    bandwidth = node.io.bandwidth_bytes_per_s
    t_transfer = io_bytes / bandwidth
    t_io = np.maximum(t_transfer, arrival_floor_s)

    # ---- wall time and energy -------------------------------------------
    startup = noise.startup_overhead_s * startup_f
    time_s = np.maximum(t_cpu, t_io) + startup

    t_stall_total = t_cpu - t_work
    e_cores = c_act * (p_act * t_work + p_stall * t_stall_total)
    touches_memory = profile.llc_misses_per_instr > 0
    e_mem = (
        node.power.mem_active_w * np.minimum(t_mem, time_s)
        if touches_memory
        else np.zeros(n)
    )
    e_io = node.power.io_active_w * np.minimum(t_transfer, time_s)
    e_idle = node.power.idle_w * time_s
    energy_j = (e_cores + e_mem + e_io + e_idle) * meter_factor

    return BatchRunResult(
        time_s=time_s,
        t_cpu_s=t_cpu,
        t_core_s=t_core,
        t_mem_s=t_mem,
        t_io_s=t_io,
        energy_j=energy_j,
        mean_power_w=np.divide(
            energy_j, time_s, out=np.zeros(n), where=time_s > 0
        ),
        instructions=np.sum(instr_b, axis=1),
        work_cycles=np.sum(work_cycles_core_b, axis=1) * c_act,
        core_stall_cycles=np.sum(core_stall_cycles_b, axis=1) * c_act,
        mem_stall_cycles=np.sum(mem_stall_s_b, axis=1) * f_hz * c_act,
        io_bytes=io_bytes,
        active_cores=c_act,
        total_cores=cores_arr,
        f_ghz=f_arr,
    )


def repeat_settings(
    settings: Sequence[Tuple[int, float]], repetitions: int
) -> List[Tuple[int, float]]:
    """Row list for ``repetitions`` consecutive runs per setting.

    The order is setting-major, repetition-minor: campaigns seed row
    ``i`` from ``RngStream.child(label, i)``, so the order is part of
    their output.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    return [s for s in settings for _ in range(repetitions)]
