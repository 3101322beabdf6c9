"""Workload descriptors: the service demand of one unit of work.

Terminology follows Section II of the paper:

* a *program* ``P`` does ``W`` total units of work (random numbers for EP,
  requests for memcached, frames for x264, ...);
* its *representative subset* ``Ps`` is one repeating parallel phase --
  here, exactly one work unit;
* each node type executes a unit with a different machine-instruction
  count ``IPs`` (different ISAs), different work cycles per instruction
  ``WPI`` and different stall behaviour.

An :class:`ISAProfile` holds those per-node-type quantities as *ground
truth* used by the simulator to generate behaviour.  The analytical model
never reads them directly -- it gets its inputs from
:mod:`repro.core.calibration`, which measures them back off the simulator
with noise, exactly as the paper measures them with ``perf``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple


class Bottleneck(str, enum.Enum):
    """Dominant resource of a workload, as classified in Table 3."""

    CPU = "cpu"
    MEMORY = "memory"
    IO = "io"


@dataclass(frozen=True)
class ISAProfile:
    """Service demand of one work unit on one node type.

    Attributes
    ----------
    instructions_per_unit:
        ``IPs`` -- machine instructions retired per work unit on this ISA.
    wpi:
        Work cycles per instruction (``WPI``): cycles in which the core
        retires useful work.  Constant as the workload scales (validated
        by the paper's Fig. 2 and our property tests).
    spi_core:
        Non-memory stall cycles per instruction (``SPI_core``): pipeline
        hazards, branch mispredictions, FP latency.  Also scale-constant.
    llc_misses_per_instr:
        Last-level-cache misses per instruction.  Memory stall *time* per
        instruction is ``llc_misses_per_instr * latency_ns``; expressed in
        cycles this is ``SPI_mem = llc_misses_per_instr * latency_ns * f``,
        which is why the paper finds SPI_mem linear in frequency (Fig. 3).
    cpu_utilization:
        ``U_CPU`` -- fraction of cores on average kept busy during the CPU
        response time; below 1.0 when request serialization on the I/O
        device starves cores (memcached).
    """

    instructions_per_unit: float
    wpi: float
    spi_core: float
    llc_misses_per_instr: float
    cpu_utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.instructions_per_unit <= 0:
            raise ValueError(
                f"instructions per unit must be positive, got {self.instructions_per_unit}"
            )
        if self.wpi <= 0:
            raise ValueError(f"WPI must be positive, got {self.wpi}")
        if self.spi_core < 0:
            raise ValueError(f"SPI_core must be non-negative, got {self.spi_core}")
        if self.llc_misses_per_instr < 0:
            raise ValueError("LLC miss density must be non-negative")
        if not 0.0 < self.cpu_utilization <= 1.0:
            raise ValueError(
                f"CPU utilization must be in (0, 1], got {self.cpu_utilization}"
            )

    def spi_mem(self, latency_ns: float, f_ghz: float) -> float:
        """Memory stall cycles per instruction at miss latency/frequency.

        ``latency_ns * f_ghz`` is the latency expressed in core cycles
        (1 ns at 1 GHz = 1 cycle).
        """
        if latency_ns < 0 or f_ghz <= 0:
            raise ValueError("latency must be >= 0 and frequency > 0")
        return self.llc_misses_per_instr * latency_ns * f_ghz

    def cycles_per_unit_core(self) -> float:
        """Core-side cycles per unit: work plus non-memory stalls (Eq. 7)."""
        return self.instructions_per_unit * (self.wpi + self.spi_core)


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete scale-out workload.

    Attributes
    ----------
    name, domain, unit_name:
        Identity and the human name of one work unit ("random number",
        "request", "frame", ...), used by Table 5's PPR units column.
    bottleneck:
        Expected dominant resource (Table 3's "Bottleneck" column).  This
        is a *label* for reporting; analyses derive the actual bottleneck
        from the model.
    profiles:
        Mapping from node-type name (:attr:`NodeSpec.name`) to the unit's
        :class:`ISAProfile` on that node.
    io_bytes_per_unit:
        Network bytes transferred per unit (DMA, overlapped with CPU).
    io_job_arrival_rate:
        ``lambda_I/O`` of Eq. 11 -- the rate at which an external load
        generator offers the whole job's I/O, expressed as jobs/second;
        ``1 / io_job_arrival_rate`` is the time for one job's requests to
        arrive at a single node.  ``None`` means arrival never binds
        (saturating generator, the memslap setting).
    default_job_units:
        Units per job in the paper's Section IV analyses (50,000 requests
        for memcached, 50 million random numbers for EP).
    problem_sizes:
        Named problem-size classes (NPB A/B/C for EP) used by the Fig. 2
        scale-constancy experiment.
    """

    name: str
    domain: str
    unit_name: str
    bottleneck: Bottleneck
    profiles: Mapping[str, ISAProfile]
    io_bytes_per_unit: float = 0.0
    io_job_arrival_rate: Optional[float] = None
    default_job_units: float = 1_000_000.0
    problem_sizes: Mapping[str, float] = field(default_factory=dict)
    ppr_unit: str = ""

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError(f"workload {self.name!r} needs at least one ISA profile")
        if self.io_bytes_per_unit < 0:
            raise ValueError("I/O bytes per unit must be non-negative")
        if self.io_job_arrival_rate is not None and self.io_job_arrival_rate <= 0:
            raise ValueError("I/O job arrival rate must be positive or None")
        if self.default_job_units <= 0:
            raise ValueError("default job size must be positive")
        for size_name, units in self.problem_sizes.items():
            if units <= 0 or not math.isfinite(units):
                raise ValueError(f"problem size {size_name!r} must be positive/finite")
        # Freeze the mapping so the spec is safely shareable.
        object.__setattr__(self, "profiles", dict(self.profiles))
        object.__setattr__(self, "problem_sizes", dict(self.problem_sizes))

    def profile_for(self, node_name: str) -> ISAProfile:
        """The unit's service demand on node type ``node_name``."""
        try:
            return self.profiles[node_name]
        except KeyError:
            raise KeyError(
                f"workload {self.name!r} has no profile for node {node_name!r}; "
                f"available: {sorted(self.profiles)}"
            ) from None

    def supports(self, node_name: str) -> bool:
        """Whether this workload was characterized on ``node_name``."""
        return node_name in self.profiles

    def size_names(self) -> Tuple[str, ...]:
        """Problem-size class names, in declaration order."""
        return tuple(self.problem_sizes)

    def scaled(self, name: str, units: float) -> "WorkloadSpec":
        """A copy of this workload with a different default job size.

        Handy for what-if analyses ("the same memcached service demand but
        jobs of 200k requests").
        """
        return WorkloadSpec(
            name=name,
            domain=self.domain,
            unit_name=self.unit_name,
            bottleneck=self.bottleneck,
            profiles=dict(self.profiles),
            io_bytes_per_unit=self.io_bytes_per_unit,
            io_job_arrival_rate=self.io_job_arrival_rate,
            default_job_units=units,
            problem_sizes=dict(self.problem_sizes),
            ppr_unit=self.ppr_unit,
        )

    def __str__(self) -> str:
        nodes = ", ".join(sorted(self.profiles))
        return (
            f"{self.name} [{self.domain}]: {self.default_job_units:g} "
            f"{self.unit_name}s/job, bottleneck={self.bottleneck.value}, on {nodes}"
        )
