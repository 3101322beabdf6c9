"""Deterministic fault injection and the resilience error taxonomy.

Fault tolerance that is only exercised by real outages is untested fault
tolerance.  This module makes failure a first-class, *reproducible*
input: a :class:`FaultPlan` is plain data (JSON round-trippable, usable
from the CLI via ``--fault-plan plan.json``) describing exactly which
task crashes, which worker dies, which cache entry is corrupted, and
which reducer fold raises -- and a :class:`FaultInjector` realizes the
plan through hooks the executor (:mod:`repro.engine.resilience`), the
result cache (:mod:`repro.engine.cache`), and the streaming reducer pass
(:func:`repro.core.streaming.reduce_space_blocks`) call at the right
moments.  Because every fault is keyed by deterministic coordinates
(task index, attempt number, block index, cache-key substring), a chaos
run is as reproducible as a clean one.

Fault kinds
-----------
``crash``
    Raise :class:`WorkerCrash` inside the worker while evaluating task
    ``task`` (on attempts ``< times``) -- a clean, picklable failure the
    retry loop recovers from.
``kill``
    Hard-kill the worker *process* (``os._exit``) while it evaluates
    task ``task`` -- breaks the whole pool, exercising dead-worker
    detection and pool replacement.  Outside a worker process (serial
    execution) it degrades to ``crash``, so a degraded run still
    terminates.
``delay``
    Sleep ``delay_s`` seconds before evaluating task ``task`` -- with a
    per-task timeout configured this exercises the
    :class:`TaskTimeout` path, without one it is a latency fault.
``corrupt_cache``
    Flip bytes of the on-disk cache entry whose key contains
    ``key_substring`` the next ``times`` times it is read, exercising
    checksum verification and quarantine.
``fold_error``
    Raise :class:`InjectedFault` in the main-process reducer loop just
    before folding block ``task`` -- the deterministic stand-in for a
    mid-stream kill, used by the checkpoint/resume tests.

Attempt discipline
------------------
``crash``/``kill``/``delay`` faults fire while ``attempt < times``
(attempt numbers are threaded by the resilient runner), so a fault with
``times=1`` fails the first attempt and lets the retry succeed --
stateless, hence correct even when the check runs in a freshly forked
worker that shares no memory with previous attempts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class ResilienceError(RuntimeError):
    """Base of the engine's typed failure taxonomy.

    Everything the fault-tolerance layer can recover from (or
    deliberately surfaces after exhausting recovery) derives from this,
    so callers can catch one type instead of bare ``Exception``.
    """


class WorkerCrash(ResilienceError):
    """A worker failed while evaluating a task (retryable)."""


class TaskTimeout(ResilienceError):
    """A task exceeded the per-task timeout (retryable until exhausted)."""


class CheckpointCorrupt(ResilienceError):
    """A checkpoint file failed its checksum or structural validation."""


class CacheCorrupt(ResilienceError):
    """An on-disk cache entry failed its checksum or format validation."""


class InjectedFault(ResilienceError):
    """A fault plan's ``fold_error`` fired (simulated mid-stream abort)."""


#: Exit code a ``kill`` fault uses, distinguishable from ordinary crashes.
KILL_EXIT_CODE = 86

_FAULT_KINDS = (
    "crash",
    "kill",
    "delay",
    "corrupt_cache",
    "fold_error",
)

#: Fault kinds addressed by a task index.
_TASK_KINDS = ("crash", "kill", "delay", "fold_error")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``task`` is the coordinate: the block/task index for
    ``crash``/``kill``/``delay``/``fold_error``; ignored for
    ``corrupt_cache`` (which matches on ``key_substring`` instead).
    ``times`` bounds how often the fault fires -- attempts below it for
    task faults, reads for cache corruption.
    """

    kind: str
    task: Optional[int] = None
    delay_s: float = 0.0
    key_substring: Optional[str] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {list(_FAULT_KINDS)}"
            )
        if self.kind in _TASK_KINDS:
            if self.task is None or int(self.task) < 0:
                raise ValueError(f"{self.kind!r} fault needs a task index >= 0")
            object.__setattr__(self, "task", int(self.task))
        if self.kind == "corrupt_cache" and not self.key_substring:
            raise ValueError("'corrupt_cache' fault needs a key_substring")
        if self.kind == "delay" and self.delay_s <= 0:
            raise ValueError(f"{self.kind!r} fault needs a positive delay_s")
        if self.times < 1:
            raise ValueError("a fault must fire at least once (times >= 1)")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic chaos schedule: plain data, JSON round-trippable.

    ``seed`` feeds whatever randomness a fault realization needs (the
    corruption byte pattern); the *schedule* itself is fully explicit,
    so two runs of the same plan inject identical faults.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "faults",
            tuple(
                f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
                for f in self.faults
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())


def _in_worker_process() -> bool:
    """Whether we are inside a worker process (safe to hard-exit)."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


@dataclass
class FaultInjector:
    """Realizes a :class:`FaultPlan` through executor/cache/reducer hooks.

    Task-fault decisions (``crash``/``kill``/``delay``) are *stateless*
    functions of ``(task, attempt)`` so they stay correct when evaluated
    inside forked workers; ``corrupt_cache`` and ``fold_error`` keep
    main-process counters (cache reads and reducer folds only happen
    there).  The injector is picklable: it ships to workers alongside
    each task.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    _fired: Dict[int, int] = field(default_factory=dict, repr=False)

    # ---- executor hooks ------------------------------------------------

    def task_delay_s(self, task: int, attempt: int) -> float:
        """Total injected delay before evaluating ``(task, attempt)``."""
        return sum(
            f.delay_s
            for f in self.plan.faults
            if f.kind == "delay" and f.task == task and attempt < f.times
        )

    def crash_mode(self, task: int, attempt: int) -> Optional[str]:
        """``"kill"``/``"crash"`` when a fault fires, else ``None``."""
        for f in self.plan.faults:
            if f.kind == "kill" and f.task == task and attempt < f.times:
                return "kill"
        for f in self.plan.faults:
            if f.kind == "crash" and f.task == task and attempt < f.times:
                return "crash"
        return None

    def on_task(self, task: int, attempt: int) -> None:
        """Executor hook: runs in the worker just before evaluating a task.

        ``kill`` hard-exits inside a worker process and is a clean
        retryable crash otherwise.
        """
        delay = self.task_delay_s(task, attempt)
        if delay > 0:
            time.sleep(delay)
        mode = self.crash_mode(task, attempt)
        if mode == "kill" and _in_worker_process():
            os._exit(KILL_EXIT_CODE)
        if mode is not None:
            raise WorkerCrash(
                f"injected {mode} fault on task {task} (attempt {attempt})"
            )

    # ---- reducer hook --------------------------------------------------

    def on_fold(self, block_index: int) -> None:
        """Streaming hook: runs in the main process before folding a block."""
        for i, f in enumerate(self.plan.faults):
            if f.kind != "fold_error" or f.task != block_index:
                continue
            if self._fired.get(i, 0) < f.times:
                self._fired[i] = self._fired.get(i, 0) + 1
                raise InjectedFault(
                    f"injected fold_error before block {block_index}"
                )

    # ---- cache hook ----------------------------------------------------

    def on_cache_read(self, key: str, path) -> None:
        """Cache hook: may corrupt the entry at ``path`` before it is read."""
        path = Path(path)
        for i, f in enumerate(self.plan.faults):
            if f.kind != "corrupt_cache" or f.key_substring not in key:
                continue
            if self._fired.get(i, 0) >= f.times or not path.exists():
                continue
            self._fired[i] = self._fired.get(i, 0) + 1
            raw = bytearray(path.read_bytes())
            if not raw:
                continue
            # Deterministic damage: XOR a seed-derived pattern over the
            # tail, which breaks the payload checksum but not the magic,
            # exercising the verify path rather than the format check.
            pattern = (self.plan.seed * 0x9E3779B1 + i) & 0xFF or 0xA5
            lo = len(raw) // 2
            for j in range(lo, len(raw)):
                raw[j] ^= pattern
            path.write_bytes(bytes(raw))


def normalize_injector(
    faults: Optional[Any],
) -> Optional[FaultInjector]:
    """Coerce a plan / injector / fault sequence to an injector (or None)."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    if isinstance(faults, Sequence):
        return FaultInjector(FaultPlan(faults=tuple(faults)))
    raise TypeError(
        f"faults must be a FaultPlan, FaultInjector, or fault list, "
        f"got {type(faults).__name__}"
    )
