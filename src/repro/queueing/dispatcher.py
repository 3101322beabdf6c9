"""Observation-window energy accounting with job queueing (Figure 10).

The paper's setting: a cluster (e.g. 16 ARM + 14 AMD) serves a stream of
identical jobs arriving Poisson; the dispatcher queues them FIFO; each
job's service time and energy are fixed by the chosen configuration (the
matched schedule).  Over an observation window:

* ``jobs = lambda * window = U * window / T`` jobs are served;
* per-job response time is the M/D/1 mean response ``T (1 + U/(2(1-U)))``;
* energy is ``jobs * E_job`` plus the idle power of the configuration's
  *participating* nodes over the window's idle fraction ``(1 - U)`` --
  nodes not in the configuration are powered off (Section IV-E).

The idle term is what creates Figure 10's two-part sweet region: configs
containing AMD nodes idle at 45 W each between jobs, while ARM-only
configs idle under 2 W, producing the sharp energy drop where the
frontier crosses from mixed to ARM-only compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluate import ConfigSpaceResult
from repro.core.pareto import pareto_indices
from repro.core.streaming import FrontierReducer, SpaceBlock
from repro.queueing.models import QueueModel
from repro.queueing.simulation import deterministic_service, simulate_queue_lindley
from repro.util.rng import RngStream, SeedLike


@dataclass(frozen=True)
class WindowPoint:
    """One configuration's window-level outcome at a given utilization.

    ``n_nodes`` carries the full per-group node counts of the
    configuration (one entry per node-type group); ``n_a``/``n_b``
    mirror its first two entries for the paper's two-type case.
    """

    response_s: float
    window_energy_j: float
    utilization: float
    service_s: float
    jobs_in_window: float
    n_a: int
    n_b: int
    n_nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.response_s < 0 or self.window_energy_j < 0:
            raise ValueError("negative response or energy")
        if not self.n_nodes:
            object.__setattr__(self, "n_nodes", (self.n_a, self.n_b))


def window_energy(
    service_s: float,
    job_energy_j: float,
    idle_power_w: float,
    utilization: float,
    window_s: float,
    service_scv: float = 0.0,
) -> WindowPoint:
    """Window energy and response time for one configuration.

    Parameters
    ----------
    service_s, job_energy_j:
        The configuration's per-job service time and energy (from the
        per-job model).
    idle_power_w:
        Combined idle draw of the configuration's nodes (others are off).
    utilization:
        Target ``U = lambda * T`` in [0, 1).
    window_s:
        Observation window (the paper uses 20 s).
    service_scv:
        0 for the paper's M/D/1; other values for the ablation.
    """
    if service_s <= 0 or job_energy_j < 0:
        raise ValueError("service time must be positive, job energy non-negative")
    if idle_power_w < 0:
        raise ValueError("idle power must be non-negative")
    if window_s <= 0:
        raise ValueError("window must be positive")
    if not 0.0 <= utilization < 1.0:
        raise ValueError(f"utilization must be in [0, 1), got {utilization}")

    if utilization == 0.0:
        response = service_s
        jobs = 0.0
    else:
        model = QueueModel.for_utilization(
            service_s, utilization, service_scv=service_scv
        )
        response = model.mean_response_s
        jobs = model.arrival_rate * window_s

    energy = jobs * job_energy_j + (1.0 - utilization) * window_s * idle_power_w
    return WindowPoint(
        response_s=response,
        window_energy_j=energy,
        utilization=utilization,
        service_s=service_s,
        jobs_in_window=jobs,
        n_a=0,
        n_b=0,
    )


def _resolve_idle_powers(
    num_groups: int,
    idle_power_a_w: Optional[float],
    idle_power_b_w: Optional[float],
    idle_powers_w: Optional[Sequence[float]],
) -> List[float]:
    """Normalize the two idle-power spellings to one list per group."""
    if idle_powers_w is None:
        if idle_power_a_w is None or idle_power_b_w is None:
            raise ValueError(
                "pass idle_power_a_w and idle_power_b_w, or idle_powers_w"
            )
        idle_powers_w = (idle_power_a_w, idle_power_b_w)
    elif idle_power_a_w is not None or idle_power_b_w is not None:
        raise ValueError("pass either the idle power pair or idle_powers_w")
    idle_powers = [float(p) for p in idle_powers_w]
    if any(p < 0 for p in idle_powers):
        raise ValueError("idle powers must be non-negative")
    if len(idle_powers) != num_groups:
        raise ValueError(
            f"{len(idle_powers)} idle powers for {num_groups} node groups"
        )
    return idle_powers


def _window_arrays(
    service: np.ndarray,
    e_job: np.ndarray,
    idle_w: np.ndarray,
    u: float,
    window_s: float,
    service_scv: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window-level ``(responses, energies, jobs)`` at one utilization.

    Purely elementwise, which is what makes the block-streamed window
    frontier bit-identical to the materialized one: splitting the rows
    changes nothing about any row's value.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"utilization must be in [0, 1), got {u}")
    if u == 0.0:
        responses = service.copy()
        jobs = np.zeros_like(service)
    else:
        # Pollaczek-Khinchine mean wait at fixed utilization.
        wait = u * service * (1.0 + service_scv) / (2.0 * (1.0 - u))
        responses = service + wait
        jobs = (u / service) * window_s
    energies = jobs * e_job + (1.0 - u) * window_s * idle_w
    return responses, energies, jobs


def figure10_series(
    space: ConfigSpaceResult,
    idle_power_a_w: Optional[float] = None,
    idle_power_b_w: Optional[float] = None,
    utilizations: Sequence[float] = (0.05, 0.25, 0.50),
    window_s: float = 20.0,
    service_scv: float = 0.0,
    prune_to_frontier: bool = True,
    idle_powers_w: Optional[Sequence[float]] = None,
) -> Dict[float, List[WindowPoint]]:
    """Figure 10: response-time / window-energy curves per utilization.

    For each utilization profile, every per-job Pareto configuration is
    re-evaluated at the window level (queueing wait inflates response;
    idle power fills the window's gaps), and the resulting point cloud is
    pruned to its own response-energy Pareto frontier -- "extending the
    Pareto frontier to model job arrivals" (Section IV-E).

    Per-node idle powers come either as the two-type pair
    ``idle_power_a_w``/``idle_power_b_w`` or as ``idle_powers_w``, one
    entry per node-type group of ``space`` (the k-group form).

    Returns ``{utilization: [WindowPoint, ...]}`` sorted by response time.
    """
    idle_powers = _resolve_idle_powers(
        space.num_groups, idle_power_a_w, idle_power_b_w, idle_powers_w
    )

    # Vectorized over the *entire* space: a configuration dominated per
    # job (same job energy, fewer nodes, slower) can still win at the
    # window level because its smaller idle footprint fills the gaps
    # between jobs more cheaply -- the paper evaluates every point with
    # "unused nodes turned off".
    service = np.asarray(space.times_s, dtype=float)
    e_job = np.asarray(space.energies_j, dtype=float)
    idle_w = space.n[0] * idle_powers[0]
    for g in range(1, space.num_groups):
        idle_w = idle_w + space.n[g] * idle_powers[g]

    result: Dict[float, List[WindowPoint]] = {}
    for u in utilizations:
        u = float(u)
        responses, energies, jobs = _window_arrays(
            service, e_job, idle_w, u, window_s, service_scv
        )

        if prune_to_frontier:
            keep = pareto_indices(responses, energies)
        else:
            keep = np.argsort(responses)
        points = [
            WindowPoint(
                response_s=float(responses[i]),
                window_energy_j=float(energies[i]),
                utilization=u,
                service_s=float(service[i]),
                jobs_in_window=float(jobs[i]),
                n_a=int(space.n[0, i]),
                n_b=int(space.n[1, i]) if space.num_groups >= 2 else 0,
                n_nodes=tuple(int(space.n[g, i]) for g in range(space.num_groups)),
            )
            for i in keep
        ]
        points.sort(key=lambda p: p.response_s)
        result[u] = points
    return result


class Figure10Reducer:
    """Streaming twin of :func:`figure10_series`: window frontiers per block.

    A consumer for :func:`repro.core.streaming.reduce_space_blocks` --
    feed it :class:`~repro.core.streaming.SpaceBlock`\\ s and
    :meth:`finish` returns the same ``{utilization: [WindowPoint, ...]}``
    mapping as the materialized path, bit-identical: the window
    arithmetic is elementwise (block-splitting cannot change any row) and
    the per-utilization pruning runs through the exact online frontier
    merge of :class:`~repro.core.streaming.FrontierReducer`.  Only the
    pruned form streams -- an unpruned series *is* the whole space at
    window level, which is precisely what a memory budget forbids.
    """

    def __init__(
        self,
        idle_power_a_w: Optional[float] = None,
        idle_power_b_w: Optional[float] = None,
        utilizations: Sequence[float] = (0.05, 0.25, 0.50),
        window_s: float = 20.0,
        service_scv: float = 0.0,
        idle_powers_w: Optional[Sequence[float]] = None,
    ):
        self._idle_pair = (idle_power_a_w, idle_power_b_w)
        self._idle_powers_w = idle_powers_w
        self.utilizations = tuple(float(u) for u in utilizations)
        self.window_s = float(window_s)
        self.service_scv = float(service_scv)
        self._idle_powers: Optional[List[float]] = None
        self._num_groups = 0
        self._reducers: Dict[float, FrontierReducer] = {}

    def update(self, block: SpaceBlock) -> None:
        data = block.data
        if self._idle_powers is None:
            self._num_groups = data.num_groups
            self._idle_powers = _resolve_idle_powers(
                data.num_groups, *self._idle_pair, self._idle_powers_w
            )
            extras = ["service", "jobs"] + [
                f"n{g}" for g in range(data.num_groups)
            ]
            self._reducers = {
                u: FrontierReducer(extra_names=extras)
                for u in self.utilizations
            }
        service = np.asarray(data.times_s, dtype=float)
        e_job = np.asarray(data.energies_j, dtype=float)
        idle_w = data.n[0] * self._idle_powers[0]
        for g in range(1, data.num_groups):
            idle_w = idle_w + data.n[g] * self._idle_powers[g]
        for u, reducer in self._reducers.items():
            responses, energies, jobs = _window_arrays(
                service, e_job, idle_w, u, self.window_s, self.service_scv
            )
            extra = {"service": service, "jobs": jobs}
            for g in range(data.num_groups):
                extra[f"n{g}"] = data.n[g]
            reducer.update(
                responses, energies, start_row=block.start_row, extra=extra
            )

    def state_dict(self) -> Dict[str, Any]:
        """Checkpoint snapshot (see :func:`reduce_space_blocks`)."""
        return {
            "idle_powers": (
                None if self._idle_powers is None else list(self._idle_powers)
            ),
            "num_groups": self._num_groups,
            "reducers": {
                u: reducer.state_dict()
                for u, reducer in self._reducers.items()
            },
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into this reducer."""
        if state["idle_powers"] is None:
            # Checkpointed before the first block: nothing to restore.
            self._idle_powers = None
            self._num_groups = 0
            self._reducers = {}
            return
        self._idle_powers = [float(p) for p in state["idle_powers"]]
        self._num_groups = int(state["num_groups"])
        saved = state["reducers"]
        if set(saved) != set(self.utilizations):
            raise ValueError(
                "checkpoint utilization levels do not match this reducer"
            )
        extras = ["service", "jobs"] + [
            f"n{g}" for g in range(self._num_groups)
        ]
        self._reducers = {}
        for u in self.utilizations:
            reducer = FrontierReducer(extra_names=extras)
            reducer.load_state(saved[u])
            self._reducers[u] = reducer

    def merge(self, state: Mapping[str, Any]) -> None:
        """Fold a worker-side :meth:`state_dict` into this reducer.

        Workers fold their block through a fresh ``Figure10Reducer`` with
        global ``start_row``\\ s, so the per-utilization frontier states
        merge with offset 0 via
        :meth:`~repro.core.streaming.FrontierReducer.merge` -- bit-identical
        to having streamed the block here, as long as states arrive in
        plan order.
        """
        if state["idle_powers"] is None:
            return
        if self._idle_powers is None:
            self.load_state(state)
            return
        if int(state["num_groups"]) != self._num_groups:
            raise ValueError(
                f"cannot merge a {state['num_groups']}-group queueing state "
                f"into a {self._num_groups}-group reducer"
            )
        saved = state["reducers"]
        if set(saved) != set(self.utilizations):
            raise ValueError(
                "merged utilization levels do not match this reducer"
            )
        for u in self.utilizations:
            self._reducers[u].merge(saved[u])

    def finish(self) -> Dict[float, List[WindowPoint]]:
        if self._idle_powers is None:
            raise ValueError("no blocks were streamed through the reducer")
        result: Dict[float, List[WindowPoint]] = {}
        for u, reducer in self._reducers.items():
            frontier = reducer.finish()
            points: List[WindowPoint] = []
            if frontier is not None:
                service = reducer.extra("service")
                jobs = reducer.extra("jobs")
                n_cols = [
                    reducer.extra(f"n{g}") for g in range(self._num_groups)
                ]
                for k in range(len(frontier)):
                    n_nodes = tuple(int(col[k]) for col in n_cols)
                    points.append(
                        WindowPoint(
                            response_s=float(frontier.times_s[k]),
                            window_energy_j=float(frontier.energies_j[k]),
                            utilization=u,
                            service_s=float(service[k]),
                            jobs_in_window=float(jobs[k]),
                            n_a=n_nodes[0],
                            n_b=n_nodes[1] if self._num_groups >= 2 else 0,
                            n_nodes=n_nodes,
                        )
                    )
            points.sort(key=lambda p: p.response_s)
            result[u] = points
        return result


def verify_points_against_simulation(
    points: Sequence[WindowPoint],
    n_jobs: int = 20_000,
    seed: SeedLike = 0,
    max_points: Optional[int] = None,
) -> Dict[str, float]:
    """Cross-check a window frontier's analytic responses by simulation.

    Each point's M/D/1 mean response (the Pollaczek-Khinchine closed form
    behind :func:`figure10_series`) is re-derived empirically with the
    vectorized Lindley queue at the point's service time and
    utilization-implied arrival rate.  Returns the worst relative error
    over the checked points plus bookkeeping -- the Fig. 10 benchmark and
    ``benchmarks/record.py`` assert it stays within Monte-Carlo noise.

    ``max_points`` caps the work by sub-sampling the frontier evenly
    (``None`` checks every point with ``utilization > 0``).
    """
    if n_jobs < 1:
        raise ValueError("need at least one job per check")
    busy = [p for p in points if p.utilization > 0.0]
    if max_points is not None and max_points < len(busy):
        if max_points < 1:
            raise ValueError("max_points must be at least 1")
        picks = np.linspace(0, len(busy) - 1, max_points).round().astype(int)
        busy = [busy[i] for i in np.unique(picks)]
    worst = 0.0
    stream = RngStream(seed)
    for index, point in enumerate(busy):
        stats = simulate_queue_lindley(
            point.utilization / point.service_s,
            deterministic_service(point.service_s),
            n_jobs,
            seed=stream.child("fig10-verify", index),
        )
        error = abs(stats.mean_response_s - point.response_s) / point.response_s
        worst = max(worst, error)
    return {
        "points_checked": float(len(busy)),
        "jobs_per_point": float(n_jobs),
        "max_rel_response_error": worst,
    }


def sweet_region_drop(points: Sequence[WindowPoint]) -> Optional[float]:
    """Largest single-step fractional energy drop along a window frontier.

    Figure 10's "sharp drop" where the frontier crosses from mixed to
    ARM-only compositions; returns ``None`` for fewer than two points.
    """
    if len(points) < 2:
        return None
    energies = np.asarray([p.window_energy_j for p in points])
    drops = (energies[:-1] - energies[1:]) / energies[:-1]
    return float(np.max(drops))
