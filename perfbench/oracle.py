"""Output checks made apart from the program's vectorized paths.

Every check returns a list of error strings (empty when the output
holds).  The references are computed here: row counts from a closed
form over the group bounds and the settings tables, per-configuration
time and energy from the scalar model ``evaluate_config`` (the one
oracle every vectorized path is pinned to), and the M/D/1
Pollaczek-Khinchine window formulas written out below.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.evaluate import evaluate_config
from repro.core.timemodel import predict_node_time

#: Relative tolerance for agreement with the scalar oracle.
REL_TOL = 1e-9


def settings_per_node(spec) -> int:
    """(active cores, P-state) settings of one node type."""
    return spec.cores.count * len(spec.cores.pstates_ghz)


def expected_rows(group_specs) -> int:
    """Configurations of a k-group space: every group takes 0..max nodes
    at one of its settings, minus the empty cluster."""
    total = 1
    for gs in group_specs:
        total *= 1 + gs.max_nodes * settings_per_node(gs.spec)
    return total - 1


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_monotone(times: np.ndarray, energies: np.ndarray) -> List[str]:
    """A Pareto frontier sorted by time has strictly falling energy."""
    times = np.asarray(times)
    energies = np.asarray(energies)
    if len(times) == 0:
        return ["empty frontier"]
    errors = []
    if not np.all(np.diff(times) > 0):
        errors.append("frontier times are not strictly increasing")
    if not np.all(np.diff(energies) < 0):
        errors.append("frontier energies are not strictly decreasing")
    return errors


def check_point(config, time_s: float, energy_j: float,
                params: Mapping, units: float) -> List[str]:
    """The scalar oracle agrees on one configuration, and every group
    that received work finishes when the job does."""
    point = evaluate_config(config, params, units)
    errors = []
    if not _close(point.time_s, time_s):
        errors.append(f"time {time_s!r} != oracle {point.time_s!r} at {config}")
    if not _close(point.energy_j, energy_j):
        errors.append(
            f"energy {energy_j!r} != oracle {point.energy_j!r} at {config}")
    for group, share in zip(config.groups, point.units):
        if group.n == 0 or share <= 0:
            continue
        finish = predict_node_time(
            params[group.node], share, group.n, group.cores, group.f_ghz
        ).time_s
        if not _close(finish, point.time_s, 1e-6):
            errors.append(
                f"group {group.node} finishes at {finish!r}, job at "
                f"{point.time_s!r} ({config})")
    return errors


def weakly_dominated(front_t: np.ndarray, front_e: np.ndarray,
                     times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Per point: some frontier point is no slower and no costlier."""
    order = np.argsort(front_t)
    ft, fe = np.asarray(front_t)[order], np.asarray(front_e)[order]
    # Cheapest frontier energy among points at most as slow.
    best = np.minimum.accumulate(fe)
    slack = 1.0 + REL_TOL
    idx = np.searchsorted(ft, np.asarray(times) * slack, side="right") - 1
    ok = idx >= 0
    out = np.zeros(len(idx), dtype=bool)
    out[ok] = best[idx[ok]] <= np.asarray(energies)[ok] * slack
    return out


def check_space(result, expected: int, rng: np.random.Generator,
                sample: int) -> List[str]:
    """Row count, monotone frontier, oracle frontier, sampled dominance
    -- for a materialized exhaustive scenario result."""
    space = result.space
    params = result.params
    units = space.units_total
    errors = []
    if len(space) != expected:
        errors.append(f"{len(space)} rows, closed form gives {expected}")
    frontier = result.frontier
    errors += check_monotone(frontier.times_s, frontier.energies_j)
    for k, i in enumerate(np.asarray(frontier.indices)):
        errors += check_point(space.config(int(i)), frontier.times_s[k],
                              frontier.energies_j[k], params, units)
    picks = rng.integers(0, len(space), size=sample)
    times = np.empty(sample)
    energies = np.empty(sample)
    for j, i in enumerate(picks):
        point = evaluate_config(space.config(int(i)), params, units)
        times[j], energies[j] = point.time_s, point.energy_j
    bad = ~weakly_dominated(frontier.times_s, frontier.energies_j,
                            times, energies)
    if bad.any():
        errors.append(f"{int(bad.sum())} sampled configurations beat the "
                      "frontier")
    return errors


def check_queueing(series: Mapping[float, Sequence], utilizations,
                   window_s: float) -> List[str]:
    """M/D/1 window points: response = T (1 + U / (2 (1 - U))) and
    jobs = U window / T, for service time T at utilization U."""
    errors = []
    if sorted(series) != sorted(float(u) for u in utilizations):
        return [f"queueing utilizations {sorted(series)} != {utilizations}"]
    for u, points in series.items():
        if not points:
            errors.append(f"no window points at U={u}")
        responses = [p.response_s for p in points]
        if responses != sorted(responses):
            errors.append(f"window points at U={u} not sorted by response")
        for p in points:
            t = p.service_s
            response = t * (1.0 + u / (2.0 * (1.0 - u)))
            jobs = u * window_s / t
            if not (_close(p.response_s, response) and
                    _close(p.jobs_in_window, jobs)):
                errors.append(
                    f"U={u}, T={t!r}: response {p.response_s!r} / jobs "
                    f"{p.jobs_in_window!r}, P-K gives {response!r} / {jobs!r}")
                break
    return errors


def match_rows(space, counts: np.ndarray, times: np.ndarray,
               energies: np.ndarray) -> List[Optional[int]]:
    """For each (counts, time, energy) point, a row of ``space`` with the
    same node counts and the same time and energy; ``None`` if absent."""
    out: List[Optional[int]] = []
    for j in range(len(times)):
        mask = np.all(space.n == counts[:, j:j + 1], axis=0)
        cand = np.nonzero(mask)[0]
        hit = cand[
            (np.abs(space.times_s[cand] - times[j]) <= REL_TOL * times[j])
            & (np.abs(space.energies_j[cand] - energies[j])
               <= REL_TOL * energies[j])
        ]
        out.append(int(hit[0]) if len(hit) else None)
    return out


def check_searched(searched, truth, budget: int) -> List[str]:
    """A budgeted search result against the exhaustive run ``truth``:
    rows evaluated equal the budget, every searched frontier point is a
    configuration the oracle agrees on, and the exhaustive frontier
    weakly dominates it."""
    errors = []
    if searched.search.rows_evaluated != budget:
        errors.append(f"search evaluated {searched.search.rows_evaluated} "
                      f"rows, budget {budget}")
    front = searched.frontier
    errors += check_monotone(front.times_s, front.energies_j)
    counts = np.asarray(searched.reduced.frontier_n)
    rows = match_rows(truth.space, counts, np.asarray(front.times_s),
                      np.asarray(front.energies_j))
    units = truth.space.units_total
    for j, row in enumerate(rows):
        if row is None:
            errors.append(f"searched point {j} is no configuration of the "
                          "space")
            continue
        errors += check_point(truth.space.config(row), front.times_s[j],
                              front.energies_j[j], truth.params, units)
    bad = ~weakly_dominated(truth.frontier.times_s, truth.frontier.energies_j,
                            front.times_s, front.energies_j)
    if bad.any():
        errors.append(f"{int(bad.sum())} searched points beat the exhaustive "
                      "frontier")
    return errors


def frontier_recall(searched, truth) -> float:
    """Share of exhaustive frontier points the search found exactly."""
    want = set(zip(truth.frontier.times_s.tolist(),
                   truth.frontier.energies_j.tolist()))
    got = set(zip(searched.frontier.times_s.tolist(),
                  searched.frontier.energies_j.tolist()))
    return len(want & got) / len(want)


def same_frontier(a, b) -> bool:
    return (np.array_equal(a.frontier.times_s, b.frontier.times_s)
            and np.array_equal(a.frontier.energies_j, b.frontier.energies_j))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), 100 * q))


def tail_quantile(n: int) -> Optional[int]:
    """The highest of p99/p95/p90/p75 with at least ten of ``n`` samples
    beyond it (``None`` below forty samples: report the median alone)."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) // 100 >= 10:
            return q
    return None
