"""Evaluate explicit candidate rows through the vectorized model.

The exhaustive evaluator works on whole presence-mask blocks; search
agents propose *arbitrary* row sets.  :func:`evaluate_candidate_rows`
groups a candidate batch by presence pattern and pushes each pattern
through the exact same per-element arithmetic as
:func:`repro.core.evaluate._evaluate_mask_block` -- the same setting
grids, the same 1-/2-/k-group matched-split dispatch
(:func:`~repro.core.evaluate._vector_match` /
:func:`~repro.core.evaluate._vector_match_groups`), the same
:func:`~repro.core.evaluate._group_energy` terms.  Every operation is
elementwise, so a configuration evaluates to bit-identical time/energy
no matter which batch it arrives in -- which is what lets frontier
recall be an exact ``(time, energy)`` set comparison against exhaustive
ground truth, and lets the search driver deduplicate rows by value.

:func:`_eval_candidate_chunk` is the top-level picklable entry point the
engine ships to process-pool and tcp_remote workers.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.core.configuration import GroupSpec
from repro.core.evaluate import (
    ConfigSpaceResult,
    _group_energy,
    _params_for,
    _setting_grid,
    _vector_match,
    _vector_match_groups,
)
from repro.core.params import NodeModelParams


def evaluate_candidate_rows(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
    units: float,
    n: np.ndarray,
    cores: np.ndarray,
    f: np.ndarray,
) -> ConfigSpaceResult:
    """Evaluate candidate ``(n, cores, f)`` columns, row order preserved.

    ``n``/``cores``/``f`` are ``(G, B)`` stacks as produced by
    :meth:`repro.search.space.SearchSpace.decode` or
    :func:`repro.core.candidates.expand_block_rows`.  Every ``(cores,
    f)`` pair must be one of the group's admissible settings and every
    row must have at least one present group.  The returned result's
    rows are bit-identical to what the exhaustive evaluator computes for
    the same configurations.
    """
    if units <= 0:
        raise ValueError("job must contain positive work")
    group_specs = tuple(group_specs)
    if not group_specs:
        raise ValueError("need at least one node-type group")
    n = np.asarray(n, dtype=np.int64)
    cores = np.asarray(cores, dtype=np.int64)
    f = np.asarray(f, dtype=float)
    if n.ndim != 2 or n.shape != cores.shape or n.shape != f.shape:
        raise ValueError("candidate columns must be matching (G, B) stacks")
    if n.shape[0] != len(group_specs):
        raise ValueError(
            f"{n.shape[0]} candidate groups for {len(group_specs)} specs"
        )
    if np.any(n < 0):
        raise ValueError("node counts must be non-negative")
    b = n.shape[1]
    present_rows = n > 0
    if b and not present_rows.any(axis=0).all():
        raise ValueError("every candidate row needs at least one present group")

    grids = [
        _setting_grid(gs.spec, _params_for(params, gs.spec.name), gs.settings)
        for gs in group_specs
    ]
    # Setting index of every present row.  Each group's distinct (cores,
    # f) pairs are looked up once in an exact table built from the same
    # node_settings list as the grid, so float equality is exact.
    s_idx = np.zeros(n.shape, dtype=np.int64)
    for g, (gs, grid) in enumerate(zip(group_specs, grids)):
        lookup = {
            key: s
            for s, key in enumerate(
                zip(grid.cores.tolist(), grid.f_ghz.tolist())
            )
        }
        rows = present_rows[g]
        # One complex number per (cores, f) pair: exact in both parts,
        # and a native sort, unlike a unique over (cores, f) records.
        pairs, inverse = np.unique(
            cores[g, rows] + 1j * f[g, rows], return_inverse=True
        )
        table = np.empty(len(pairs), dtype=np.int64)
        for j, pair in enumerate(pairs.tolist()):
            key = (int(pair.real), pair.imag)
            try:
                table[j] = lookup[key]
            except KeyError:
                raise ValueError(
                    f"candidate setting {key} is not admissible for "
                    f"node type {gs.spec.name!r}"
                ) from None
        s_idx[g, rows] = table[inverse]

    times = np.zeros(b, dtype=float)
    energies = np.zeros(b, dtype=float)
    units_out = np.zeros((len(group_specs), b), dtype=float)
    cores_out = np.where(
        present_rows, cores, [[gs.spec.cores.count] for gs in group_specs]
    )
    f_out = np.where(
        present_rows, f, [[gs.spec.cores.fmax_ghz] for gs in group_specs]
    )

    # Group rows by presence pattern, packed as one bit per group; each
    # pattern block goes through the same dispatch as one exhaustive
    # mask block.
    bits = np.arange(len(group_specs))[:, None]
    packed = (present_rows.astype(np.int64) << bits).sum(axis=0)
    codes, pattern_of = np.unique(packed, return_inverse=True)
    for k, code in enumerate(codes.tolist()):
        rows = np.flatnonzero(pattern_of == k)
        present = [g for g in range(len(group_specs)) if code >> g & 1]
        gammas = []
        floors = []
        for g in present:
            n_g = n[g, rows].astype(float)
            gammas.append(grids[g].slope_node[s_idx[g, rows]] / n_g)
            floors.append(grids[g].floor_job_s / n_g)

        if len(present) == 1:
            time = np.maximum(gammas[0] * units, floors[0])
            w = [np.full(time.shape, float(units))]
        elif len(present) == 2:
            w_a, time = _vector_match(
                units, gammas[0], floors[0], gammas[1], floors[1]
            )
            w = [w_a, units - w_a]
        else:
            w_stack, time = _vector_match_groups(
                units, np.stack(gammas), np.stack(floors)
            )
            w = list(w_stack)

        energy = np.zeros(rows.size, dtype=float)
        for p, g in enumerate(present):
            energy += _group_energy(
                n[g, rows],
                w[p],
                time,
                grids[g].k_joules_per_unit[s_idx[g, rows]],
                grids[g].io_slope_node,
                grids[g].floor_job_s,
                grids[g].p_idle_w,
                grids[g].p_io_w,
            )
            units_out[g, rows] = w[p]
        times[rows] = time
        energies[rows] = energy

    return ConfigSpaceResult(
        nodes=tuple(gs.spec.name for gs in group_specs),
        n=n,
        cores=cores_out,
        f=f_out,
        units=units_out,
        times_s=times,
        energies_j=energies,
        units_total=units,
    )


def _eval_candidate_chunk(
    args: Tuple[
        Tuple[GroupSpec, ...],
        Mapping[str, NodeModelParams],
        float,
        np.ndarray,
        np.ndarray,
        np.ndarray,
    ],
) -> ConfigSpaceResult:
    """Top-level picklable chunk evaluator for the engine's backends."""
    group_specs, params, units, n, cores, f = args
    return evaluate_candidate_rows(group_specs, params, units, n, cores, f)
