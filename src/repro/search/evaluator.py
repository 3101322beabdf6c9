"""Evaluate explicit candidate rows through the vectorized model.

The exhaustive evaluator works on whole presence-mask blocks; search
agents propose *arbitrary* row sets.  :func:`evaluate_candidate_rows`
maps each candidate's ``(cores, f)`` to its setting index, groups the
batch by presence pattern, and hands each pattern's ``(n,
setting_index)`` columns to the same row kernel an exhaustive block
uses (:func:`repro.core.evaluate._evaluate_rows`).  Every operation in
the kernel is elementwise, so a configuration evaluates to
bit-identical time/energy no matter which batch it arrives in -- which
is what lets frontier recall be an exact ``(time, energy)`` set
comparison against exhaustive ground truth, and lets the search driver
deduplicate rows by value.

:func:`_eval_candidate_chunk` is the top-level picklable entry point the
engine ships to process-pool and tcp_remote workers.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.core.configuration import GroupSpec
from repro.core.evaluate import (
    ConfigSpaceResult,
    _concat_results,
    _evaluate_rows,
    _params_for,
    _setting_grid,
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

    nodes = tuple(gs.spec.name for gs in group_specs)
    if not b:
        return ConfigSpaceResult(
            nodes, n, cores, f, np.zeros(n.shape), np.zeros(0), np.zeros(0), units
        )

    # Sort rows by presence pattern, packed as one bit per group; each
    # pattern's run of rows goes through the row kernel in one call, and
    # the concatenated parts are scattered back to batch order.
    packed = (present_rows.astype(np.int64) << np.arange(len(nodes))[:, None]).sum(axis=0)
    order = np.argsort(packed, kind="stable")
    parts = []
    for rows in np.split(order, np.flatnonzero(np.diff(packed[order])) + 1):
        present = [g for g in range(len(nodes)) if packed[rows[0]] >> g & 1]
        parts.append(
            _evaluate_rows(
                group_specs,
                grids,
                present,
                [n[g, rows] for g in present],
                [s_idx[g, rows] for g in present],
                units,
            )
        )
    space = _concat_results(parts)
    back = np.empty_like(order)
    back[order] = np.arange(b)
    return ConfigSpaceResult(
        nodes=nodes,
        n=n,
        cores=space.cores[:, back],
        f=space.f[:, back],
        units=space.units[:, back],
        times_s=space.times_s[back],
        energies_j=space.energies_j[back],
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
