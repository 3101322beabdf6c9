"""Evaluate configurations: matched split, execution time, energy.

Two implementations of the same semantics:

* :func:`evaluate_config` -- scalar, readable, built directly from the
  equation-level functions (:mod:`timemodel`, :mod:`energymodel`,
  :mod:`matching`, :mod:`multiway`).  The reference.
* :func:`evaluate_space_groups` -- vectorized over the entire
  configuration space of any number of node-type groups (the
  36,380-point space of Fig. 4 evaluates in milliseconds);
  :func:`evaluate_space` is its two-type entry point.

Every vectorized evaluation runs through one row kernel,
:func:`_evaluate_rows`.  Its input is one presence pattern (which
subset of groups participates): per present group, a node-count column
and an index into that group's precomputed setting grid
(:func:`_setting_grid`).  An exhaustive presence-mask block is
broadcast generation of those index columns
(:func:`_block_index_columns`) followed by one kernel call; a search
candidate batch (:mod:`repro.search.evaluator`) looks the indices up
and calls the kernel once per pattern.  Within the kernel the matched
split uses the closed form when no floor binds, the historical
two-group :func:`_vector_match` when exactly two groups are present,
and the k-way capacity bisection of :mod:`repro.core.multiway` --
vectorized in :func:`_vector_match_groups` -- for three or more.
Everything exploits the exact linear form ``T(W) = max(gamma W,
floor)`` and the fact that every energy term is ``n * P_idle * T + W *
K + P_IO * max(W * io_slope, floor)`` with a per-setting constant ``K``
(joules per unit, independent of node count) -- see the derivation in
this module's helpers.

Property-based tests pin the scalar and vectorized paths against each
other and against the scalar k-way solver, and pin the two-type space
bit for bit against a frozen snapshot of the pre-refactor paired
evaluator (``tests/property/_evaluate_pair.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import (
    ClusterConfig,
    GroupConfig,
    GroupSpec,
    node_settings,
    presence_masks,
)
from repro.core.energymodel import predict_node_energy
from repro.core.matching import GroupSetting, match_split
from repro.core.multiway import evaluate_multiway
from repro.core.params import NodeModelParams
from repro.core.timemodel import predict_node_time
from repro.hardware.specs import NodeSpec
from repro.util.units import ghz_to_hz


def _params_for(params: Mapping[str, NodeModelParams], name: str) -> NodeModelParams:
    """Look up one node type's model inputs, with a helpful error.

    A missing entry is a configuration mistake (the caller calibrated a
    different set of node types than the space references), so the error
    names both the missing type and what *is* available instead of
    surfacing a bare ``KeyError``.
    """
    try:
        return params[name]
    except KeyError:
        available = ", ".join(sorted(params)) or "none"
        raise ValueError(
            f"no model parameters for node type {name!r}; "
            f"available: {available}"
        ) from None


@dataclass(frozen=True, init=False)
class ConfigPoint:
    """One evaluated configuration: the dot on the paper's scatter plots."""

    config: ClusterConfig
    time_s: float
    energy_j: float
    units: Tuple[float, ...]
    method: str

    def __init__(
        self,
        config: ClusterConfig,
        time_s: float,
        energy_j: float,
        units: Optional[Sequence[float]] = None,
        method: str = "scalar",
        *,
        units_a: Optional[float] = None,
        units_b: Optional[float] = None,
    ):
        if units is None:
            if units_a is None or units_b is None:
                raise TypeError("pass units=(...) or both units_a and units_b")
            units = (units_a, units_b)
        elif units_a is not None or units_b is not None:
            raise TypeError("pass either units or the units_a/units_b pair")
        units = tuple(float(u) for u in units)
        if len(units) != config.num_groups:
            raise ValueError(
                f"{len(units)} unit splits for {config.num_groups} groups"
            )
        if time_s < 0 or energy_j < 0:
            raise ValueError("negative time or energy for a configuration")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "time_s", float(time_s))
        object.__setattr__(self, "energy_j", float(energy_j))
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "method", method)

    @property
    def is_heterogeneous(self) -> bool:
        return self.config.is_heterogeneous

    def _pair_units(self, index: int) -> float:
        if len(self.units) != 2:
            raise ValueError(
                "units_a/units_b need exactly two groups; use .units"
            )
        return self.units[index]

    @property
    def units_a(self) -> float:
        return self._pair_units(0)

    @property
    def units_b(self) -> float:
        return self._pair_units(1)


def evaluate_config(
    config: ClusterConfig,
    params: Mapping[str, NodeModelParams],
    units: float,
) -> ConfigPoint:
    """Scalar reference evaluation of one configuration.

    ``params`` maps node-type name to that type's calibrated inputs for
    the workload being analyzed.  Two-group configurations go through
    the paper's pairwise :func:`~repro.core.matching.match_split`; any
    other group count uses the k-way solver
    (:func:`~repro.core.multiway.evaluate_multiway`).
    """
    if units <= 0:
        raise ValueError(f"job must contain positive work, got {units}")
    group_params = [_params_for(params, g.node) for g in config.groups]

    if config.num_groups != 2:
        settings = [
            GroupSetting(p, g.n, g.cores, g.f_ghz)
            for p, g in zip(group_params, config.groups)
        ]
        outcome = evaluate_multiway(units, settings)
        return ConfigPoint(
            config=config,
            time_s=outcome.time_s,
            energy_j=outcome.energy_j,
            units=outcome.match.units,
            method=outcome.match.method,
        )

    params_a, params_b = group_params
    ga, gb = config.groups
    group_a = GroupSetting(params_a, ga.n, ga.cores, ga.f_ghz)
    group_b = GroupSetting(params_b, gb.n, gb.cores, gb.f_ghz)

    match = match_split(units, group_a, group_b)

    energy = 0.0
    if ga.n > 0:
        tb_a = predict_node_time(params_a, match.units_a, ga.n, ga.cores, ga.f_ghz)
        energy += predict_node_energy(params_a, tb_a, job_time_s=match.time_s).energy_j
    if gb.n > 0:
        tb_b = predict_node_time(params_b, match.units_b, gb.n, gb.cores, gb.f_ghz)
        energy += predict_node_energy(params_b, tb_b, job_time_s=match.time_s).energy_j

    return ConfigPoint(
        config=config,
        time_s=match.time_s,
        energy_j=energy,
        units=(match.units_a, match.units_b),
        method=match.method,
    )


# ---------------------------------------------------------------------------
# Vectorized space evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SettingGrid:
    """Per-setting coefficients for one node type (flattened (cores, f) grid)."""

    cores: np.ndarray  # int, per setting
    f_ghz: np.ndarray  # float, per setting
    slope_node: np.ndarray  # seconds per unit for ONE node at this setting
    k_joules_per_unit: np.ndarray  # W * K energy term, node-count independent
    io_slope_node: float  # seconds per unit through one NIC
    floor_job_s: float  # 1/lambda_IO (0 when arrival never binds)
    p_idle_w: float
    p_io_w: float


def _setting_grid(
    spec: NodeSpec,
    params: NodeModelParams,
    settings: Optional[Sequence[Tuple[int, float]]] = None,
) -> _SettingGrid:
    """Precompute every (cores, frequency) setting's coefficients.

    Derivation of ``K`` (energy per work unit, independent of ``n``): with
    ``I_core = W * IPs / (n c_act)`` each per-node time component is
    ``W * X / n`` for a per-setting constant ``X``; multiplying the
    per-node energies by ``n`` cancels the ``1/n``:

    ``E_group = n P_idle T + W [c_act (P_act A + P_stall S) + P_mem M]
      + P_IO max(W io_slope, floor)``

    with ``A = IPs WPI / (c_act f)``, ``S = IPs SPI_core / (c_act f)``,
    ``M = IPs (WPI + SPI_mem) / (c_act f)``.
    """
    settings = node_settings(spec, settings)
    cores_list: List[int] = []
    f_list: List[float] = []
    slope_list: List[float] = []
    k_list: List[float] = []
    ips = params.instructions_per_unit
    for cores, f in settings:
        c_act = params.u_cpu * cores
        f_hz = ghz_to_hz(f)
        spi_mem = params.spi_mem(cores, f)
        spi_eff = max(params.spi_core, spi_mem)
        cpu_slope = ips * (params.wpi + spi_eff) / (c_act * f_hz)
        io_slope = params.io_bytes_per_unit / params.io_bandwidth_bytes_s
        a_coeff = ips * params.wpi / (c_act * f_hz)
        s_coeff = ips * params.spi_core / (c_act * f_hz)
        m_coeff = ips * (params.wpi + spi_mem) / (c_act * f_hz)
        k = (
            c_act * (params.p_act(f) * a_coeff + params.p_stall(f) * s_coeff)
            + params.p_mem_w * m_coeff
        )
        cores_list.append(cores)
        f_list.append(f)
        slope_list.append(max(cpu_slope, io_slope))
        k_list.append(k)
    floor = 0.0
    if params.io_job_arrival_rate is not None:
        floor = 1.0 / params.io_job_arrival_rate
    return _SettingGrid(
        cores=np.asarray(cores_list, dtype=np.int64),
        f_ghz=np.asarray(f_list, dtype=float),
        slope_node=np.asarray(slope_list, dtype=float),
        k_joules_per_unit=np.asarray(k_list, dtype=float),
        io_slope_node=params.io_bytes_per_unit / params.io_bandwidth_bytes_s,
        floor_job_s=floor,
        p_idle_w=params.p_idle_w,
        p_io_w=params.p_io_w,
    )


@dataclass
class ConfigSpaceResult:
    """Column stacks over the evaluated configuration space.

    Per-group arrays are stacked ``(G, N)`` -- ``n[g, i]`` is group
    ``g``'s node count in configuration ``i`` -- and ``times_s``/
    ``energies_j`` are flat ``(N,)``.  Row ``i`` describes one
    configuration; use :meth:`point` to materialize a
    :class:`ConfigPoint` (and its :class:`ClusterConfig`) for reporting.
    Two-group spaces keep the historical ``node_a``/``n_a``-style
    accessors as thin views onto the group table.
    """

    nodes: Tuple[str, ...]
    n: np.ndarray  # (G, N) int
    cores: np.ndarray  # (G, N) int
    f: np.ndarray  # (G, N) float
    units: np.ndarray  # (G, N) float
    times_s: np.ndarray  # (N,)
    energies_j: np.ndarray  # (N,)
    units_total: float

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)

    def __len__(self) -> int:
        return int(self.times_s.size)

    @property
    def num_groups(self) -> int:
        return len(self.nodes)

    @property
    def nbytes(self) -> int:
        """Bytes held by the column stacks (what streaming avoids)."""
        return int(
            self.n.nbytes
            + self.cores.nbytes
            + self.f.nbytes
            + self.units.nbytes
            + self.times_s.nbytes
            + self.energies_j.nbytes
        )

    @property
    def present_count(self) -> np.ndarray:
        """How many groups participate in each configuration."""
        return (self.n > 0).sum(axis=0)

    @property
    def is_heterogeneous(self) -> np.ndarray:
        return self.present_count >= 2

    def is_only(self, group: int) -> np.ndarray:
        """Configurations where exactly ``group`` participates."""
        return (self.n[group] > 0) & (self.present_count == 1)

    # ---- legacy pair accessors (two-group spaces only) -----------------

    def _pair(self, index: int) -> int:
        if len(self.nodes) != 2:
            raise ValueError(
                "pair accessors (node_a/n_a/...) need exactly two groups; "
                f"this space has {len(self.nodes)} -- use the group table"
            )
        return index

    @property
    def node_a(self) -> str:
        return self.nodes[self._pair(0)]

    @property
    def node_b(self) -> str:
        return self.nodes[self._pair(1)]

    @property
    def n_a(self) -> np.ndarray:
        return self.n[self._pair(0)]

    @property
    def n_b(self) -> np.ndarray:
        return self.n[self._pair(1)]

    @property
    def cores_a(self) -> np.ndarray:
        return self.cores[self._pair(0)]

    @property
    def cores_b(self) -> np.ndarray:
        return self.cores[self._pair(1)]

    @property
    def f_a(self) -> np.ndarray:
        return self.f[self._pair(0)]

    @property
    def f_b(self) -> np.ndarray:
        return self.f[self._pair(1)]

    @property
    def units_a(self) -> np.ndarray:
        return self.units[self._pair(0)]

    @property
    def units_b(self) -> np.ndarray:
        return self.units[self._pair(1)]

    @property
    def is_only_a(self) -> np.ndarray:
        return self.is_only(self._pair(0))

    @property
    def is_only_b(self) -> np.ndarray:
        return self.is_only(self._pair(1))

    # ---- row materialization -------------------------------------------

    def config(self, i: int) -> ClusterConfig:
        """Materialize row ``i``'s configuration."""
        return ClusterConfig(
            groups=tuple(
                GroupConfig(
                    node=self.nodes[g],
                    n=int(self.n[g, i]),
                    cores=int(self.cores[g, i]),
                    f_ghz=float(self.f[g, i]),
                )
                for g in range(self.num_groups)
            )
        )

    def point(self, i: int) -> ConfigPoint:
        """Materialize row ``i`` as a :class:`ConfigPoint`."""
        return ConfigPoint(
            config=self.config(i),
            time_s=float(self.times_s[i]),
            energy_j=float(self.energies_j[i]),
            units=tuple(float(self.units[g, i]) for g in range(self.num_groups)),
            method="vectorized",
        )

    def subset(self, mask: np.ndarray) -> "ConfigSpaceResult":
        """A copy restricted to the rows where ``mask`` is true."""
        return ConfigSpaceResult(
            nodes=self.nodes,
            n=self.n[:, mask],
            cores=self.cores[:, mask],
            f=self.f[:, mask],
            units=self.units[:, mask],
            times_s=self.times_s[mask],
            energies_j=self.energies_j[mask],
            units_total=self.units_total,
        )


def _vector_match(
    units: float,
    gamma_a: np.ndarray,
    floor_a: np.ndarray,
    gamma_b: np.ndarray,
    floor_b: np.ndarray,
    iterations: int = 80,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized mix-and-match over arrays of two-group coefficients.

    Returns ``(w_a, time)``.  Mirrors :func:`repro.core.matching.match_split`
    case-for-case; the mixed floor regime is resolved by the same
    canonical capacity bisection as the scalar solver (min feasible
    deadline, proportional-to-capacity assignment), so the two paths and
    the k-way matcher all pick identical splits even on tie intervals.
    """
    w_cf = units * gamma_b / (gamma_a + gamma_b)
    t_cf = w_cf * gamma_a
    closed_ok = (t_cf >= floor_a) & (t_cf >= floor_b) & (gamma_a > 0) & (gamma_b > 0)

    t_a_all = np.maximum(gamma_a * units, floor_a)
    t_b_all = np.maximum(gamma_b * units, floor_b)
    excl_a = ~closed_ok & (floor_a > t_b_all)
    excl_b = ~closed_ok & ~excl_a & (floor_b > t_a_all)
    mixed = ~(closed_ok | excl_a | excl_b)

    w_a = np.where(closed_ok, w_cf, 0.0)
    time = np.where(closed_ok, t_cf, 0.0)
    time = np.where(excl_a, t_b_all, time)
    w_a = np.where(excl_b, units, w_a)
    time = np.where(excl_b, t_a_all, time)

    if np.any(mixed):
        ga = gamma_a[mixed]
        gb = gamma_b[mixed]
        fa = floor_a[mixed]
        fb = floor_b[mixed]
        # Capacity bisection on the deadline T (see matching._capacity_match).
        lo = np.zeros(ga.shape)
        hi = np.minimum(np.maximum(ga * units, fa), np.maximum(gb * units, fb))
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            cap = np.where(mid >= fa, mid / ga, 0.0) + np.where(
                mid >= fb, mid / gb, 0.0
            )
            feasible = cap >= units
            hi = np.where(feasible, mid, hi)
            lo = np.where(feasible, lo, mid)
        t_star = hi
        cap_a = np.where(t_star >= fa, t_star / ga, 0.0)
        cap_b = np.where(t_star >= fb, t_star / gb, 0.0)
        total_cap = cap_a + cap_b
        w_mixed = units * cap_a / total_cap
        t_mixed = np.maximum(
            np.where(w_mixed > 0, np.maximum(ga * w_mixed, fa), 0.0),
            np.where(
                units - w_mixed > 0,
                np.maximum(gb * (units - w_mixed), fb),
                0.0,
            ),
        )
        w_a[mixed] = w_mixed
        time[mixed] = t_mixed
    return w_a, time


def _vector_match_groups(
    units: float,
    gammas: np.ndarray,
    floors: np.ndarray,
    iterations: int = 200,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized k-way mix-and-match over ``(P, N)`` coefficient stacks.

    Returns ``(w, time)`` with ``w[p, i]`` the work assigned to present
    group ``p`` in configuration ``i``.  Mirrors the scalar
    :func:`repro.core.multiway.match_multiway` arithmetic: the
    harmonic-mean closed form where no group has a floor, and the
    canonical capacity bisection (min feasible deadline, work
    proportional to capacity) elsewhere -- property-tested against the
    scalar solver on random gamma/floor clouds.
    """
    if gammas.ndim != 2 or gammas.shape != floors.shape:
        raise ValueError("gammas and floors must be matching (P, N) stacks")
    if np.any(gammas <= 0):
        raise ValueError("every present group needs a positive time slope")
    n_rows = gammas.shape[1]
    w = np.zeros_like(gammas)
    time = np.zeros(n_rows)

    inv = 1.0 / gammas
    closed = (floors == 0.0).all(axis=0)
    if np.any(closed):
        inv_c = inv[:, closed]
        inv_sum = inv_c.sum(axis=0)
        w[:, closed] = units * inv_c / inv_sum
        time[closed] = units / inv_sum

    mixed = ~closed
    if np.any(mixed):
        g = gammas[:, mixed]
        fl = floors[:, mixed]
        # Upper bound: the best single group running everything.
        hi = np.min(np.maximum(g * units, fl), axis=0)
        lo = np.zeros_like(hi)
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            cap = np.where(mid >= fl, mid / g, 0.0).sum(axis=0)
            feasible = cap >= units
            hi = np.where(feasible, mid, hi)
            lo = np.where(feasible, lo, mid)
        t_star = hi
        caps = np.where(t_star >= fl, t_star / g, 0.0)
        total_cap = caps.sum(axis=0)
        w_mixed = caps * (units / total_cap)
        # Realized job time of the proportional assignment (floors of
        # active groups can sit above the balanced time).
        t_mixed = np.where(w_mixed > 0, np.maximum(g * w_mixed, fl), 0.0).max(axis=0)
        w[:, mixed] = w_mixed
        time[mixed] = t_mixed
    return w, time


def _group_energy(
    grid: _SettingGrid,
    s: np.ndarray,
    n: np.ndarray,
    w: np.ndarray,
    time: np.ndarray,
) -> np.ndarray:
    """One group's energy at setting indices ``s`` (see :func:`_setting_grid`)."""
    e_io = np.where(
        w > 0, grid.p_io_w * np.maximum(w * grid.io_slope_node, grid.floor_job_s), 0.0
    )
    return n * grid.p_idle_w * time + w * grid.k_joules_per_unit[s] + e_io


def _block_index_columns(
    pos: Sequence[np.ndarray], n_settings: Sequence[int]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """A presence-mask block's ``n`` and setting-index columns.

    ``pos[i]``/``n_settings[i]`` are present group ``i``'s positive node
    counts and setting count.  The axes interleave (count, setting) per
    present group and flatten C-order -- the nesting of
    :func:`repro.core.configuration.enumerate_configs_groups`.
    """
    shape = tuple(size for p, s in zip(pos, n_settings) for size in (p.size, s))

    def column(values: np.ndarray, axis: int) -> np.ndarray:
        view = [1] * len(shape)
        view[axis] = values.size
        return np.broadcast_to(values.reshape(view), shape).reshape(-1)

    n_cols = [column(p, 2 * i) for i, p in enumerate(pos)]
    s_cols = [column(np.arange(s), 2 * i + 1) for i, s in enumerate(n_settings)]
    return n_cols, s_cols


def _pinned_columns(
    group_specs: Sequence[GroupSpec],
    present: Sequence[int],
    n_cols: Sequence[np.ndarray],
    s_cols: Sequence[np.ndarray],
    cores_of: Sequence[np.ndarray],
    f_of: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(G, N)`` ``n``/``cores``/``f`` stacks for one presence pattern.

    Present groups map setting indices through ``cores_of[g]``/
    ``f_of[g]``; absent groups are pinned at ``n = 0`` and the spec's
    maxima.
    """
    shape = (len(group_specs), n_cols[0].size)
    n_out = np.zeros(shape, dtype=np.int64)
    cores_out = np.empty(shape, dtype=np.int64)
    f_out = np.empty(shape, dtype=float)
    for g, gs in enumerate(group_specs):
        cores_out[g] = gs.spec.cores.count
        f_out[g] = gs.spec.cores.fmax_ghz
    for g, n, s in zip(present, n_cols, s_cols):
        n_out[g] = n
        cores_out[g] = cores_of[g][s]
        f_out[g] = f_of[g][s]
    return n_out, cores_out, f_out


def _evaluate_rows(
    group_specs: Sequence[GroupSpec],
    grids: Sequence[_SettingGrid],
    present: Sequence[int],
    n_cols: Sequence[np.ndarray],
    s_cols: Sequence[np.ndarray],
    units: float,
) -> ConfigSpaceResult:
    """The row kernel: evaluate rows that share one presence pattern.

    ``present`` lists the participating groups in order; ``n_cols[i]``
    and ``s_cols[i]`` hold group ``present[i]``'s positive node count
    and its index into ``grids[present[i]]``, one entry per row.  Every
    operation is elementwise, so a row gets the same bits whichever
    rows share its call.
    """
    gammas = [grids[g].slope_node[s] / n for g, n, s in zip(present, n_cols, s_cols)]
    floors = [grids[g].floor_job_s / n for g, n in zip(present, n_cols)]
    if len(present) == 1:
        time = np.maximum(gammas[0] * units, floors[0])
        w = [np.full(time.shape, float(units))]
    elif len(present) == 2:
        w_a, time = _vector_match(units, gammas[0], floors[0], gammas[1], floors[1])
        w = [w_a, units - w_a]
    else:
        w_stack, time = _vector_match_groups(units, np.stack(gammas), np.stack(floors))
        w = list(w_stack)
    del gammas, floors

    # The first present group's term, then each later one added to it.
    terms = (
        _group_energy(grids[g], s, n, w_g, time)
        for g, n, s, w_g in zip(present, n_cols, s_cols, w)
    )
    energy = next(terms)
    for e in terms:
        energy += e

    n_out, cores_out, f_out = _pinned_columns(
        group_specs, present, n_cols, s_cols,
        [grid.cores for grid in grids], [grid.f_ghz for grid in grids],
    )
    units_out = np.zeros(n_out.shape, dtype=float)
    for g, w_g in zip(present, w):
        units_out[g] = w_g
    return ConfigSpaceResult(
        nodes=tuple(gs.spec.name for gs in group_specs),
        n=n_out,
        cores=cores_out,
        f=f_out,
        units=units_out,
        times_s=time,
        energies_j=energy,
        units_total=units,
    )


def _group_grids(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
) -> List[_SettingGrid]:
    """Every group's :func:`_setting_grid`, in group order."""
    return [
        _setting_grid(gs.spec, _params_for(params, gs.spec.name), gs.settings)
        for gs in group_specs
    ]


def evaluate_space_groups(
    group_specs: Sequence[GroupSpec],
    params: Mapping[str, NodeModelParams],
    units: float,
    grids: Optional[Sequence[_SettingGrid]] = None,
) -> ConfigSpaceResult:
    """Evaluate a k-group configuration space, vectorized.

    ``group_specs`` is an ordered sequence of
    :class:`~repro.core.configuration.GroupSpec`; row order matches
    :func:`repro.core.configuration.enumerate_configs_groups` exactly
    (presence-mask blocks from all-present down to each single group),
    which tests rely on.  ``params`` maps node-type name to model
    inputs; a missing type raises a :class:`ValueError` naming it.
    ``grids`` are the groups' :func:`_group_grids`, built here when
    omitted -- a streamed run builds them once for all its blocks.
    """
    if units <= 0:
        raise ValueError("job must contain positive work")
    group_specs = tuple(group_specs)
    if not group_specs:
        raise ValueError("need at least one node-type group")
    if all(gs.max_nodes == 0 and gs.counts is None for gs in group_specs):
        raise ValueError("space is empty with zero nodes of every type")
    names = [gs.spec.name for gs in group_specs]
    for g, name in enumerate(names):
        if name in names[:g]:
            raise ValueError(
                f"duplicate node type {name!r} in group_specs: groups must "
                "have distinct node-type names, or their params lookups "
                "would silently shadow each other"
            )
    if grids is None:
        grids = _group_grids(group_specs, params)
    counts = [_normalize_counts(gs.counts, gs.max_nodes) for gs in group_specs]
    pos = [c[c > 0] for c in counts]

    # Each presence-mask block: its index columns, then one kernel call.
    blocks = [
        _evaluate_rows(
            group_specs,
            grids,
            present,
            *_block_index_columns(
                [pos[g] for g in present], [grids[g].cores.size for g in present]
            ),
            units,
        )
        for present in presence_masks(group_specs)
    ]
    return _concat_results(blocks)


def evaluate_space(
    spec_a: NodeSpec,
    max_a: int,
    spec_b: NodeSpec,
    max_b: int,
    params: Mapping[str, NodeModelParams],
    units: float,
    counts_a: Optional[Sequence[int]] = None,
    counts_b: Optional[Sequence[int]] = None,
    settings_a: Optional[Sequence[Tuple[int, float]]] = None,
    settings_b: Optional[Sequence[Tuple[int, float]]] = None,
) -> ConfigSpaceResult:
    """Evaluate the paper's two-type configuration space, vectorized.

    Parameters mirror :func:`repro.core.configuration.enumerate_configs`;
    row order matches its yield order exactly (heterogeneous block, then
    a-only, then b-only), which tests rely on.  Bit-for-bit identical to
    the pre-refactor paired evaluator (pinned against its frozen
    snapshot, ``tests/property/_evaluate_pair.py``).

    ``counts_a``/``counts_b`` pin the per-type node counts to an explicit
    list instead of ``0..max`` (0 means "this type absent", producing the
    other type's homogeneous block).  Used by the fixed-mix analyses of
    Figures 6-9 to avoid enumerating every smaller cluster.

    ``settings_a``/``settings_b`` restrict each type's (cores, frequency)
    settings to an explicit list instead of the full rectangle -- the
    hook :mod:`repro.core.reduction` uses to evaluate pruned spaces.
    """
    if max_a < 0 or max_b < 0:
        raise ValueError("maximum node counts must be non-negative")
    if max_a == 0 and max_b == 0:
        raise ValueError("space is empty with zero nodes of both types")
    return evaluate_space_groups(
        (
            GroupSpec(spec_a, max_a, counts=counts_a, settings=settings_a),
            GroupSpec(spec_b, max_b, counts=counts_b, settings=settings_b),
        ),
        params,
        units,
    )


def _normalize_counts(counts: Optional[Sequence[int]], max_n: int) -> np.ndarray:
    """Validate/derive a node-count list; default is ``0..max_n``.

    Zero in the list means configurations where this node type is absent
    (i.e., the *other* types' blocks without it are included).
    """
    if counts is None:
        return np.arange(0, max_n + 1, dtype=np.int64)
    arr = np.asarray(sorted(set(int(c) for c in counts)), dtype=np.int64)
    if arr.size == 0:
        raise ValueError("counts list cannot be empty")
    if np.any(arr < 0):
        raise ValueError(f"node counts must be non-negative, got {arr.tolist()}")
    return arr


def _concat_results(blocks: Sequence[ConfigSpaceResult]) -> ConfigSpaceResult:
    """Concatenate evaluation blocks preserving row order."""
    if not blocks:
        raise ValueError(
            "no configurations to evaluate: the count lists admit neither a "
            "heterogeneous nor a homogeneous block"
        )
    if len(blocks) == 1:
        return blocks[0]
    first = blocks[0]
    if any(b.nodes != first.nodes for b in blocks):
        raise ValueError("cannot concatenate spaces over different group tables")
    return ConfigSpaceResult(
        nodes=first.nodes,
        n=np.concatenate([b.n for b in blocks], axis=1),
        cores=np.concatenate([b.cores for b in blocks], axis=1),
        f=np.concatenate([b.f for b in blocks], axis=1),
        units=np.concatenate([b.units for b in blocks], axis=1),
        times_s=np.concatenate([b.times_s for b in blocks]),
        energies_j=np.concatenate([b.energies_j for b in blocks]),
        units_total=first.units_total,
    )
