"""Seeded search agents behind the :class:`CandidateSource` protocol.

Three strategies, one contract: propose a batch of genomes, get the
evaluated ``(time, energy)`` columns back through ``observe``.  All
randomness flows from one ``numpy`` PCG64 generator seeded at
construction, and every piece of mutable state round-trips through
``state_dict``/``load_state`` -- so a search run is reproducible and
checkpoint-resumable.

* :class:`RandomWalkSource` -- uniform row sampling without
  replacement; the baseline every smarter agent must beat.
* :class:`GeneticSource` -- a memetic genetic algorithm: Pareto-rank
  (nondomination-peeling) tournament selection over the recent
  population, uniform crossover with admissibility repair,
  neighbor-move mutation, random immigrants -- plus a Pareto local
  search that sweeps the unseen 1-step neighborhood of the current
  archive frontier each round (what drives recall to ~100% once the
  frontier's basin is found).
* :class:`AnnealingSource` -- simulated annealing with a fleet of
  walkers, each minimizing a differently-weighted scalarization of
  normalized (time, energy) so the fleet spreads across the frontier;
  geometric cooling per round.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core.candidates import CandidateBatch, CandidateSource
from repro.core.pareto import pareto_indices
from repro.search.space import SearchSpace, first_occurrences, merge_sorted


def _pareto_ranks(times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Nondomination-peeling ranks: 0 for the frontier, 1 after removing
    it, and so on."""
    n = times.size
    ranks = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n)
    t, e = np.asarray(times, dtype=float), np.asarray(energies, dtype=float)
    rank = 0
    while remaining.size:
        keep = pareto_indices(t[remaining], e[remaining])
        ranks[remaining[keep]] = rank
        mask = np.ones(remaining.size, dtype=bool)
        mask[keep] = False
        remaining = remaining[mask]
        rank += 1
    return ranks


#: Version of the agents' draw stream.  A searched artifact is a
#: function of its draw order, so the version joins the searched space's
#: content identity and every search checkpoint; a checkpoint of another
#: version is invalidated instead of resumed.
SEARCH_STREAM = 2

#: Attempts per requested row before a draw loop gives up.
ATTEMPTS_PER_ROW = 25

_NO_CODES = np.empty(0, dtype=np.int64)


class _SeededSource(CandidateSource):
    """Shared plumbing: seeded RNG, seen codes, batch assembly."""

    def __init__(self, space: SearchSpace, seed: int):
        self.space = space
        self.seed = int(seed)
        self.rng = np.random.default_rng(np.random.PCG64(self.seed))
        #: Sorted codes of every row proposed so far.
        self._seen = _NO_CODES

    def reset(self) -> None:
        self.rng = np.random.default_rng(np.random.PCG64(self.seed))
        self._seen = _NO_CODES

    def _batch(self, codes: np.ndarray) -> Optional[CandidateBatch]:
        if not codes.size:
            return None
        n, cores, f = self.space.decode(codes)
        return CandidateBatch(n=n, cores=cores, f=f, meta=codes)

    def _fresh(
        self,
        draw: Callable[[int], np.ndarray],
        k: int,
        taken: np.ndarray,
        limit: int,
    ) -> np.ndarray:
        """Up to ``k`` distinct codes from ``draw(size)``, none seen or taken.

        Draws in rounds while short, sizing each round by the yield so
        far, and stops once ``limit`` codes have been drawn.  Codes keep
        their draw order; a code's first occurrence wins.
        """
        out = [_NO_CODES]
        found = attempts = 0
        while found < k and attempts < limit:
            need = k - found
            size = need if not attempts else need * attempts // max(found, 1) + 1
            size = min(size, limit - attempts)
            codes = draw(size)
            attempts += size
            codes = codes[first_occurrences(codes, self._seen, taken)[:need]]
            taken = merge_sorted(taken, codes)
            out.append(codes)
            found += codes.size
        return np.concatenate(out)

    def _fresh_random(self, k: int, taken: np.ndarray) -> np.ndarray:
        """Up to ``k`` uniform-over-rows codes not seen or taken."""
        return self._fresh(
            lambda size: self.space.random_codes(self.rng, size),
            k, taken, ATTEMPTS_PER_ROW * max(1, k),
        )

    def _mark_seen(self, codes: np.ndarray) -> None:
        self._seen = merge_sorted(
            self._seen, codes[first_occurrences(codes, self._seen)]
        )

    def state_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rng": self.rng.bit_generator.state,
            "seen": self._seen,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.seed = int(state["seed"])
        self.rng = np.random.default_rng(np.random.PCG64(self.seed))
        self.rng.bit_generator.state = state["rng"]
        self._seen = np.asarray(state["seen"], dtype=np.int64)


def _codes(meta: Any) -> np.ndarray:
    return _NO_CODES if meta is None else np.asarray(meta, dtype=np.int64)


class RandomWalkSource(_SeededSource):
    """Uniform row sampling without replacement: the search baseline."""

    name = "random"

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        if max_rows < 1:
            raise ValueError("batch row budget must be at least one row")
        codes = self._fresh_random(max_rows, _NO_CODES)
        self._mark_seen(codes)
        return self._batch(codes)

    def observe(self, batch, times_s, energies_j) -> None:
        self._mark_seen(_codes(batch.meta))


class GeneticSource(_SeededSource):
    """Genetic algorithm with Pareto-rank selection and local search."""

    name = "ga"

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        population: int = 64,
        immigrant_fraction: float = 0.1,
        mutation_rate: float = 0.3,
    ):
        super().__init__(space, seed)
        if population < 2:
            raise ValueError("genetic search needs a population of at least 2")
        self.population_size = int(population)
        self.immigrant_fraction = float(immigrant_fraction)
        self.mutation_rate = float(mutation_rate)
        self.reset()

    def reset(self) -> None:
        super().reset()
        #: Recent evaluated individuals: codes, times, energies.
        self._population = (_NO_CODES, np.empty(0), np.empty(0))
        #: Nondominated archive: codes, times, energies.
        self._archive = (_NO_CODES, np.empty(0), np.empty(0))

    # ---- proposal ------------------------------------------------------

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        if max_rows < 1:
            raise ValueError("batch row budget must be at least one row")
        if not self._population[0].size:
            codes = self._fresh_random(
                min(max_rows, max(self.population_size, 2)), _NO_CODES
            )
            self._mark_seen(codes)
            return self._batch(codes)

        # Pareto local search: the unseen 1-step neighborhood of the
        # current archive frontier, in archive order.
        local = self.space.neighborhood(self._archive[0])
        local = local[first_occurrences(local, self._seen)[:max_rows]]
        taken = np.sort(local)

        # Offspring: Pareto-rank tournament selection, uniform
        # crossover, neighbor-move mutation, repair.
        n_immigrants = int(
            round(self.immigrant_fraction * max(0, max_rows - local.size))
        )
        pool = [np.concatenate(p) for p in zip(self._population, self._archive)]
        ranks = _pareto_ranks(pool[1], pool[2])
        genes = self.space.genes(pool[0])
        offspring = self._fresh(
            lambda size: self._offspring(genes, ranks, size),
            max_rows - n_immigrants - local.size,
            taken,
            ATTEMPTS_PER_ROW * max_rows,
        )
        taken = merge_sorted(taken, offspring)
        immigrants = self._fresh_random(
            max_rows - local.size - offspring.size, taken
        )
        codes = np.concatenate([local, offspring, immigrants])
        self._mark_seen(codes)
        return self._batch(codes)

    def _offspring(
        self, genes: np.ndarray, ranks: np.ndarray, size: int
    ) -> np.ndarray:
        """``size`` children of the pool with gene array ``genes``.

        Draw order: ``(size, 2, 2)`` tournament picks (each parent is the
        better-ranked of two uniform picks, the lower index on ties), a
        ``(size, G)`` crossover mask (a gene comes from the first parent
        below 0.5), a ``size`` mutation mask, the mutated rows' moves,
        then the repair draws.
        """
        picks = self.rng.integers(ranks.size, size=(size, 2, 2))
        a, b = picks[..., 0], picks[..., 1]
        ra, rb = ranks[a], ranks[b]
        parents = np.where((ra < rb) | ((ra == rb) & (a <= b)), a, b)
        cross = self.rng.random((size, self.space.num_groups)) < 0.5
        codes = self.space.compose(
            np.where(cross, genes[parents[:, 0]], genes[parents[:, 1]])
        )
        mutate = self.rng.random(size) < self.mutation_rate
        codes[mutate] = self.space.neighbor_codes(codes[mutate], self.rng)
        return self.space.repair_codes(self.space.genes(codes), self.rng)

    # ---- feedback ------------------------------------------------------

    def observe(self, batch, times_s, energies_j) -> None:
        codes = _codes(batch.meta)
        self._mark_seen(codes)
        evaluated = (
            codes,
            np.asarray(times_s, dtype=float),
            np.asarray(energies_j, dtype=float),
        )
        keep = 4 * self.population_size
        self._population = tuple(
            np.concatenate(p)[-keep:] for p in zip(self._population, evaluated)
        )
        merged = [np.concatenate(p) for p in zip(self._archive, evaluated)]
        front = pareto_indices(merged[1], merged[2])
        self._archive = tuple(m[front] for m in merged)

    # ---- checkpoint ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return dict(
            super().state_dict(),
            population=self._population,
            archive=self._archive,
        )

    def load_state(self, state: Mapping[str, Any]) -> None:
        super().load_state(state)
        self._population, self._archive = (
            tuple(np.asarray(a, dtype=dt) for a, dt in zip(state[k], _COLUMNS))
            for k in ("population", "archive")
        )


#: dtypes of an individual's (codes, times, energies) columns.
_COLUMNS = (np.int64, float, float)


class AnnealingSource(_SeededSource):
    """Simulated annealing with a fleet of scalarizing walkers."""

    name = "anneal"

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        walkers: int = 8,
        initial_temperature: float = 1.0,
        cooling: float = 0.92,
    ):
        super().__init__(space, seed)
        if walkers < 1:
            raise ValueError("annealing needs at least one walker")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling factor must be in (0, 1)")
        self.num_walkers = int(walkers)
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)
        #: Walker i scalarizes with weight lambda_i spread evenly over [0, 1].
        self._lambdas = (
            np.linspace(0.0, 1.0, self.num_walkers)
            if self.num_walkers > 1
            else np.asarray([0.5])
        )
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._temperature = self.initial_temperature
        #: Per-walker current code and cost (NaN until first observed).
        self._walker_codes = _NO_CODES
        self._walker_costs = np.empty(0)
        self._t_range = [np.inf, -np.inf]
        self._e_range = [np.inf, -np.inf]

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        if max_rows < 1:
            raise ValueError("batch row budget must be at least one row")
        if not self._walker_codes.size:
            k = min(max_rows, self.num_walkers)
            codes = self._fresh_random(k, _NO_CODES)
            if not codes.size:
                codes = self.space.random_codes(self.rng, k)
            # Top up short fleets by reusing starts round-robin.
            self._walker_codes = np.resize(codes, self.num_walkers)
            self._walker_costs = np.full(self.num_walkers, np.nan)
            owners = np.arange(codes.size)
        else:
            per_walker = max(1, max_rows // self.num_walkers)
            owners = np.repeat(np.arange(self.num_walkers), per_walker)
            codes = self.space.neighbor_codes(
                self._walker_codes[owners], self.rng
            )
            keep = first_occurrences(codes)[:max_rows]
            codes, owners = codes[keep], owners[keep]
        self._mark_seen(codes)
        batch = self._batch(codes)
        return CandidateBatch(
            n=batch.n, cores=batch.cores, f=batch.f,
            meta={"codes": codes, "owners": owners},
        )

    def observe(self, batch, times_s, energies_j) -> None:
        meta = batch.meta or {}
        codes = _codes(meta.get("codes"))
        owners = np.asarray(meta.get("owners", ()), dtype=np.int64)
        self._mark_seen(codes)
        if not codes.size:
            return
        t = np.asarray(times_s, dtype=float)
        e = np.asarray(energies_j, dtype=float)
        self._t_range = [
            min(self._t_range[0], float(t.min())),
            max(self._t_range[1], float(t.max())),
        ]
        self._e_range = [
            min(self._e_range[0], float(e.min())),
            max(self._e_range[1], float(e.max())),
        ]
        lam = self._lambdas[owners]
        cost = lam * _normalized(t, self._t_range) + (1.0 - lam) * _normalized(
            e, self._e_range
        )
        # One accept draw per row, in batch order; rows then update their
        # walker in order, each against the walker's current cost.
        accept = self.rng.random(codes.size).tolist()
        walker_costs = self._walker_costs.tolist()
        walker_codes = self._walker_codes.tolist()
        temperature = self._temperature
        for code, owner, c, u in zip(
            codes.tolist(), owners.tolist(), cost.tolist(), accept
        ):
            current = walker_costs[owner]
            if (
                current != current  # NaN: the walker's first observation
                or c < current
                or (temperature > 0 and u < math.exp(-(c - current) / temperature))
            ):
                walker_codes[owner], walker_costs[owner] = code, c
        self._walker_codes = np.asarray(walker_codes, dtype=np.int64)
        self._walker_costs = np.asarray(walker_costs, dtype=float)
        self._temperature *= self.cooling

    def state_dict(self) -> Dict[str, Any]:
        return dict(
            super().state_dict(),
            temperature=self._temperature,
            walker_codes=self._walker_codes,
            walker_costs=self._walker_costs,
            t_range=list(self._t_range),
            e_range=list(self._e_range),
        )

    def load_state(self, state: Mapping[str, Any]) -> None:
        super().load_state(state)
        self._temperature = float(state["temperature"])
        self._walker_codes = np.asarray(state["walker_codes"], dtype=np.int64)
        self._walker_costs = np.asarray(state["walker_costs"], dtype=float)
        self._t_range = list(state["t_range"])
        self._e_range = list(state["e_range"])


def _normalized(x: np.ndarray, bounds: List[float]) -> np.ndarray:
    """``x`` scaled to [0, 1] over ``bounds``; zeros when they coincide."""
    lo, hi = bounds
    return (x - lo) / (hi - lo) if hi > lo else np.zeros_like(x)


_STRATEGIES = {
    "random": RandomWalkSource,
    "ga": GeneticSource,
    "anneal": AnnealingSource,
}


def make_source(
    strategy: str,
    space: SearchSpace,
    seed: int,
    options: Optional[Mapping[str, Any]] = None,
) -> CandidateSource:
    """Build a search agent by strategy name.

    ``options`` passes through to the agent's constructor (population
    size, walker count, cooling factor, ...).  ``"exhaustive"`` is not a
    search agent -- the engine routes it through the historical sweep --
    so asking for it here is an error.
    """
    try:
        cls = _STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise ValueError(
            f"unknown search strategy {strategy!r}; known: {known}"
        ) from None
    return cls(space, seed, **dict(options or {}))
