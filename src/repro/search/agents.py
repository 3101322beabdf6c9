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

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateBatch, CandidateSource
from repro.core.pareto import pareto_indices
from repro.search.space import Genome, SearchSpace


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


class _SeededSource(CandidateSource):
    """Shared plumbing: seeded RNG, seen-set, batch assembly."""

    def __init__(self, space: SearchSpace, seed: int):
        self.space = space
        self.seed = int(seed)
        self.rng = np.random.default_rng(np.random.PCG64(self.seed))
        self._seen: set = set()

    def reset(self) -> None:
        self.rng = np.random.default_rng(np.random.PCG64(self.seed))
        self._seen = set()

    def _batch(self, genomes: Sequence[Genome]) -> Optional[CandidateBatch]:
        if not genomes:
            return None
        n, cores, f = self.space.decode(genomes)
        return CandidateBatch(n=n, cores=cores, f=f, meta=tuple(genomes))

    def _fresh_random(
        self, k: int, taken: set, attempts_per: int = 25
    ) -> List[Genome]:
        """Up to ``k`` uniform-over-rows genomes not in ``_seen``/``taken``."""
        out: List[Genome] = []
        attempts = 0
        limit = max(1, k) * attempts_per
        while len(out) < k and attempts < limit:
            g = self.space.random_genome(self.rng)
            attempts += 1
            if g in self._seen or g in taken:
                continue
            taken.add(g)
            out.append(g)
        return out

    def _mark_seen(self, genomes: Sequence[Genome]) -> None:
        self._seen.update(genomes)

    def _base_state(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rng": self.rng.bit_generator.state,
            "seen": list(self._seen),
        }

    def _load_base_state(self, state: Mapping[str, Any]) -> None:
        self.seed = int(state["seed"])
        self.rng = np.random.default_rng(np.random.PCG64(self.seed))
        self.rng.bit_generator.state = state["rng"]
        self._seen = set(tuple(g) for g in state["seen"])


class RandomWalkSource(_SeededSource):
    """Uniform row sampling without replacement: the search baseline."""

    name = "random"

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        if max_rows < 1:
            raise ValueError("batch row budget must be at least one row")
        genomes = self._fresh_random(max_rows, taken=set())
        self._mark_seen(genomes)
        return self._batch(genomes)

    def observe(self, batch, times_s, energies_j) -> None:
        self._mark_seen(batch.meta or ())

    def state_dict(self) -> Dict[str, Any]:
        return self._base_state()

    def load_state(self, state: Mapping[str, Any]) -> None:
        self._load_base_state(state)


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
        #: Recent evaluated individuals: (genome, time, energy).
        self._population: List[Tuple[Genome, float, float]] = []
        #: Nondominated archive: (genome, time, energy).
        self._archive: List[Tuple[Genome, float, float]] = []

    def reset(self) -> None:
        super().reset()
        self._population = []
        self._archive = []

    # ---- proposal ------------------------------------------------------

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        if max_rows < 1:
            raise ValueError("batch row budget must be at least one row")
        taken: set = set()
        genomes: List[Genome] = []

        if not self._population:
            genomes = self._fresh_random(
                min(max_rows, max(self.population_size, 2)), taken
            )
            self._mark_seen(genomes)
            return self._batch(genomes)

        # Pareto local search: the unseen 1-step neighborhood of the
        # current archive frontier, in archive order.
        for genome, _, _ in self._archive:
            for nb in self.space.neighbors(genome):
                if len(genomes) >= max_rows:
                    break
                if nb in self._seen or nb in taken:
                    continue
                taken.add(nb)
                genomes.append(nb)
            if len(genomes) >= max_rows:
                break

        # Offspring: Pareto-rank tournament selection, uniform
        # crossover, neighbor-move mutation.
        n_immigrants = int(
            round(self.immigrant_fraction * max(0, max_rows - len(genomes)))
        )
        pool = self._population + self._archive
        t = np.asarray([p[1] for p in pool])
        e = np.asarray([p[2] for p in pool])
        ranks = _pareto_ranks(t, e).tolist()
        attempts = 0
        limit = 25 * max_rows
        while len(genomes) < max_rows - n_immigrants and attempts < limit:
            attempts += 1
            child = self._crossover(
                pool[self._tournament(ranks)][0],
                pool[self._tournament(ranks)][0],
            )
            if self.rng.random() < self.mutation_rate:
                child = self.space.neighbor(child, self.rng)
            child = self.space.repair(child, self.rng)
            if child in self._seen or child in taken:
                continue
            taken.add(child)
            genomes.append(child)

        genomes.extend(self._fresh_random(max_rows - len(genomes), taken))
        self._mark_seen(genomes)
        return self._batch(genomes)

    def _tournament(self, ranks: List[int]) -> int:
        """The better-ranked of two uniform picks (lower index on ties)."""
        # Two scalar draws: the same two values as one ``size=2`` draw,
        # at half its cost.
        n = len(ranks)
        a, b = int(self.rng.integers(n)), int(self.rng.integers(n))
        return a if (ranks[a], a) <= (ranks[b], b) else b

    def _crossover(self, a: Genome, b: Genome) -> Genome:
        # One draw per gene, in gene order, as one vector draw.
        return tuple(
            x if u < 0.5 else y
            for x, y, u in zip(a, b, self.rng.random(len(a)).tolist())
        )

    # ---- feedback ------------------------------------------------------

    def observe(self, batch, times_s, energies_j) -> None:
        genomes = batch.meta or ()
        self._mark_seen(genomes)
        evaluated = list(zip(
            genomes,
            np.asarray(times_s, dtype=float).tolist(),
            np.asarray(energies_j, dtype=float).tolist(),
        ))
        self._population.extend(evaluated)
        self._population = self._population[-4 * self.population_size:]
        merged = self._archive + evaluated
        t = np.asarray([p[1] for p in merged])
        e = np.asarray([p[2] for p in merged])
        keep = pareto_indices(t, e)
        self._archive = [merged[int(i)] for i in keep]

    # ---- checkpoint ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        state = self._base_state()
        state.update(
            population=list(self._population),
            archive=list(self._archive),
        )
        return state

    def load_state(self, state: Mapping[str, Any]) -> None:
        self._load_base_state(state)
        self._population = [
            (tuple(g), float(t), float(e)) for g, t, e in state["population"]
        ]
        self._archive = [
            (tuple(g), float(t), float(e)) for g, t, e in state["archive"]
        ]


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
        self._temperature = self.initial_temperature
        #: Per-walker [genome, cost-or-None]; walker i scalarizes with
        #: weight lambda_i spread evenly over [0, 1].
        self._walkers: List[List[Any]] = []
        self._lambdas = (
            np.linspace(0.0, 1.0, self.num_walkers)
            if self.num_walkers > 1
            else np.asarray([0.5])
        )
        self._t_range = [np.inf, -np.inf]
        self._e_range = [np.inf, -np.inf]

    def reset(self) -> None:
        super().reset()
        self._temperature = self.initial_temperature
        self._walkers = []
        self._t_range = [np.inf, -np.inf]
        self._e_range = [np.inf, -np.inf]

    def propose(self, max_rows: int) -> Optional[CandidateBatch]:
        if max_rows < 1:
            raise ValueError("batch row budget must be at least one row")
        if not self._walkers:
            taken: set = set()
            starts = self._fresh_random(
                min(max_rows, self.num_walkers), taken
            )
            if not starts:
                starts = [
                    self.space.random_genome(self.rng)
                    for _ in range(min(max_rows, self.num_walkers))
                ]
            self._walkers = [[g, None] for g in starts]
            # Top up short fleets by reusing starts round-robin.
            while len(self._walkers) < self.num_walkers:
                self._walkers.append(
                    [starts[len(self._walkers) % len(starts)], None]
                )
            genomes = list(starts)
            owners = list(range(len(starts)))
        else:
            per_walker = max(1, max_rows // self.num_walkers)
            genomes = []
            owners = []
            taken = set()
            for w, (genome, _) in enumerate(self._walkers):
                for _ in range(per_walker):
                    if len(genomes) >= max_rows:
                        break
                    nb = self.space.neighbor(genome, self.rng)
                    if nb in taken:
                        continue
                    taken.add(nb)
                    genomes.append(nb)
                    owners.append(w)
        if not genomes:
            return None
        self._mark_seen(genomes)
        batch = self._batch(genomes)
        return CandidateBatch(
            n=batch.n, cores=batch.cores, f=batch.f,
            meta={"genomes": tuple(genomes), "owners": tuple(owners)},
        )

    def _cost(self, lam: float, t: float, e: float) -> float:
        t_lo, t_hi = self._t_range
        e_lo, e_hi = self._e_range
        tn = (t - t_lo) / (t_hi - t_lo) if t_hi > t_lo else 0.0
        en = (e - e_lo) / (e_hi - e_lo) if e_hi > e_lo else 0.0
        return lam * tn + (1.0 - lam) * en

    def observe(self, batch, times_s, energies_j) -> None:
        meta = batch.meta or {}
        genomes = meta.get("genomes", ())
        owners = meta.get("owners", ())
        self._mark_seen(genomes)
        if len(genomes) == 0:
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
        for genome, owner, ti, ei in zip(genomes, owners, t, e):
            walker = self._walkers[owner]
            lam = float(self._lambdas[owner])
            cost = self._cost(lam, float(ti), float(ei))
            current = walker[1]
            if current is None or cost < current:
                walker[0], walker[1] = genome, cost
            elif self._temperature > 0 and self.rng.random() < np.exp(
                -(cost - current) / self._temperature
            ):
                walker[0], walker[1] = genome, cost
        self._temperature *= self.cooling

    def state_dict(self) -> Dict[str, Any]:
        state = self._base_state()
        state.update(
            temperature=self._temperature,
            walkers=[[g, c] for g, c in self._walkers],
            t_range=list(self._t_range),
            e_range=list(self._e_range),
        )
        return state

    def load_state(self, state: Mapping[str, Any]) -> None:
        self._load_base_state(state)
        self._temperature = float(state["temperature"])
        self._walkers = [[tuple(g), c] for g, c in state["walkers"]]
        self._t_range = list(state["t_range"])
        self._e_range = list(state["e_range"])


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
