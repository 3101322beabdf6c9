"""Genome view of a k-group configuration space.

Agents do not reason about raw ``(n, cores, f)`` columns; they move
through a discrete *genome* space: per group, an index into that group's
positive node counts and an index into its (cores, frequency) settings,
or ``(-1, -1)`` when the group is absent.  :class:`SearchSpace` owns the
admissibility rules (a group may be absent only when its count list
admits 0, present only when it admits a positive count, and at least one
group must be present -- exactly the rules behind
:func:`repro.core.configuration.presence_masks`), uniform row sampling,
neighborhood moves, and decoding back to candidate columns.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.candidates import _normalize_counts
from repro.core.configuration import GroupSpec, node_settings, presence_masks
from repro.core.streaming import count_space_rows

#: One group's gene: (index into positive counts, index into settings),
#: or (-1, -1) when the group is absent.
Gene = Tuple[int, int]
Genome = Tuple[Gene, ...]

ABSENT: Gene = (-1, -1)


class SearchSpace:
    """The discrete genome space of a k-group configuration space."""

    def __init__(self, group_specs: Sequence[GroupSpec]):
        self.group_specs = tuple(group_specs)
        if not self.group_specs:
            raise ValueError("need at least one node-type group")
        counts = [
            _normalize_counts(gs.counts, gs.max_nodes)
            for gs in self.group_specs
        ]
        #: Per-group positive node counts (the genome's count axis).
        self.pos: List[np.ndarray] = [c[c > 0] for c in counts]
        #: Whether each group's count list admits absence (a 0 entry).
        self.has_zero: List[bool] = [bool(0 in c) for c in counts]
        #: Per-group (cores, f) settings, in canonical order.
        self.settings: List[List[Tuple[int, float]]] = [
            node_settings(gs.spec, gs.settings) for gs in self.group_specs
        ]
        #: Admissible presence masks, canonical block order.
        self.masks: List[Tuple[int, ...]] = list(
            presence_masks(self.group_specs)
        )
        if not self.masks:
            raise ValueError(
                "no configurations to search: the count lists admit neither "
                "a heterogeneous nor a homogeneous block"
            )
        self.num_groups = len(self.group_specs)
        #: Exact row count of the full space.
        self.total_rows = count_space_rows(self.group_specs)
        # The mask CDF exactly as ``rng.choice(p=weights)`` builds it: a
        # bisection of one ``rng.random()`` picks the index it would.
        weights = np.asarray(
            [self.mask_rows(m) for m in self.masks], dtype=float
        )
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._mask_cdf: List[float] = cdf.tolist()
        #: Per-group highest (count index, setting index); -1 for a
        #: group with no positive count.
        self._tops = [
            (p.size - 1, len(s) - 1) for p, s in zip(self.pos, self.settings)
        ]
        # Decode tables; the last entry, which an absent gene's -1
        # selects, is n = 0 with the spec's maximum cores and frequency.
        self._n_table = [np.append(p, 0).astype(np.int64) for p in self.pos]
        self._cores_table = [
            np.asarray([c for c, _ in s] + [gs.spec.cores.count], np.int64)
            for s, gs in zip(self.settings, self.group_specs)
        ]
        self._f_table = [
            np.asarray([fr for _, fr in s] + [gs.spec.cores.fmax_ghz], float)
            for s, gs in zip(self.settings, self.group_specs)
        ]

    # ---- admissibility and counting ------------------------------------

    def mask_rows(self, present: Tuple[int, ...]) -> int:
        """Exact row count of one presence mask's block."""
        rows = 1
        for g in present:
            rows *= int(self.pos[g].size) * len(self.settings[g])
        return rows

    def is_admissible(self, genome: Genome) -> bool:
        """Whether a genome decodes to a row of this space."""
        if len(genome) != self.num_groups:
            return False
        any_present = False
        for g, (ci, si) in enumerate(genome):
            if (ci, si) == ABSENT:
                if not self.has_zero[g]:
                    return False
                continue
            if not (0 <= ci < self.pos[g].size):
                return False
            if not (0 <= si < len(self.settings[g])):
                return False
            any_present = True
        return any_present

    # ---- sampling and moves --------------------------------------------

    def random_genome(self, rng: np.random.Generator) -> Genome:
        """One genome sampled uniformly over the space's *rows*.

        Picks a presence mask with probability proportional to its block's
        row count, then a count and setting index uniformly per present
        group -- exactly a uniform draw over configurations.
        """
        mask = self.masks[bisect.bisect_right(self._mask_cdf, rng.random())]
        return tuple(
            self._random_gene(g, rng) if g in mask else ABSENT
            for g in range(self.num_groups)
        )

    def _random_gene(self, g: int, rng: np.random.Generator) -> Gene:
        """A uniform present gene of group ``g``: count draw, then setting."""
        top_c, top_s = self._tops[g]
        return int(rng.integers(top_c + 1)), int(rng.integers(top_s + 1))

    def neighbor(self, genome: Genome, rng: np.random.Generator) -> Genome:
        """One admissible single-gene move away from ``genome``.

        Moves: nudge a present group's count index or setting index by
        one step, drop a present group (when another group remains
        present and its counts admit 0), or wake an absent group at a
        random gene.  The move is chosen uniformly over the admissible
        move list, so every neighbor is reachable with positive
        probability -- what makes the annealing walkers ergodic.
        """
        moves: List[Tuple[int, str]] = []
        present = [g for g, gene in enumerate(genome) if gene != ABSENT]
        for g, (ci, si) in enumerate(genome):
            if (ci, si) == ABSENT:
                if self.pos[g].size:
                    moves.append((g, "wake"))
                continue
            if ci > 0:
                moves.append((g, "count-"))
            if ci < self.pos[g].size - 1:
                moves.append((g, "count+"))
            if si > 0:
                moves.append((g, "setting-"))
            if si < len(self.settings[g]) - 1:
                moves.append((g, "setting+"))
            if self.has_zero[g] and len(present) > 1:
                moves.append((g, "drop"))
        if not moves:
            return genome
        g, move = moves[int(rng.integers(len(moves)))]
        out = list(genome)
        ci, si = genome[g]
        if move == "wake":
            out[g] = self._random_gene(g, rng)
        elif move == "drop":
            out[g] = ABSENT
        elif move == "count-":
            out[g] = (ci - 1, si)
        elif move == "count+":
            out[g] = (ci + 1, si)
        elif move == "setting-":
            out[g] = (ci, si - 1)
        else:
            out[g] = (ci, si + 1)
        return tuple(out)

    def neighbors(self, genome: Genome) -> List[Genome]:
        """Every single-step count/setting neighbor of ``genome``.

        The deterministic 1-step neighborhood the genetic agent sweeps
        around its frontier (Pareto local search); presence toggles are
        included so homogeneous blocks are reachable from heterogeneous
        frontier points and vice versa.
        """
        out: List[Genome] = []
        present = [g for g, gene in enumerate(genome) if gene != ABSENT]
        for g, (ci, si) in enumerate(genome):
            if (ci, si) == ABSENT:
                if self.pos[g].size:
                    for s in range(len(self.settings[g])):
                        out.append(self._with_gene(genome, g, (0, s)))
                continue
            if ci > 0:
                out.append(self._with_gene(genome, g, (ci - 1, si)))
            if ci < self.pos[g].size - 1:
                out.append(self._with_gene(genome, g, (ci + 1, si)))
            if si > 0:
                out.append(self._with_gene(genome, g, (ci, si - 1)))
            if si < len(self.settings[g]) - 1:
                out.append(self._with_gene(genome, g, (ci, si + 1)))
            if self.has_zero[g] and len(present) > 1:
                out.append(self._with_gene(genome, g, ABSENT))
        return out

    @staticmethod
    def _with_gene(genome: Genome, g: int, gene: Gene) -> Genome:
        out = list(genome)
        out[g] = gene
        return tuple(out)

    def repair(self, genome: Genome, rng: np.random.Generator) -> Genome:
        """Coerce an arbitrary gene tuple into an admissible genome."""
        out: List[Gene] = []
        for g, gene in enumerate(genome):
            top_c, top_s = self._tops[g]
            if gene == ABSENT:
                out.append(
                    ABSENT if self.has_zero[g] else self._random_gene(g, rng)
                )
            elif top_c < 0:
                out.append(ABSENT)
            else:
                ci, si = gene
                out.append((min(max(ci, 0), top_c), min(max(si, 0), top_s)))
        if all(gene == ABSENT for gene in out):
            candidates = [g for g in range(self.num_groups) if self.pos[g].size]
            g = candidates[int(rng.integers(len(candidates)))]
            out[g] = self._random_gene(g, rng)
        return tuple(out)

    # ---- decoding ------------------------------------------------------

    def decode(
        self, genomes: Sequence[Genome]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Genomes to candidate ``(n, cores, f)`` column stacks.

        Absent groups follow the evaluator's convention: ``n = 0`` with
        the spec's maxima for cores/frequency.
        """
        genes = np.asarray(genomes, dtype=np.int64).reshape(
            len(genomes), self.num_groups, 2
        )
        ci, si = genes[:, :, 0].T, genes[:, :, 1].T
        n = np.stack([t[c] for t, c in zip(self._n_table, ci)])
        cores = np.stack([t[s] for t, s in zip(self._cores_table, si)])
        f = np.stack([t[s] for t, s in zip(self._f_table, si)])
        return n, cores, f

    def all_genomes(self) -> Iterator[Genome]:
        """Every genome of the space, in canonical presence-mask order.

        Cheap only on small spaces; the search driver uses it for the
        completion sweep that guarantees 100% recall when the row budget
        covers the whole space.
        """
        for present in self.masks:
            axes: List[List[Gene]] = []
            for g in range(self.num_groups):
                if g in present:
                    axes.append(
                        [
                            (ci, si)
                            for ci in range(self.pos[g].size)
                            for si in range(len(self.settings[g]))
                        ]
                    )
                else:
                    axes.append([ABSENT])
            yield from itertools.product(*axes)
