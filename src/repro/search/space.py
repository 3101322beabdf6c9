"""Packed genome codes over a k-group configuration space.

Agents move through a discrete *genome* space, not raw ``(n, cores,
f)`` columns.  Per group with ``P_g`` positive node counts and ``S_g``
(cores, frequency) settings, gene code ``0`` means absent and ``1 + ci
* S_g + si`` means count index ``ci`` at setting index ``si``; the
genome code is the mixed-radix number of the gene codes (radix ``P_g *
S_g + 1``, group 0 most significant), one ``int64`` per configuration.
Within one presence mask, code order is the canonical row order.
:class:`SearchSpace` owns the admissibility rules (those behind
:func:`repro.core.configuration.presence_masks`), uniform row sampling,
neighborhood moves, repair, and the conversions between codes and
candidate columns -- all on arrays of codes.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.candidates import _normalize_counts
from repro.core.configuration import GroupSpec, node_settings, presence_masks

#: Largest code space a genome code can address (int64).
_MAX_CODES = 2**63 - 1


def first_occurrences(codes: np.ndarray, *exclude: np.ndarray) -> np.ndarray:
    """Indices of each distinct code's first occurrence, in array order,
    skipping codes in any of the sorted arrays ``exclude``."""
    distinct, first = np.unique(codes, return_index=True)
    for sorted_codes in exclude:
        # Sorted needles: a cache-friendly search.
        first = first[~isin_sorted(distinct, sorted_codes)]
        distinct = codes[first]
    first.sort()
    return first


def isin_sorted(codes: np.ndarray, sorted_codes: np.ndarray) -> np.ndarray:
    """Whether each of ``codes`` is in the sorted array ``sorted_codes``."""
    if not sorted_codes.size:
        return np.zeros(codes.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_codes, codes), sorted_codes.size - 1)
    return sorted_codes[pos] == codes


def merge_sorted(sorted_codes: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``sorted_codes`` with the distinct, absent codes ``new`` inserted."""
    new = np.sort(new)
    return np.insert(sorted_codes, np.searchsorted(sorted_codes, new), new)


class SearchSpace:
    """The packed genome-code space of a k-group configuration space."""

    def __init__(self, group_specs: Sequence[GroupSpec]):
        self.group_specs = tuple(group_specs)
        if not self.group_specs:
            raise ValueError("need at least one node-type group")
        counts = [
            _normalize_counts(gs.counts, gs.max_nodes)
            for gs in self.group_specs
        ]
        self.num_groups = len(self.group_specs)
        #: Per-group positive node counts (the genome's count axis).
        self.pos: List[np.ndarray] = [c[c > 0] for c in counts]
        #: Per-group (cores, f) settings, in canonical order.
        self.settings: List[List[Tuple[int, float]]] = [
            node_settings(gs.spec, gs.settings) for gs in self.group_specs
        ]
        #: Whether each group's count list admits absence (a 0 entry).
        self.has_zero = np.asarray([bool(0 in c) for c in counts])
        # Per-group number of positive counts, P_g, and of settings, S_g.
        self._p = np.asarray([p.size for p in self.pos])
        self._s = np.asarray([len(s) for s in self.settings])
        # Per-group number of present gene codes, P_g * S_g.
        self._ps = self._p * self._s
        radix = [int(r) + 1 for r in self._ps]
        #: Number of distinct genome codes (the all-absent code included).
        self.code_space = math.prod(radix)
        if self.code_space > _MAX_CODES:
            raise ValueError(
                f"{self.num_groups}-group space has {self.code_space} genome "
                "codes, more than an int64 code can address"
            )
        #: Per-group radix R_g: the number of gene codes, absence included.
        self.radix = np.asarray(radix, dtype=np.int64)
        # Place value of each group's gene code, group 0 most significant.
        self._place = np.asarray(
            [math.prod(radix[g + 1:]) for g in range(self.num_groups)],
            dtype=np.int64,
        )
        #: Admissible presence masks, canonical block order.
        self.masks: List[Tuple[int, ...]] = list(
            presence_masks(self.group_specs)
        )
        if not self.masks:
            raise ValueError(
                "no configurations to search: the count lists admit neither "
                "a heterogeneous nor a homogeneous block"
            )
        self._mask_present = np.asarray(
            [[g in m for g in range(self.num_groups)] for m in self.masks]
        )
        weights = np.asarray([self.mask_rows(m) for m in self.masks], dtype=float)
        #: Exact row count of the full space.
        self.total_rows = sum(self.mask_rows(m) for m in self.masks)
        # A uniform draw's right bisection of the mask CDF picks a mask
        # with probability proportional to its block's rows.
        self._mask_cdf = weights.cumsum() / weights.sum()
        self._mask_cdf[-1] = 1.0
        # Decode tables indexed by gene code; code 0 (absent) is n = 0
        # with the spec's maximum cores and frequency.
        self._n_table, self._cores_table, self._f_table = [], [], []
        for p, s, gs in zip(self.pos, self.settings, self.group_specs):
            cores, f = np.asarray(s).T
            self._n_table.append(np.append(0, np.repeat(p, len(s))))
            self._cores_table.append(
                np.append(gs.spec.cores.count, np.tile(cores, p.size)).astype(np.int64)
            )
            self._f_table.append(np.append(gs.spec.cores.fmax_ghz, np.tile(f, p.size)))
        # Encode lookups: each group's sorted positive counts and its
        # settings as sorted ``cores + 1j f`` keys (exact in both parts),
        # each with a sentinel above any query, and each key's setting index.
        keys = [np.asarray([c + 1j * f for c, f in s]) for s in self.settings]
        self._key_order = [np.argsort(k, kind="stable") for k in keys]
        self._keys = [np.append(k[o], np.inf) for k, o in zip(keys, self._key_order)]
        self._counts = [np.append(p, np.iinfo(np.int64).max) for p in self.pos]

    # ---- admissibility and counting ------------------------------------

    def mask_rows(self, present: Tuple[int, ...]) -> int:
        """Exact row count of one presence mask's block."""
        rows = 1
        for g in present:
            rows *= int(self._ps[g])
        return rows

    def genes(self, codes: np.ndarray) -> np.ndarray:
        """``(B, G)`` gene codes of genome codes ``codes``."""
        codes = np.asarray(codes, dtype=np.int64)
        return codes[:, None] // self._place % self.radix

    def compose(self, genes: np.ndarray) -> np.ndarray:
        """Genome codes of a ``(B, G)`` gene-code array."""
        return np.asarray(genes, dtype=np.int64) @ self._place

    def setting_indices(self, codes: np.ndarray) -> np.ndarray:
        """``(G, B)`` setting index of each group's gene (0 where absent)."""
        return np.maximum(self.genes(codes).T - 1, 0) % self._s[:, None]

    def admissible(self, codes: np.ndarray) -> np.ndarray:
        """Whether each code decodes to a row of this space."""
        codes = np.asarray(codes, dtype=np.int64)
        inside = (codes >= 0) & (codes < self.code_space)
        present = self.genes(np.where(inside, codes, 0)) > 0
        return (
            inside
            & present.any(axis=1)
            & (present | self.has_zero).all(axis=1)
        )

    # ---- sampling and moves --------------------------------------------

    def random_codes(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """``k`` codes drawn uniformly over the space's *rows*: one draw
        per row picks a mask in proportion to its rows, then one draw per
        group picks a uniform gene for the rows where it is present."""
        mask = np.searchsorted(self._mask_cdf, rng.random(k), side="right")
        present = self._mask_present[mask]
        codes = np.zeros(k, dtype=np.int64)
        for g in np.flatnonzero(self._ps):
            gene = 1 + rng.integers(self._ps[g], size=k)
            codes += np.where(present[:, g], gene, 0) * self._place[g]
        return codes

    def _moves(self, genes: np.ndarray) -> np.ndarray:
        """``(B, G, 6)`` admissibility of each single-gene move.

        Moves, per group: count index -1, count index +1, setting index
        -1, setting index +1, drop (another group stays present and the
        counts admit 0), wake (an absent group with a positive count).
        """
        present = genes > 0
        ci, si = np.divmod(np.maximum(genes - 1, 0), self._s)
        drop = present & self.has_zero & (present.sum(axis=1) > 1)[:, None]
        return np.stack(
            [
                present & (ci > 0),
                present & (ci < self._p - 1),
                present & (si > 0),
                present & (si < self._s - 1),
                drop,
                ~present & (self._p > 0),
            ],
            axis=2,
        )

    def neighbor_codes(
        self, codes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One admissible single-gene move away from each code.

        One draw per row picks its move uniformly among the admissible
        ones (:meth:`_moves`), so every neighbor is reachable -- what
        makes the annealing walkers ergodic; one more draw per woken row
        picks its gene.  A row with no admissible move stays.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if not codes.size:
            return codes.copy()
        genes = self.genes(codes)
        moves = self._moves(genes).reshape(codes.size, -1)
        count = moves.sum(axis=1)
        pick = rng.integers(np.maximum(count, 1))
        slot = np.argmax(moves.cumsum(axis=1) > pick[:, None], axis=1)
        group, move = np.divmod(slot, 6)
        rows = np.arange(codes.size)
        old = genes[rows, group]
        count_step = np.asarray([-1, 1, 0, 0, 0, 0])[move]
        setting_step = np.asarray([0, 0, -1, 1, 0, 0])[move]
        new = np.where(move == 4, 0, old + count_step * self._s[group] + setting_step)
        wake = move == 5
        new[wake] = 1 + rng.integers(self._ps[group[wake]])
        new = np.where(count > 0, new, old)
        return codes + (new - old) * self._place[group]

    def neighborhood(self, codes: np.ndarray) -> np.ndarray:
        """Every single-step neighbor of each code, in ``codes`` order.

        The deterministic 1-step neighborhood the genetic agent sweeps
        around its frontier (Pareto local search).  Per code, groups in
        order; per present group its count -1/+1, setting -1/+1 and drop
        moves, per absent group a wake at count index 0 and every
        setting -- presence toggles included, so homogeneous blocks are
        reachable from heterogeneous frontier points and vice versa.
        """
        codes = np.asarray(codes, dtype=np.int64)
        genes = self.genes(codes)
        moves = self._moves(genes)
        out, valid = [], []
        for g in range(self.num_groups):
            s, gene = int(self._s[g]), genes[:, g : g + 1]
            new = np.concatenate(
                [
                    gene + np.asarray([-s, s, -1, 1]),
                    np.zeros_like(gene),
                    np.broadcast_to(1 + np.arange(s), (codes.size, s)),
                ],
                axis=1,
            )
            ok = np.concatenate(
                [moves[:, g, :5], np.repeat(moves[:, g, 5:], s, axis=1)],
                axis=1,
            )
            out.append(codes[:, None] + (new - gene) * self._place[g])
            valid.append(ok)
        return np.concatenate(out, axis=1)[np.concatenate(valid, axis=1)]

    def repair_codes(
        self, genes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Codes of an in-range ``(B, G)`` gene array, made admissible.

        Draws only for rows that need them: a uniform gene for each group
        that cannot be absent but is, then a uniform group and gene for
        each row with no present group.
        """
        genes = np.array(genes, dtype=np.int64)
        for g in np.flatnonzero(~self.has_zero & (self._ps > 0)):
            bad = np.flatnonzero(genes[:, g] == 0)
            genes[bad, g] = 1 + rng.integers(self._ps[g], size=bad.size)
        empty = np.flatnonzero(~(genes > 0).any(axis=1))
        if empty.size:
            wakeable = np.flatnonzero(self._ps)
            group = wakeable[rng.integers(wakeable.size, size=empty.size)]
            genes[empty, group] = 1 + rng.integers(self._ps[group])
        return self.compose(genes)

    # ---- conversions ---------------------------------------------------

    def decode(
        self, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Codes to candidate ``(n, cores, f)`` ``(G, B)`` column stacks.

        Absent groups follow the evaluator's convention: ``n = 0`` with
        the spec's maxima for cores/frequency.
        """
        genes = self.genes(codes).T
        n = np.stack([t[c] for t, c in zip(self._n_table, genes)])
        cores = np.stack([t[c] for t, c in zip(self._cores_table, genes)])
        f = np.stack([t[c] for t, c in zip(self._f_table, genes)])
        return n, cores, f

    def encode(
        self, n: np.ndarray, cores: np.ndarray, f: np.ndarray
    ) -> np.ndarray:
        """Candidate ``(n, cores, f)`` ``(G, B)`` columns back to codes.

        Exact: a present group's count and ``(cores, f)`` must be one of
        its counts and settings, bit for bit, and the presence pattern
        admissible; anything else raises a :class:`ValueError`.
        """
        n = np.asarray(n, dtype=np.int64)
        cores = np.asarray(cores, dtype=np.int64)
        f = np.asarray(f, dtype=float)
        codes = np.zeros(n.shape[1], dtype=np.int64)
        for g, gs in enumerate(self.group_specs):
            present = n[g] > 0
            counts, keys, key = self._counts[g], self._keys[g], cores[g] + 1j * f[g]
            ci, j = np.searchsorted(counts, n[g]), np.searchsorted(keys, key)
            bad = present & ((counts[ci] != n[g]) | (keys[j] != key))
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"candidate ({int(n[g, i])} nodes, {int(cores[g, i])} "
                    f"cores, {float(f[g, i])} GHz) is not admissible for "
                    f"node type {gs.spec.name!r}"
                )
            si = self._key_order[g][np.minimum(j, keys.size - 2)]
            gene = 1 + ci * self._s[g] + si
            codes += np.where(present, gene, 0) * self._place[g]
        present = n > 0
        if not (present.any(axis=0) & (present | self.has_zero[:, None]).all(axis=0)).all():
            raise ValueError(
                "every candidate row needs at least one present group, and "
                "only a group whose counts admit 0 may be absent"
            )
        return codes

    def all_codes(self) -> np.ndarray:
        """Every code of the space, in canonical presence-mask row order.

        Cheap only on small spaces; the search driver uses it for the
        completion sweep that guarantees 100% recall when the row budget
        covers the whole space.
        """
        blocks = []
        for present in self.masks:
            block = np.zeros(1, dtype=np.int64)
            for g in present:
                genes = (1 + np.arange(self._ps[g])) * self._place[g]
                block = (block[:, None] + genes).reshape(-1)
            blocks.append(block)
        return np.concatenate(blocks)
