"""Search agents: determinism, state round-trips, and convergence.

Every agent must be seed-deterministic (same seed, same observations,
same proposals -- what makes searched artifacts cacheable), snapshot/
restore exactly (what makes them resumable), and reach 100% frontier
recall when the budget covers the whole space (the completion-sweep
guarantee).
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.core.pareto import ParetoFrontier
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.search import (
    AnnealingSource,
    GeneticSource,
    RandomWalkSource,
    SearchSpace,
    make_source,
    run_search,
)
from repro.search.trajectory import frontier_key_set
from repro.workloads.suite import EP

SPECS = (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 3))
#: A three-type space whose Atom group cannot be absent.
SPECS3 = (
    GroupSpec(ARM_CORTEX_A9, 2),
    GroupSpec(AMD_K10, 2),
    GroupSpec(INTEL_ATOM, 2, counts=(1, 2)),
)
PARAMS = {s.name: ground_truth_params(s, EP) for s in (ARM_CORTEX_A9, AMD_K10)}
UNITS = 1e6


@pytest.fixture(scope="module")
def truth():
    full = evaluate_space_groups(SPECS, PARAMS, UNITS)
    return ParetoFrontier.from_points(full.times_s, full.energies_j)


def _space():
    return SearchSpace(SPECS)


AGENTS = {
    "random": lambda space, seed: RandomWalkSource(space, seed),
    "ga": lambda space, seed: GeneticSource(space, seed, population=32),
    "anneal": lambda space, seed: AnnealingSource(space, seed, walkers=4),
}


class TestDeterminism:
    @pytest.mark.parametrize("strategy", sorted(AGENTS))
    def test_same_seed_same_proposals(self, strategy):
        batches = []
        for _ in range(2):
            space = _space()
            source = AGENTS[strategy](space, seed=11)
            batch = source.propose(64)
            batches.append((batch.n.copy(), batch.cores.copy(), batch.f.copy()))
        for a, b in zip(batches[0], batches[1]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("strategy", sorted(AGENTS))
    def test_different_seeds_diverge(self, strategy):
        space = _space()
        a = AGENTS[strategy](space, seed=1).propose(64)
        b = AGENTS[strategy](_space(), seed=2).propose(64)
        assert not (
            a.n.shape == b.n.shape and np.array_equal(a.n, b.n)
            and np.array_equal(a.f, b.f)
        )

    @pytest.mark.parametrize("strategy", sorted(AGENTS))
    def test_state_roundtrip_resumes_identically(self, strategy):
        def drive(source, rounds):
            out = []
            for _ in range(rounds):
                batch = source.propose(32)
                t = batch.n.sum(axis=0).astype(float) + 1.0
                e = batch.f.sum(axis=0) + 1.0
                source.observe(batch, t, e)
                out.append(batch)
            return out

        space = _space()
        source = AGENTS[strategy](space, seed=5)
        drive(source, 2)
        state = source.state_dict()
        tail_a = drive(source, 2)

        clone = AGENTS[strategy](_space(), seed=5)
        clone.load_state(state)
        tail_b = drive(clone, 2)
        for x, y in zip(tail_a, tail_b):
            np.testing.assert_array_equal(x.n, y.n)
            np.testing.assert_array_equal(x.cores, y.cores)
            np.testing.assert_array_equal(x.f, y.f)


class TestRecall:
    @pytest.mark.parametrize("strategy", sorted(AGENTS))
    def test_full_budget_reaches_total_recall(self, strategy, truth):
        space = _space()
        searched = run_search(
            SPECS, PARAMS, UNITS,
            source=AGENTS[strategy](space, seed=0),
            budget_rows=space.total_rows,
            batch_rows=256,
            best_known=truth,
            space=space,
        )
        assert searched.trajectory.final_recall == 1.0
        assert searched.rows_evaluated == space.total_rows
        assert frontier_key_set(searched.frontier) == frontier_key_set(truth)

    def test_partial_budget_monotone_rows(self, truth):
        space = _space()
        searched = run_search(
            SPECS, PARAMS, UNITS,
            source=GeneticSource(space, seed=0, population=32),
            budget_rows=space.total_rows // 4,
            batch_rows=128,
            best_known=truth,
            space=space,
        )
        rows = [r.rows_evaluated for r in searched.trajectory.rounds]
        assert rows == sorted(rows)
        assert searched.rows_evaluated <= space.total_rows // 4
        assert searched.budget_rows == space.total_rows // 4


    def test_source_proposing_past_its_batch_is_rejected(self):
        space = _space()

        class Greedy(RandomWalkSource):
            def propose(self, max_rows):
                return super().propose(max_rows + 1)

        with pytest.raises(ValueError, match="proposed 33 rows"):
            run_search(
                SPECS, PARAMS, UNITS, source=Greedy(space, seed=0),
                budget_rows=64, batch_rows=32, space=space,
            )


class TestMakeSource:
    def test_known_strategies(self):
        space = _space()
        for strategy, cls in (
            ("random", RandomWalkSource),
            ("ga", GeneticSource),
            ("anneal", AnnealingSource),
        ):
            source = make_source(strategy, space, seed=0, options={})
            assert isinstance(source, cls)
            assert source.name == strategy

    def test_exhaustive_and_unknown_rejected(self):
        space = _space()
        with pytest.raises(ValueError):
            make_source("exhaustive", space, seed=0, options={})
        with pytest.raises(ValueError):
            make_source("tabu", space, seed=0, options={})

    @pytest.mark.parametrize("cls", [RandomWalkSource, GeneticSource, AnnealingSource])
    def test_each_agent_defines_propose_and_observe(self, cls):
        # perfbench's layer tracer wraps these methods in each class's
        # own namespace, so an inherited one cannot be traced.
        assert {"propose", "observe"} <= set(vars(cls))

    def test_options_forwarded(self):
        source = make_source("ga", _space(), seed=0, options={"population": 7})
        assert source.population_size == 7


class TestSearchSpace:
    def test_total_rows_matches_streaming_count(self):
        from repro.core.streaming import count_space_rows

        assert _space().total_rows == count_space_rows(SPECS)

    def test_all_codes_cover_the_space_exactly(self):
        space = _space()
        codes = space.all_codes()
        assert codes.size == space.total_rows
        assert np.unique(codes).size == space.total_rows
        assert space.admissible(codes).all()

    @pytest.mark.parametrize("specs", [SPECS, SPECS3], ids=["two", "three"])
    def test_decoded_codes_match_the_tuple_genome_order(self, specs):
        space = SearchSpace(specs)
        codes = space.all_codes()
        n, cores, f = space.decode(codes)
        ref = np.asarray(
            [_tuple_decode(space, g) for g in _tuple_genomes(space)]
        ).transpose(1, 2, 0)
        np.testing.assert_array_equal(n, ref[0])
        np.testing.assert_array_equal(cores, ref[1])
        np.testing.assert_array_equal(f, ref[2])
        np.testing.assert_array_equal(space.encode(n, cores, f), codes)

    def test_random_codes_hit_masks_in_proportion_to_rows(self):
        from scipy.stats import chi2

        space = SearchSpace((GroupSpec(ARM_CORTEX_A9, 1), GroupSpec(AMD_K10, 1)))
        codes = space.random_codes(np.random.default_rng(7), 20_000)
        present = space.genes(codes) > 0
        masks = [tuple(np.flatnonzero(row)) for row in present]
        observed = np.asarray([masks.count(m) for m in space.masks])
        expected = codes.size * np.asarray(
            [space.mask_rows(m) for m in space.masks]
        ) / space.total_rows
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.999, len(space.masks) - 1)

    def test_neighbors_are_admissible(self):
        # Both spaces; the three-type Atom group cannot be absent.
        for specs in (SPECS, SPECS3):
            space = SearchSpace(specs)
            rng = np.random.default_rng(0)
            codes = space.random_codes(rng, 400)
            moved = space.neighbor_codes(codes, rng)
            assert space.admissible(moved).all()
            for a, b in zip(space.genes(codes), space.genes(moved)):
                assert _is_single_gene_move(space, a, b, wake_any=True)
            for code in codes[:40]:
                neighbors = space.neighborhood(np.asarray([code]))
                assert neighbors.size and space.admissible(neighbors).all()
                genes = space.genes(np.asarray([code]))[0]
                for b in space.genes(neighbors):
                    assert _is_single_gene_move(space, genes, b, wake_any=False)

    @pytest.mark.parametrize("specs", [SPECS, SPECS3], ids=["two", "three"])
    def test_repair_makes_any_gene_array_admissible(self, specs):
        space = SearchSpace(specs)
        rng = np.random.default_rng(3)
        genes = rng.integers(space.radix, size=(500, len(specs)))
        genes[:50] = 0  # all-absent rows
        repaired = space.genes(space.repair_codes(genes, rng))
        assert space.admissible(space.compose(repaired)).all()
        present = genes > 0
        np.testing.assert_array_equal(repaired[present], genes[present])

    def test_code_space_overflowing_int64_is_rejected(self):
        specs = tuple(
            GroupSpec(dataclasses.replace(ARM_CORTEX_A9, name=f"arm{i}"), 4)
            for i in range(20)
        )
        with pytest.raises(ValueError, match="int64"):
            SearchSpace(specs)


def _tuple_genomes(space):
    """The space's genomes as (count index, setting index) tuples per
    group, (-1, -1) for an absent group, in canonical order."""
    for present in space.masks:
        axes = [
            [
                (ci, si)
                for ci in range(space.pos[g].size)
                for si in range(len(space.settings[g]))
            ]
            if g in present else [(-1, -1)]
            for g in range(space.num_groups)
        ]
        yield from itertools.product(*axes)


def _tuple_decode(space, genome):
    """One tuple genome's (n, cores, f) per group."""
    out = []
    for g, (ci, si) in enumerate(genome):
        spec = space.group_specs[g].spec
        if ci < 0:
            out.append((0, spec.cores.count, spec.cores.fmax_ghz))
        else:
            cores, f = space.settings[g][si]
            out.append((int(space.pos[g][ci]), cores, f))
    return list(zip(*out))


def _is_single_gene_move(space, a, b, wake_any):
    """Whether gene rows ``a`` -> ``b`` differ by one admissible move."""
    changed = np.flatnonzero(a != b)
    if changed.size != 1:
        return False
    g = int(changed[0])
    s = int(len(space.settings[g]))
    if a[g] == 0:  # wake: count index 0 only in the neighborhood
        return wake_any or (b[g] - 1) // s == 0
    if b[g] == 0:  # drop
        return bool(space.has_zero[g]) and int((a > 0).sum()) > 1
    (ca, sa), (cb, sb) = divmod(a[g] - 1, s), divmod(b[g] - 1, s)
    return abs(ca - cb) + abs(sa - sb) == 1
