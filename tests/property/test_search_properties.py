"""Search-layer properties: exhaustive invisibility, agent recall, codes.

Three contracts.  First, :class:`~repro.core.candidates.ExhaustiveSource`
is the *same computation* as the monolithic evaluator -- its proposal
stream concatenates to bit-identical ``(n, cores, f)`` columns on any
2-/3-type space at any batch size, so refactoring enumeration behind
the :class:`~repro.core.candidates.CandidateSource` seam changed no
artifact anywhere.  Second, every search agent driven by
:func:`~repro.search.driver.run_search` reaches 100% frontier recall
whenever the budget covers the space (the completion-sweep guarantee),
and the GA finds the full frontier of a cheap space well under full
budget at a pinned seed.  Third, on any small space the packed genome
codes stay admissible under every array move, round-trip through
decode/encode, and dedup exactly as ``(n, cores, f)`` tuple keys do.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.calibration import ground_truth_params
from repro.core.candidates import ExhaustiveSource
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.core.pareto import ParetoFrontier
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.search import GeneticSource, SearchSpace, make_source, run_search
from repro.search.space import first_occurrences
from repro.search.trajectory import frontier_key_set
from tests.search.test_agents import _is_single_gene_move
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

EP3 = with_atom(EP)
PARAMS = {
    spec.name: ground_truth_params(spec, EP)
    for spec in (ARM_CORTEX_A9, AMD_K10)
}
PARAMS3 = {
    spec.name: ground_truth_params(spec, EP3)
    for spec in (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM)
}
UNITS = 1e6


def _drain_columns(specs, batch_rows):
    source = ExhaustiveSource(specs)
    ns, cs, fs = [], [], []
    while True:
        batch = source.propose(batch_rows)
        if batch is None:
            break
        ns.append(batch.n)
        cs.append(batch.cores)
        fs.append(batch.f)
    return (
        np.concatenate(ns, axis=1),
        np.concatenate(cs, axis=1),
        np.concatenate(fs, axis=1),
    )


class TestExhaustiveSourceIsTheEvaluatorOrder:
    @given(
        max_a=st.integers(1, 5),
        max_b=st.integers(1, 4),
        batch_rows=st.integers(7, 2000),
    )
    @settings(max_examples=25, deadline=None)
    def test_two_type_columns_bit_identical(self, max_a, max_b, batch_rows):
        specs = (GroupSpec(ARM_CORTEX_A9, max_a), GroupSpec(AMD_K10, max_b))
        full = evaluate_space_groups(specs, PARAMS, UNITS)
        n, cores, f = _drain_columns(specs, batch_rows)
        np.testing.assert_array_equal(n, full.n)
        np.testing.assert_array_equal(cores, full.cores)
        np.testing.assert_array_equal(f, full.f)

    @given(
        max_a=st.integers(1, 3),
        max_b=st.integers(1, 2),
        max_c=st.integers(1, 2),
        batch_rows=st.integers(50, 5000),
    )
    @settings(max_examples=10, deadline=None)
    def test_three_type_columns_bit_identical(
        self, max_a, max_b, max_c, batch_rows
    ):
        specs = (
            GroupSpec(ARM_CORTEX_A9, max_a),
            GroupSpec(AMD_K10, max_b),
            GroupSpec(INTEL_ATOM, max_c),
        )
        full = evaluate_space_groups(specs, PARAMS3, UNITS)
        n, cores, f = _drain_columns(specs, batch_rows)
        np.testing.assert_array_equal(n, full.n)
        np.testing.assert_array_equal(cores, full.cores)
        np.testing.assert_array_equal(f, full.f)


class TestAgentRecall:
    @given(
        strategy=st.sampled_from(["random", "ga", "anneal"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_full_budget_reaches_total_recall(self, strategy, seed):
        specs = (GroupSpec(ARM_CORTEX_A9, 2), GroupSpec(AMD_K10, 2))
        full = evaluate_space_groups(specs, PARAMS, UNITS)
        truth = ParetoFrontier.from_points(full.times_s, full.energies_j)
        space = SearchSpace(specs)
        searched = run_search(
            specs, PARAMS, UNITS,
            source=make_source(strategy, space, seed, {}),
            budget_rows=space.total_rows,
            batch_rows=128,
            best_known=truth,
            seed=seed,
            space=space,
        )
        assert searched.trajectory.final_recall == 1.0
        assert searched.rows_evaluated == space.total_rows
        assert frontier_key_set(searched.frontier) == frontier_key_set(truth)

    def test_ga_partial_budget_full_recall_at_pinned_seed(self):
        # A quarter of the 3x3 space suffices for the GA to find every
        # frontier point; the pinned seed keeps this deterministic.
        specs = (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 3))
        full = evaluate_space_groups(specs, PARAMS, UNITS)
        truth = ParetoFrontier.from_points(full.times_s, full.energies_j)
        space = SearchSpace(specs)
        searched = run_search(
            specs, PARAMS, UNITS,
            source=GeneticSource(space, seed=0),
            budget_rows=space.total_rows // 4,
            batch_rows=256,
            best_known=truth,
            space=space,
        )
        assert searched.rows_evaluated <= space.total_rows // 4
        assert searched.trajectory.final_recall == 1.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_searched_frontier_points_are_true_space_points(self, seed):
        # Sampled frontiers are approximate but never *wrong*: every
        # point must exist in the exhaustive space's point set.
        specs = (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 2))
        full = evaluate_space_groups(specs, PARAMS, UNITS)
        all_points = {
            (float(t), float(e))
            for t, e in zip(full.times_s, full.energies_j)
        }
        space = SearchSpace(specs)
        searched = run_search(
            specs, PARAMS, UNITS,
            source=make_source("anneal", space, seed, {}),
            budget_rows=max(1, space.total_rows // 5),
            batch_rows=64,
            seed=seed,
            space=space,
        )
        assert frontier_key_set(searched.frontier) <= all_points


group_counts = st.one_of(
    st.none(),
    st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
)


@st.composite
def small_spaces(draw):
    """A 2- or 3-type space; count lists may forbid or force absence."""
    specs = (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM)[: draw(st.integers(2, 3))]
    groups = tuple(
        GroupSpec(spec, draw(st.integers(1, 2)), counts=draw(group_counts))
        for spec in specs
    )
    try:
        return SearchSpace(groups)
    except ValueError:  # the count lists admit no configuration
        assume(False)


class TestGenomeCodes:
    @given(space=small_spaces(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_moves_and_repair_stay_admissible(self, space, seed):
        rng = np.random.default_rng(seed)
        codes = space.random_codes(rng, 64)
        assert space.admissible(codes).all()
        moved = space.neighbor_codes(codes, rng)
        assert space.admissible(moved).all()
        for a, b in zip(space.genes(codes), space.genes(moved)):
            # Only a one-row space leaves a row without a move.
            assert space.total_rows == 1 or _is_single_gene_move(
                space, a, b, wake_any=True
            )
        neighbors = space.neighborhood(codes[:8])
        assert space.admissible(neighbors).all()
        genes = rng.integers(space.radix, size=(64, space.num_groups))
        assert space.admissible(space.repair_codes(genes, rng)).all()
        n, cores, f = space.decode(codes)
        np.testing.assert_array_equal(space.encode(n, cores, f), codes)

    @given(space=small_spaces(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_code_dedup_matches_tuple_keys(self, space, seed):
        rng = np.random.default_rng(seed)
        pool = space.random_codes(rng, 12)
        codes = pool[rng.integers(pool.size, size=40)]
        seen = np.unique(pool[rng.integers(pool.size, size=4)])

        def keys(c):
            n, cores, f = space.decode(c)
            return list(zip(
                map(tuple, n.T.tolist()),
                map(tuple, cores.T.tolist()),
                map(tuple, f.T.tolist()),
            ))

        seen_keys = set(keys(seen))
        first_of = {}
        expected = [
            i for i, k in enumerate(keys(codes))
            if k not in seen_keys and first_of.setdefault(k, i) == i
        ]
        assert first_occurrences(codes, seen).tolist() == expected
