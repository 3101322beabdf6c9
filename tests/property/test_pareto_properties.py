"""Property-based tests of the Pareto frontier."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import pareto
from repro.core.pareto import ParetoFrontier, pareto_indices
from repro.core.streaming import FrontierReducer

points = st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    min_size=1,
    max_size=200,
)


class TestFrontierProperties:
    @given(data=points)
    @settings(max_examples=100, deadline=None)
    def test_frontier_points_are_undominated(self, data):
        times = [t for t, _ in data]
        energies = [e for _, e in data]
        idx = pareto_indices(times, energies)
        for i in idx:
            dominated = any(
                (times[j] <= times[i] and energies[j] < energies[i])
                or (times[j] < times[i] and energies[j] <= energies[i])
                for j in range(len(data))
            )
            assert not dominated

    @given(data=points)
    @settings(max_examples=100, deadline=None)
    def test_every_point_is_weakly_dominated_by_frontier(self, data):
        times = [t for t, _ in data]
        energies = [e for _, e in data]
        frontier = ParetoFrontier.from_points(times, energies)
        for t, e in data:
            best = frontier.min_energy_for_deadline(t)
            assert best is not None
            assert best <= e + 1e-12

    @given(data=points)
    @settings(max_examples=100, deadline=None)
    def test_staircase_shape(self, data):
        frontier = ParetoFrontier.from_points(
            [t for t, _ in data], [e for _, e in data]
        )
        assert (np.diff(frontier.times_s) > 0).all()
        assert (np.diff(frontier.energies_j) < 0).all()

    @given(data=points, deadline=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_query_monotone_in_deadline(self, data, deadline):
        frontier = ParetoFrontier.from_points(
            [t for t, _ in data], [e for _, e in data]
        )
        early = frontier.min_energy_for_deadline(deadline)
        late = frontier.min_energy_for_deadline(deadline * 2)
        if early is not None:
            assert late is not None and late <= early

    @given(data=points)
    @settings(max_examples=50, deadline=None)
    def test_frontier_of_frontier_is_identity(self, data):
        frontier = ParetoFrontier.from_points(
            [t for t, _ in data], [e for _, e in data]
        )
        again = ParetoFrontier.from_points(frontier.times_s, frontier.energies_j)
        np.testing.assert_array_equal(again.times_s, frontier.times_s)
        np.testing.assert_array_equal(again.energies_j, frontier.energies_j)


def _lexsort_oracle(times_s, energies_j) -> np.ndarray:
    """The plain lexsort pass, without the prefilter: the oracle the
    prefiltered ``pareto_indices`` must equal index for index."""
    t = np.asarray(times_s, dtype=float)
    e = np.asarray(energies_j, dtype=float)
    if t.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((e, t))
    e_sorted = e[order]
    running_min = np.minimum.accumulate(e_sorted)
    keep = np.empty(order.size, dtype=bool)
    keep[0] = True
    keep[1:] = e_sorted[1:] < running_min[:-1]
    return order[keep]


#: Values that stress comparisons: signed zeros, infinities, NaN.
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)
pool_values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIALS))


@st.composite
def _axis(draw, rng, n, nan=True):
    """One coordinate column of ``n`` rows.

    Either every value comes from a small drawn pool (ties on this axis,
    exact duplicates when both axes are tied) or the column is a
    heavy-tailed continuous draw with 1% of its rows replaced by pool
    values (ties only where the pool lands).
    """
    pool = np.asarray(draw(st.lists(pool_values, min_size=1, max_size=8)))
    if not nan:
        pool = np.where(np.isnan(pool), 1.0, pool)
    if draw(st.booleans()):
        return pool[rng.integers(0, pool.size, n)]
    column = rng.lognormal(0.0, 2.0, n)
    hits = rng.random(n) < 0.01
    column[hits] = pool[rng.integers(0, pool.size, hits.sum())]
    return column


@st.composite
def big_clouds(draw, nan_energies=True):
    """Point clouds above the prefilter's size cutoff.

    Hypothesis cannot draw 10k-row lists cheaply, so it draws a seed and
    small value pools, and numpy tiles them into the columns.
    """
    n = draw(st.integers(10_000, 40_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = draw(_axis(rng, n))
    energies = draw(_axis(rng, n, nan=nan_energies))
    return times, energies


EQUAL_CLOUD = (np.full(10_000, 2.5), np.full(10_000, 7.0))
ZERO_CLOUD = (
    np.tile([0.0, -0.0], 6_000), np.tile([-0.0, 0.0, 0.0], 4_000)
)


class TestPrefilterMatchesLexsort:
    @given(cloud=big_clouds())
    @example(cloud=EQUAL_CLOUD)
    @example(cloud=ZERO_CLOUD)
    @example(cloud=(np.full(10_000, np.nan), np.arange(10_000.0)[::-1]))
    @example(cloud=(np.arange(10_000.0), np.full(10_000, np.nan)))
    @settings(max_examples=80, deadline=None)
    def test_indices_equal_the_plain_pass(self, cloud):
        times, energies = cloud
        assert times.size >= pareto._PREFILTER_MIN_ROWS
        np.testing.assert_array_equal(
            pareto_indices(times, energies), _lexsort_oracle(times, energies)
        )

    # NaN energies are left out here: ``np.minimum.accumulate`` carries a
    # NaN to every later row of the batch pass, which a block-local pass
    # cannot see, so fold and batch differ on them with or without the
    # prefilter.
    @given(
        cloud=big_clouds(nan_energies=False),
        seed=st.integers(0, 2**32 - 1),
        n_cuts=st.integers(0, 6),
    )
    @example(cloud=EQUAL_CLOUD, seed=0, n_cuts=3)
    @example(cloud=ZERO_CLOUD, seed=1, n_cuts=2)
    @settings(max_examples=40, deadline=None)
    def test_reducer_fold_and_merge_equal_the_batch(self, cloud, seed, n_cuts):
        times, energies = cloud
        n = times.size
        batch = _lexsort_oracle(times, energies)
        rng = np.random.default_rng(seed)
        bounds = sorted({0, n, *(int(c) for c in rng.integers(0, n + 1, n_cuts))})
        folded = FrontierReducer()
        merged = FrontierReducer()
        for a, b in zip(bounds, bounds[1:]):
            folded.update(times[a:b], energies[a:b], start_row=a)
            worker = FrontierReducer()
            worker.update(times[a:b], energies[a:b], start_row=a)
            merged.merge(worker.state_dict())
        for reducer in (folded, merged):
            frontier = reducer.finish()
            np.testing.assert_array_equal(frontier.indices, batch)
            np.testing.assert_array_equal(frontier.times_s, times[batch])
            np.testing.assert_array_equal(frontier.energies_j, energies[batch])
