import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rankcred as rc
from rankcred.posterior import PosteriorDraws
from rankcred.rankdist import DS_TOL, rank_table


class TestRankTable:
    def test_tie_free_is_permutation(self):
        table = rank_table([0.3, 0.1, 0.2])
        # entity 1 is smallest -> rank 1, entity 2 -> rank 2, entity 0 -> rank 3
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 2] = expected[2, 0] = 1.0
        assert np.array_equal(table, expected)

    def test_pair_tie_halves(self):
        table = rank_table([5.0, 5.0, 9.0])
        assert np.allclose(table[:2, :2], 0.5)
        assert table[2, 2] == 1.0
        assert table[:2, 2].sum() == 0.0

    def test_all_tied_uniform(self):
        table = rank_table([7.0, 7.0, 7.0])
        assert np.allclose(table, 1.0 / 3.0)

    def test_two_groups(self):
        table = rank_table([1.0, 2.0, 1.0, 2.0])
        assert np.allclose(table[np.ix_([0, 1], [0, 2])], 0.5)
        assert np.allclose(table[np.ix_([2, 3], [1, 3])], 0.5)
        assert table.sum() == pytest.approx(4.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(rc.DomainError):
            rank_table([1.0, np.nan])

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=8)
    )
    @settings(max_examples=100, deadline=None)
    def test_always_doubly_stochastic(self, vals):
        table = rank_table(np.array(vals, dtype=float))
        assert np.allclose(table.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_consistent_with_midrank(self):
        # column means of ranks 1..m weighted by the table reproduce midranks
        vals = np.array([0.4, 0.1, 0.4, 0.2])
        table = rank_table(vals)
        got = np.arange(1, 5) @ table
        assert np.allclose(got, rc.rank_of(vals, rc.MIDRANK))


def toy_selection_and_draws(S=400, m=5, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((S, m)) + np.arange(m)
    draws = PosteriorDraws(theta=theta, model="UB", seed=seed)
    sel = rc.cartesian_select(draws, alpha=0.1)
    return sel, draws


class TestBuildDistribution:
    def test_doubly_stochastic_equal(self):
        sel, draws = toy_selection_and_draws()
        dist = rc.build_distribution(sel, draws)
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)
        assert np.allclose(dist.probs.sum(axis=1), 1.0, atol=DS_TOL)

    def test_doubly_stochastic_mahal(self):
        sel, draws = toy_selection_and_draws(seed=1)
        ctx = (draws.theta.mean(axis=0), np.cov(draws.theta.T))
        dist = rc.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP, mahal_context=ctx)
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)
        assert np.allclose(dist.probs.sum(axis=1), 1.0, atol=DS_TOL)

    def test_equal_weighting_averages_tables(self):
        theta = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        draws = PosteriorDraws(theta=theta, model="UB", seed=0)
        sel = rc.elliptical_select(draws, theta.mean(axis=0), np.eye(3), alpha=0.01)
        dist = rc.build_distribution(sel, draws)
        manual = 0.5 * (rank_table(theta[0]) + rank_table(theta[1]))
        assert np.allclose(dist.probs, manual)

    def test_mahal_weights_follow_distances(self):
        # second draw is farther from center, so the distribution leans
        # toward the ranking of the first draw
        theta = np.array([[0.1, 0.2, 0.9], [0.9, 0.2, 0.1], [0.9, 0.2, 0.1]])
        draws = PosteriorDraws(theta=theta, model="UB", seed=0)
        sel = rc.elliptical_select(draws, [0.1, 0.2, 0.9], np.eye(3), alpha=0.01)
        assert sel.K == 3
        dist = rc.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP)
        d1 = rc.mahalanobis(theta[1], [0.1, 0.2, 0.9], np.eye(3))
        w_far = np.exp(-d1 / 2.0) / (1.0 + 2.0 * np.exp(-d1 / 2.0))
        expected = (1 - 2 * w_far) * rank_table(theta[0]) + 2 * w_far * rank_table(theta[1])
        assert np.allclose(dist.probs, expected, atol=1e-12)
        # equal weighting would give 1/3; downweighting the far draws helps
        assert dist.probs[0, 0] > 1.0 / 3.0

    def test_cartesian_mahal_requires_context(self):
        sel, draws = toy_selection_and_draws(seed=2)
        with pytest.raises(rc.DomainError, match="mahal_context"):
            rc.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP)

    def test_unknown_weighting(self):
        sel, draws = toy_selection_and_draws(seed=3)
        with pytest.raises(rc.DomainError, match="weighting"):
            rc.build_distribution(sel, draws, weighting="softmax")

    def test_monotone_relabeling_invariance(self):
        # a strictly increasing transform of every draw leaves the
        # distribution untouched when the same draws are selected
        sel, draws = toy_selection_and_draws(seed=4)
        warped = PosteriorDraws(
            theta=np.exp(draws.theta) + 3 * draws.theta, model="UB", seed=0
        )
        d1 = rc.build_distribution(sel, draws)
        d2 = rc.build_distribution(sel, warped)
        assert np.allclose(d1.probs, d2.probs)

    def test_tie_free_rows_match_rank_tables(self):
        # the weighted count over (rank, entity) cells against the table path
        theta = np.random.default_rng(5).standard_normal((40, 6))
        draws = PosteriorDraws(theta=theta, model="UB", seed=0)
        sel = rc.elliptical_select(draws, np.zeros(6), np.eye(6), alpha=0.01)
        dist = rc.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP)
        w = np.exp(-sel.ellip.distances[sel.indices] / 2)
        manual = sum(wi * rank_table(t) for wi, t in zip(w / w.sum(), theta[sel.indices]))
        assert np.allclose(dist.probs, manual, atol=1e-12)

    def test_tied_rows_handled(self):
        theta = np.array([[1.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
        draws = PosteriorDraws(theta=theta, model="UB", seed=0)
        sel = rc.elliptical_select(draws, theta.mean(axis=0), np.eye(3), alpha=0.01)
        dist = rc.build_distribution(sel, draws)
        manual = sum(rank_table(t) for t in theta) / 3.0
        assert np.allclose(dist.probs, manual, atol=1e-12)
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)

    def test_extreme_distances_stay_finite(self):
        # weights survive distances large enough to underflow exp(-d/2)
        theta = np.array([[0.0, 1.0], [100.0, -100.0], [0.1, 1.1]])
        draws = PosteriorDraws(theta=theta, model="UB", seed=0)
        sel = rc.elliptical_select(draws, [0.0, 1.0], 1e-4 * np.eye(2), alpha=0.01)
        dist = rc.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP)
        assert np.all(np.isfinite(dist.probs))
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)


class TestMarginals:
    def test_expected_rank_sums_to_total(self):
        sel, draws = toy_selection_and_draws(seed=5, m=6)
        dist = rc.build_distribution(sel, draws)
        total = sum(rc.expected_rank(dist, i) for i in range(6))
        assert total == pytest.approx(6 * 7 / 2, abs=1e-9)

    def test_marginal_is_column(self):
        sel, draws = toy_selection_and_draws(seed=6)
        dist = rc.build_distribution(sel, draws)
        for i in range(5):
            marg = rc.rank_marginal(dist, i)
            assert np.array_equal(marg, dist.probs[:, i])
            assert marg.sum() == pytest.approx(1.0, abs=DS_TOL)

    def test_out_of_range_entity(self):
        sel, draws = toy_selection_and_draws(seed=7)
        dist = rc.build_distribution(sel, draws)
        with pytest.raises(rc.DomainError):
            rc.rank_marginal(dist, 5)

    def test_well_separated_entities_concentrate(self):
        rng = np.random.default_rng(8)
        theta = rng.normal(loc=np.array([0.0, 10.0, 20.0]), scale=0.1, size=(500, 3))
        draws = PosteriorDraws(theta=theta, model="UB", seed=0)
        sel = rc.cartesian_select(draws, alpha=0.1)
        dist = rc.build_distribution(sel, draws)
        assert np.allclose(np.diag(dist.probs), 1.0)
        assert rc.expected_rank(dist, 2) == pytest.approx(3.0)
