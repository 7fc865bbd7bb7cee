import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri

import rankcred as rc
from rankcred.kww import intervals, lambda_sets

from conftest import make_dataset
from oracles import box_rank_ranges, lambda_sets_reference


class TestGamma:
    def test_bonferroni(self):
        assert rc.gamma_from_alpha(0.1, 18, rc.BONFERRONI) == pytest.approx(0.1 / 18)

    def test_independence(self):
        got = rc.gamma_from_alpha(0.1, 18, rc.INDEPENDENCE)
        assert got == pytest.approx(1 - 0.9 ** (1 / 18))
        assert got == pytest.approx(0.0058365, abs=1e-6)

    def test_independence_wider_than_bonferroni(self):
        # independence gamma exceeds alpha/m, so its z is smaller
        for m in (2, 5, 18, 100):
            assert rc.gamma_from_alpha(0.1, m, rc.INDEPENDENCE) > rc.gamma_from_alpha(
                0.1, m, rc.BONFERRONI
            )

    def test_m_one_recovers_alpha(self):
        assert rc.gamma_from_alpha(0.05, 1, rc.INDEPENDENCE) == pytest.approx(0.05)
        assert rc.gamma_from_alpha(0.05, 1, rc.BONFERRONI) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(rc.DomainError):
            rc.gamma_from_alpha(0.0, 5)
        with pytest.raises(rc.DomainError):
            rc.gamma_from_alpha(0.1, 0)
        with pytest.raises(rc.DomainError):
            rc.gamma_from_alpha(0.1, 5, "sidak")

    @pytest.mark.parametrize("method", [rc.INDEPENDENCE, rc.BONFERRONI])
    def test_alpha_too_small_for_m(self, method):
        # 1 - 1e-17 rounds to 1, and so does 1 - gamma/2 for gamma = 1e-17/5:
        # either would give infinite intervals
        with pytest.raises(rc.DomainError, match=r"alpha=1e-17 is too small for m=5"):
            rc.gamma_from_alpha(1e-17, 5, method)
        assert 1 - rc.gamma_from_alpha(1e-14, 5, method) / 2 < 1


class TestIntervals:
    def test_ninety_percent_z(self):
        ds = make_dataset([0.0, 1.0], [1.0, 4.0])
        ivals = intervals(ds, gamma=0.1)
        z = 1.6448536269514722
        assert np.allclose(ivals[0], [-z, z])
        assert np.allclose(ivals[1], [1 - 2 * z, 1 + 2 * z])

    def test_centered_on_y(self):
        ds = make_dataset([0.3, -0.1, 2.0], [0.5, 0.25, 1.0])
        ivals = intervals(ds, gamma=0.05)
        assert np.allclose(ivals.mean(axis=1), ds.y)

    def test_invalid_gamma(self):
        ds = make_dataset([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(rc.DomainError):
            intervals(ds, gamma=1.5)

    def test_gamma_too_small(self):
        # 1 - 1e-17/2 rounds to 1: the quantile would be infinite
        ds = make_dataset([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(rc.DomainError, match=r"gamma=1e-17 is too small"):
            intervals(ds, gamma=1e-17)

    def test_z_matches_ndtri(self):
        ds = make_dataset([0.0, 0.0], [1.0, 1.0])
        gammas = np.append(np.geomspace(1e-15, 0.5, 400), [0.1, 0.05])
        z = np.array([intervals(ds, g)[0, 1] for g in gammas])
        assert np.allclose(z, ndtri(1 - gammas / 2), rtol=2e-15, atol=0)


class TestLambdaSets:
    def test_disjoint_intervals(self):
        ivals = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        counts = lambda_sets(ivals)
        assert counts.tolist() == [[0, 2, 0], [1, 1, 0], [2, 0, 0]]

    def test_all_overlapping(self):
        ivals = np.array([[0.0, 10.0], [1.0, 9.0], [2.0, 8.0]])
        counts = lambda_sets(ivals)
        assert np.all(counts[:, 0] == 0)
        assert np.all(counts[:, 1] == 0)
        assert np.all(counts[:, 2] == 2)

    def test_touching_endpoints_count_as_separated(self):
        ivals = np.array([[0.0, 1.0], [1.0, 2.0]])
        counts = lambda_sets(ivals)
        assert counts.tolist() == [[0, 1, 0], [1, 0, 0]]

    def test_partition(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(10)
        half = rng.uniform(0.1, 1.0, 10)
        ivals = np.column_stack([y - half, y + half])
        counts = lambda_sets(ivals)
        assert np.all(counts.sum(axis=1) == 9)

    def test_equal_endpoints(self):
        # shared lower or upper ends overlap; an upper end equal to another's
        # lower end separates
        ivals = np.array([[0.0, 2.0], [0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        counts = lambda_sets(ivals)
        assert counts.tolist() == [[0, 1, 2], [0, 2, 1], [1, 1, 1], [3, 0, 0]]
        assert np.array_equal(counts, lambda_sets_reference(ivals))

    def test_degenerate_intervals(self):
        # a point inside an interval overlaps it; a point at an end separates
        ivals = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 3.0], [0.0, 2.0], [5.0, 5.0]])
        counts = lambda_sets(ivals)
        assert counts.tolist() == [[1, 2, 1], [0, 3, 1], [2, 1, 1], [0, 1, 3], [4, 0, 0]]
        assert np.array_equal(counts, lambda_sets_reference(ivals))

    def test_identical_intervals_overlap(self):
        # identical point intervals meet both U_j <= L_i and U_i <= L_j; they
        # overlap, like identical proper intervals
        ivals = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        counts = lambda_sets(ivals)
        assert counts.tolist() == [[0, 3, 1], [0, 3, 1], [2, 0, 2], [2, 0, 2], [2, 0, 2]]
        assert np.array_equal(counts, lambda_sets_reference(ivals))

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(0, 2)).map(lambda t: (t[0], t[0] + t[1])),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_endpoints_match_definitions(self, pairs):
        # small integer ends: equal endpoints, points and identical intervals
        ivals = np.array(pairs, dtype=float)
        counts = lambda_sets(ivals)
        assert np.array_equal(counts, lambda_sets_reference(ivals))
        assert np.all(counts >= 0)
        assert np.all(counts.sum(axis=1) == len(ivals) - 1)
        rank_lo = counts[:, 0] + 1
        rank_hi = counts[:, 0] + counts[:, 2] + 1
        assert np.all((1 <= rank_lo) & (rank_lo <= rank_hi) & (rank_hi <= len(ivals)))


class TestRankConfidenceSet:
    def test_separated_entities_pin_ranks(self):
        ds = make_dataset([0.0, 10.0, 20.0], [0.01, 0.01, 0.01])
        ks = rc.rank_confidence_set(ds, alpha=0.1)
        assert ks.rank_lo.tolist() == [1, 2, 3]
        assert ks.rank_hi.tolist() == [1, 2, 3]

    def test_identical_entities_full_range(self):
        ds = make_dataset([0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0])
        ks = rc.rank_confidence_set(ds, alpha=0.1)
        assert np.all(ks.rank_lo == 1)
        assert np.all(ks.rank_hi == 4)

    def test_underflowed_half_width(self):
        # sqrt(d) is far below the spacing of floats at 1e10, so the first two
        # intervals are the same point; they share ranks 2..3
        ds = make_dataset([1e10, 1e10, 0.0], [1e-30, 1e-30, 1.0])
        ks = rc.rank_confidence_set(ds, alpha=0.1)
        assert np.all(ks.intervals[:2] == 1e10)
        assert ks.rank_lo.tolist() == [2, 2, 1]
        assert ks.rank_hi.tolist() == [3, 3, 1]
        lo, hi = box_rank_ranges(ks.intervals)
        assert np.array_equal(ks.rank_lo, lo)
        assert np.array_equal(ks.rank_hi, hi)

    def test_range_contains_observed_rank(self, baseball):
        ks = rc.rank_confidence_set(baseball, alpha=0.1)
        obs = rc.rank_of(baseball.y, rc.HIGHEST_OF_TIES)
        assert np.all(ks.rank_lo <= obs)
        assert np.all(obs <= ks.rank_hi)

    def test_ranges_valid(self, baseball):
        for method in (rc.BONFERRONI, rc.INDEPENDENCE):
            ks = rc.rank_confidence_set(baseball, alpha=0.1, method=method)
            assert np.all(ks.rank_lo >= 1)
            assert np.all(ks.rank_hi <= 18)
            assert np.all(ks.rank_lo <= ks.rank_hi)

    def test_monotone_in_alpha(self, baseball):
        # smaller alpha -> wider intervals -> more overlap -> wider ranges
        ks_tight = rc.rank_confidence_set(baseball, alpha=0.3)
        ks_wide = rc.rank_confidence_set(baseball, alpha=0.01)
        assert np.all(ks_wide.rank_lo <= ks_tight.rank_lo)
        assert np.all(ks_wide.rank_hi >= ks_tight.rank_hi)

    def test_matches_box_enumeration_oracle(self):
        # the contiguous range equals the exact set of ranks attainable by
        # parameter vectors inside the interval box (small m, enumeration)
        rng = np.random.default_rng(3)
        for trial in range(5):
            y = rng.standard_normal(4)
            d = rng.uniform(0.05, 0.5, 4)
            ds = make_dataset(y, d)
            ks = rc.rank_confidence_set(ds, alpha=0.2)
            lo, hi = box_rank_ranges(ks.intervals)
            assert np.array_equal(ks.rank_lo, lo)
            assert np.array_equal(ks.rank_hi, hi)

    def test_coverage_simulation(self):
        # joint coverage of the true rank vector should be at least 1-alpha
        rng = np.random.default_rng(4)
        m, alpha = 5, 0.2
        theta = np.array([0.0, 0.3, 0.6, 0.9, 1.2])
        true_rank = np.arange(1, m + 1)
        d = np.full(m, 0.2)
        hits = 0
        n = 400
        for _ in range(n):
            y = rng.normal(theta, np.sqrt(d))
            ks = rc.rank_confidence_set(make_dataset(y, d), alpha=alpha, method=rc.BONFERRONI)
            if np.all((ks.rank_lo <= true_rank) & (true_rank <= ks.rank_hi)):
                hits += 1
        # one-sided check with binomial slack
        assert hits / n >= 1 - alpha - 3 * np.sqrt(alpha * (1 - alpha) / n)

    def test_baseball_extremes(self, baseball):
        # best and worst observed batters keep rank 1 / rank 18 in range
        ks = rc.rank_confidence_set(baseball, alpha=0.1, method=rc.BONFERRONI)
        assert ks.rank_lo[0] == 1  # top observed average
        assert ks.rank_hi[-1] == 18  # bottom observed average
