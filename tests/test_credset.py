import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import rankcred as rc
from rankcred.credset import mahalanobis_many
from rankcred.posterior import PosteriorDraws

from oracles import (
    box_peel_reference,
    cartesian_select_reference,
    kappa_grid_scan,
    mahalanobis_explicit,
)


def normal_draws(S, m, seed=0):
    rng = np.random.default_rng(seed)
    return PosteriorDraws(theta=rng.standard_normal((S, m)), model="UB", seed=seed)


class TestTuneKappa:
    def test_one_coordinate_recovers_alpha(self):
        draws = normal_draws(20000, 1, seed=1)
        kappa = rc.tune_kappa(draws, alpha=0.1).kappa
        assert kappa == pytest.approx(0.1, abs=0.02)

    def test_close_to_grid_oracle(self):
        draws = normal_draws(2000, 3, seed=2)
        kappa = rc.tune_kappa(draws, alpha=0.1).kappa
        sel = rc.cartesian_select(draws, alpha=0.1)
        target = round(2000 * 0.9)
        achieved = abs(sel.K - target)
        assert achieved <= max(1, kappa_grid_scan(draws.theta, 0.1, n_grid=1500))
        assert 0 < kappa < 1

    def test_tiny_alpha_selects_almost_everything(self):
        draws = normal_draws(1000, 4, seed=3)
        sel = rc.cartesian_select(draws, alpha=0.002)
        assert sel.K >= 998
        assert sel.cart.kappa < 0.01

    def test_invalid_alpha(self):
        draws = normal_draws(100, 2)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(rc.DomainError):
                rc.tune_kappa(draws, alpha)


def peeled_box(theta, alpha):
    """Library selection checked against `box_peel_reference`; None when
    S(1-alpha) < 1 leaves no draw to select."""
    draws = PosteriorDraws(theta=theta, model="UB", seed=0)
    S = len(theta)
    if S * (1 - alpha) < 1:
        with pytest.raises(rc.DomainError, match="no draw to select"):
            rc.cartesian_select(draws, alpha)
        return None
    sel = rc.cartesian_select(draws, alpha)
    kappa, lower, upper, indices = box_peel_reference(theta, alpha)
    assert sel.cart.kappa == kappa
    assert sel.cart.lower.tobytes() == lower.tobytes()
    assert sel.cart.upper.tobytes() == upper.tobytes()
    assert np.array_equal(sel.indices, indices)
    assert sel.K >= round(S * (1 - alpha))
    return sel


class TestBoxPeeling:
    """The peeled box equals the plain-loop recount of every box tried."""

    @given(
        S=st.integers(1, 400),
        m=st.integers(1, 6),
        spread=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 0.5, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=150, deadline=None)
    @example(S=3, m=1, spread=0, seed=0, alpha=0.4)  # one value: the sides meet before K = 2
    def test_tied_integer_draws(self, S, m, spread, seed, alpha):
        rng = np.random.default_rng(seed)
        peeled_box(rng.integers(-spread, spread + 1, size=(S, m)).astype(float), alpha)

    @given(
        S=st.integers(1, 400),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 0.5, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_continuous_draws_hit_target(self, S, m, seed, alpha):
        sel = peeled_box(np.random.default_rng(seed).standard_normal((S, m)), alpha)
        if sel is not None:
            assert sel.K == round(S * (1 - alpha))

    @pytest.mark.parametrize("alpha", [0.3, 0.375, 0.45])
    def test_two_draws_select_one(self, alpha):
        draws = PosteriorDraws(theta=np.array([[-1.0], [1.0]]), model="UB", seed=0)
        sel = rc.cartesian_select(draws, alpha)
        assert sel.K == 1
        assert list(sel.indices) == [1]


class TestMatchesQuantileReference:
    """Against the np.quantile bisection (`cartesian_select_reference`),
    every side lies on the order statistic at or just after the reference's
    type-7 index (S-1)kappa/2, and the count is exact."""

    @pytest.mark.parametrize("seed", [0, 2], ids=["14-step", "51-step"])
    def test_baseball_hb(self, baseball, seed):
        # the reference meets its tol after 14 bisection steps at fit seed 0, 51 at seed 2
        draws = rc.gibbs_hb(baseball, rc.HbConfig(samples=50000, seed=seed))
        S = draws.S
        sel = rc.cartesian_select(draws, 0.1)
        kappa_ref, _, _, ref_indices = cartesian_select_reference(draws.theta, 0.1)
        assert sel.K == round(S * 0.9)
        assert abs(len(ref_indices) - round(S * 0.9)) <= max(1, S // 10000)
        cols = np.sort(draws.theta, axis=0)
        below = [np.searchsorted(cols[:, c], sel.cart.lower[c]) for c in range(draws.m)]
        above = [S - np.searchsorted(cols[:, c], sel.cart.upper[c], "right") for c in range(draws.m)]
        floor = math.floor((S - 1) * kappa_ref / 2)
        assert set(below + above) <= {floor, floor + 1}


class TestCartesianSelect:
    def test_count_within_tolerance(self, ub_draws):
        sel = rc.cartesian_select(ub_draws, alpha=0.1)
        target = round(ub_draws.S * 0.9)
        assert abs(sel.K - target) <= max(1, ub_draws.S // 10000)

    def test_membership_is_exactly_the_box(self, ub_draws):
        sel = rc.cartesian_select(ub_draws, alpha=0.1)
        inside = np.all(
            (ub_draws.theta >= sel.cart.lower) & (ub_draws.theta <= sel.cart.upper), axis=1
        )
        assert np.array_equal(np.flatnonzero(inside), sel.indices)

    def test_ub_bounds_match_normal_quantiles(self, baseball, ub_draws):
        # bounds converge to y -/+ z_{1-kappa/2} sqrt(d); kappa near the
        # independence value 1 - 0.9^(1/18), in closed form here
        sel = rc.cartesian_select(ub_draws, alpha=0.1)
        kappa_ref = 1 - 0.9 ** (1 / 18)
        assert sel.cart.kappa == pytest.approx(kappa_ref, rel=0.35)
        z = stats.norm.ppf(1 - sel.cart.kappa / 2)
        assert np.allclose(sel.cart.lower, baseball.y - z * np.sqrt(baseball.d), atol=0.01)
        assert np.allclose(sel.cart.upper, baseball.y + z * np.sqrt(baseball.d), atol=0.01)

    def test_monotone_transform_invariance(self):
        draws = normal_draws(3000, 4, seed=5)
        sel = rc.cartesian_select(draws, alpha=0.1)
        warped = PosteriorDraws(
            theta=np.exp(draws.theta / 2) + draws.theta, model="UB", seed=0
        )
        sel2 = rc.cartesian_select(warped, alpha=0.1)
        assert np.array_equal(sel.indices, sel2.indices)


class TestMahalanobis:
    def test_zero_at_center(self):
        assert rc.mahalanobis([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0

    def test_diagonal_case(self):
        d = np.array([0.5, 2.0, 4.0])
        theta = np.array([1.0, 1.0, 1.0])
        got = rc.mahalanobis(theta, np.zeros(3), np.diag(d))
        assert got == pytest.approx(float(np.sum(theta**2 / d)))

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((3, 3))
        disp = B @ B.T + 0.5 * np.eye(3)
        theta = rng.standard_normal(3)
        center = rng.standard_normal(3)
        assert rc.mahalanobis(theta, center, disp) == pytest.approx(
            mahalanobis_explicit(theta, center, disp), abs=1e-10
        )

    def test_non_spd_raises(self):
        with pytest.raises(rc.DomainError, match="positive definite"):
            rc.mahalanobis([1.0, 0.0], [0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_jitter_rescues_semidefinite(self):
        # rank-1 dispersion is singular; the one-shot jitter makes it usable
        disp = np.outer([1.0, 1.0], [1.0, 1.0])
        val = rc.mahalanobis([1e-8, 1e-8], [0.0, 0.0], disp)
        assert np.isfinite(val)


class TestEllipticalSelect:
    def test_cutoff_near_chi2(self, baseball, ub_draws):
        sel = rc.elliptical_select(ub_draws, baseball.y, np.diag(baseball.d), alpha=0.1)
        ref = stats.chi2.ppf(0.9, df=18)
        assert sel.ellip.cutoff == pytest.approx(ref, rel=0.03)

    def test_count_within_one(self, ub_draws):
        for alpha in (0.05, 0.1, 0.3):
            sel = rc.elliptical_select(ub_draws, np.zeros(18), np.eye(18), alpha)
            assert abs(sel.K - ub_draws.S * (1 - alpha)) <= 1

    def test_single_draw_center(self):
        draws = PosteriorDraws(theta=np.array([[1.0, 2.0], [5.0, 5.0]]), model="UB", seed=0)
        sel = rc.elliptical_select(draws, [1.0, 2.0], np.eye(2), alpha=0.5)
        assert list(sel.indices) == [0]
        assert sel.ellip.distances[0] == 0.0

    def test_identity_dispersion_is_squared_norm(self):
        draws = normal_draws(200, 3, seed=7)
        sel = rc.elliptical_select(draws, np.zeros(3), np.eye(3), alpha=0.2)
        assert np.allclose(sel.ellip.distances, np.sum(draws.theta**2, axis=1))

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        draws = normal_draws(2000, 3, seed=9)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        center = np.array([0.1, -0.2, 0.3])
        disp = np.eye(3) * 2.0
        mapped = PosteriorDraws(theta=draws.theta @ A.T + b, model="UB", seed=0)
        sel = rc.elliptical_select(draws, center, disp, alpha=0.1)
        sel2 = rc.elliptical_select(mapped, A @ center + b, A @ disp @ A.T, alpha=0.1)
        assert np.array_equal(sel.indices, sel2.indices)

    def test_nesting_in_alpha(self):
        draws = normal_draws(5000, 4, seed=10)
        sel_wide = rc.elliptical_select(draws, np.zeros(4), np.eye(4), alpha=0.05)
        sel_narrow = rc.elliptical_select(draws, np.zeros(4), np.eye(4), alpha=0.20)
        assert set(sel_narrow.indices) <= set(sel_wide.indices)

    def test_batch_distances_match_scalar(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((4, 4))
        disp = B @ B.T + np.eye(4)
        center = rng.standard_normal(4)
        thetas = rng.standard_normal((20, 4))
        batch = mahalanobis_many(thetas, center, disp)
        for s in range(20):
            assert batch[s] == pytest.approx(rc.mahalanobis(thetas[s], center, disp), rel=1e-10)
