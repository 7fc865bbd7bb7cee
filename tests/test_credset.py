import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import rankcred as rc
from rankcred.credset import _sorted_quantile, mahalanobis_many
from rankcred.posterior import PosteriorDraws

from oracles import cartesian_select_reference, kappa_grid_scan, mahalanobis_explicit


def normal_draws(S, m, seed=0):
    rng = np.random.default_rng(seed)
    return PosteriorDraws(theta=rng.standard_normal((S, m)), model="UB", seed=seed)


class TestTuneKappa:
    def test_one_coordinate_recovers_alpha(self):
        draws = normal_draws(20000, 1, seed=1)
        kappa = rc.tune_kappa(draws, alpha=0.1)
        assert kappa == pytest.approx(0.1, abs=0.02)

    def test_close_to_grid_oracle(self):
        draws = normal_draws(2000, 3, seed=2)
        kappa = rc.tune_kappa(draws, alpha=0.1, tol=0)
        sel = rc.cartesian_select(draws, alpha=0.1, tol=0)
        target = round(2000 * 0.9)
        achieved = abs(sel.K - target)
        assert achieved <= max(1, kappa_grid_scan(draws.theta, 0.1, n_grid=1500))
        assert 0 < kappa < 1

    def test_tiny_alpha_selects_almost_everything(self):
        draws = normal_draws(1000, 4, seed=3)
        sel = rc.cartesian_select(draws, alpha=0.002, tol=0)
        assert sel.K >= 998
        assert sel.cart.kappa < 0.01

    def test_initial_kappa_is_near_solution_for_independent_coords(self):
        # with independent coordinates the independence guess already lands
        # within binomial noise of the target count
        S, m, alpha = 30000, 6, 0.1
        draws = normal_draws(S, m, seed=4)
        kappa0 = 1 - (1 - alpha) ** (1 / m)
        lo = np.quantile(draws.theta, kappa0 / 2, axis=0)
        hi = np.quantile(draws.theta, 1 - kappa0 / 2, axis=0)
        k = int(np.all((draws.theta >= lo) & (draws.theta <= hi), axis=1).sum())
        assert abs(k - S * (1 - alpha)) < 5 * np.sqrt(S * alpha * (1 - alpha))

    def test_invalid_alpha(self):
        draws = normal_draws(100, 2)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(rc.DomainError):
                rc.tune_kappa(draws, alpha)

    def test_invalid_tol(self):
        draws = normal_draws(100, 2)
        with pytest.raises(rc.DomainError, match="tol"):
            rc.tune_kappa(draws, 0.1, tol=-1)
        with pytest.raises(rc.DomainError, match="tol"):
            rc.cartesian_select(draws, 0.1, tol=-1)

    def test_invalid_max_iter(self):
        draws = normal_draws(100, 2)
        for max_iter in (0, -3):
            with pytest.raises(rc.DomainError, match="max_iter"):
                rc.tune_kappa(draws, 0.1, max_iter=max_iter)


def select_both(draws, alpha, tol=None):
    """Library selection (None when it refuses an empty box) and the
    np.quantile reference; both must warn alike."""
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        try:
            sel = rc.cartesian_select(draws, alpha, tol=tol)
        except rc.DomainError as err:
            assert "selection is empty" in str(err)
            sel = None
    with warnings.catch_warnings(record=True) as expected:
        warnings.simplefilter("always")
        ref = cartesian_select_reference(draws.theta, alpha, tol=tol)
    assert [str(w.message) for w in got] == [str(w.message) for w in expected]
    return sel, ref


def assert_same_selection(sel, ref):
    kappa, lower, upper, indices = ref
    if sel is None:
        assert len(indices) == 0
        return
    assert sel.cart.kappa == kappa
    assert sel.cart.lower.tobytes() == lower.tobytes()
    assert sel.cart.upper.tobytes() == upper.tobytes()
    assert np.array_equal(sel.indices, indices)


class TestMatchesQuantileReference:
    """The sorted-column count gives the np.quantile-per-step selection bit for bit."""

    @pytest.mark.parametrize("seed", [0, 2], ids=["14-step", "51-step"])
    def test_baseball_hb(self, baseball, seed):
        # fit seed 0 meets tol after 14 bisection steps, fit seed 2 after 51
        draws = rc.gibbs_hb(baseball, rc.HbConfig(samples=50000, seed=seed))
        assert_same_selection(*select_both(draws, 0.1))

    @given(
        S=st.integers(2, 400),
        m=st.integers(1, 6),
        spread=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 0.5, exclude_min=True, exclude_max=True),
        tol=st.sampled_from([0, None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_tied_integer_draws(self, S, m, spread, seed, alpha, tol):
        rng = np.random.default_rng(seed)
        theta = rng.integers(-spread, spread + 1, size=(S, m)).astype(float)
        draws = PosteriorDraws(theta=theta, model="UB", seed=0)
        assert_same_selection(*select_both(draws, alpha, tol))

    def test_sorted_quantile_is_numpy_type7(self):
        rng = np.random.default_rng(12)
        for S in (1, 2, 1025, 5000):
            theta = rng.standard_normal((S, 5))
            draws = PosteriorDraws(theta=theta, model="UB", seed=0)
            cols = draws.sorted_columns
            assert cols is draws.sorted_columns and not cols.flags.writeable
            qs = [0.0, 1e-12, 0.5, 1 - 1e-12, 1.0, *rng.random(50)]
            if S == 1025:  # (S-1)q = k + 1/2 exactly: the two lerp branches meet
                qs += [(k + 0.5) / 1024 for k in (0, 1, 511, 1022)]
                assert all(((S - 1) * q) % 1 == 0.5 for q in qs[-4:])
            for q in qs:
                want = np.quantile(theta, q, axis=0, method="linear")
                assert _sorted_quantile(cols, q).tobytes() == want.tobytes(), (S, q)


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
        # independence value (bisection oracle = closed form here)
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
