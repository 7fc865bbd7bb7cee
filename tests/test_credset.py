import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import rankcred as rc
from rankcred import credset, domain, metrics
from rankcred.credset import Dispersion
from rankcred.posterior import PosteriorDraws

from conftest import count_factorizations, select_ellipse, traced_peak
from oracles import (
    box_column_reference,
    box_peel_reference,
    cartesian_select_reference,
    kappa_grid_scan,
    mahalanobis_explicit,
    mahalanobis_solve,
)


def spy_factorizations(monkeypatch) -> list:
    """Record every dispersion that `Dispersion` factors."""
    calls, factor = [], credset._cho_factor_spd

    def spy(dispersion):
        calls.append(dispersion)
        return factor(dispersion)

    monkeypatch.setattr(credset, "_cho_factor_spd", spy)
    return calls


def normal_draws(S, m, seed=0):
    rng = np.random.default_rng(seed)
    return PosteriorDraws(theta=rng.standard_normal((S, m)), model="UB")


class TestTuneKappa:
    def test_one_coordinate_recovers_alpha(self):
        draws = normal_draws(20000, 1, seed=1)
        kappa = credset.tune_kappa(draws, alpha=0.1).kappa
        assert kappa == pytest.approx(0.1, abs=0.02)

    def test_close_to_grid_oracle(self):
        draws = normal_draws(2000, 3, seed=2)
        kappa = credset.tune_kappa(draws, alpha=0.1).kappa
        sel = credset.cartesian_select(draws, alpha=0.1)
        target = round(2000 * 0.9)
        achieved = abs(sel.K - target)
        assert achieved <= max(1, kappa_grid_scan(draws.theta, 0.1, n_grid=1500))
        assert 0 < kappa < 1

    def test_tiny_alpha_selects_almost_everything(self):
        draws = normal_draws(1000, 4, seed=3)
        sel = credset.cartesian_select(draws, alpha=0.002)
        assert sel.K >= 998
        assert sel.cart.kappa < 0.01

    def test_invalid_alpha(self):
        draws = normal_draws(100, 2)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(rc.DomainError):
                credset.tune_kappa(draws, alpha)

    def test_peak_memory_keeps_no_sorted_copy(self):
        # it sorts a strided sample of each column (5,000 of 20,000 rows
        # here) and the tails of each column, found through one boolean mask
        # of the draws at a time; the tails' arrays take up to 16 words an
        # entry, and the depths a few (S,) arrays.  A copy of the columns,
        # sorted or not, would add an array the size of theta
        S, m = 20000, 200
        draws = normal_draws(S, m, seed=5)
        sample = len(range(0, S, S // credset._TAIL_SAMPLE)) * m * 8
        tails = 2 * m * (1.5 * (S - round(S * 0.9) + 1) / m + m)
        bound = sample + S * m + 16 * 8 * tails + 8 * 8 * S
        assert bound < draws.theta.nbytes
        _, peak = traced_peak(credset.tune_kappa, draws, 0.1)
        assert peak <= bound


def assert_box_equals(box, reference):
    kappa, lower, upper, indices = reference
    assert box.kappa == kappa
    assert box.lower.tobytes() == lower.tobytes()
    assert box.upper.tobytes() == upper.tobytes()
    assert np.array_equal(box.indices, indices)


def peeled_box(theta, alpha):
    """Library selection checked against `box_peel_reference`; None when
    S(1-alpha) < 1 leaves no draw to select."""
    draws = PosteriorDraws(theta=theta, model="UB")
    S = len(theta)
    if S * (1 - alpha) < 1:
        with pytest.raises(rc.DomainError, match="no draw to select"):
            credset.cartesian_select(draws, alpha)
        return None
    sel = credset.cartesian_select(draws, alpha)
    assert_box_equals(sel.cart, box_peel_reference(theta, alpha))
    assert np.array_equal(sel.indices, sel.cart.indices)
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

    @given(
        S=st.integers(1, 300),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 0.5, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_signed_zero_draws(self, S, m, seed, alpha):
        # -0.0 ties 0.0; each side's sign is that of the stable sort's place
        rng = np.random.default_rng(seed)
        peeled_box(rng.choice([-1.0, -0.0, 0.0, 1.0], size=(S, m)), alpha)

    @pytest.mark.parametrize("alpha", [0.3, 0.375, 0.45])
    def test_two_draws_select_one(self, alpha):
        draws = PosteriorDraws(theta=np.array([[-1.0], [1.0]]), model="UB")
        sel = credset.cartesian_select(draws, alpha)
        assert sel.K == 1
        assert list(sel.indices) == [1]


def count_attempts(monkeypatch) -> list:
    """Record the thresholds of every attempt `tune_kappa` makes."""
    attempts, tail_box = [], credset._tail_box

    def spy(theta, target, below, above):
        attempts.append((below.copy(), above.copy()))
        return tail_box(theta, target, below, above)

    monkeypatch.setattr(credset, "_tail_box", spy)
    return attempts


class TestColumnSort:
    """`tune_kappa` sorts only the tails of each column, cut at thresholds
    read from a sorted sample of each column, by (tail, value) with the draw
    index breaking ties, and doubles the tails when they cannot settle the
    box.  Each case is checked against `box_peel_reference` or, where plain
    loops are too slow, `box_column_reference` (whole columns)."""

    @staticmethod
    def near_tie_pairs(S, rng):
        # pairs x, nextafter(x, inf), the larger at the lower index: keys
        # that drop the low bits of both order the pair by index, wrongly
        x = np.repeat(rng.standard_normal((S + 1) // 2), 2)[:S]
        x[0::2] = np.nextafter(x[0::2], np.inf)
        return x

    @pytest.mark.parametrize("S", [1024, 1025])  # 10 and 11 index bits
    def test_near_ties_the_keys_cannot_separate(self, S):
        rng = np.random.default_rng(S)
        theta = rng.standard_normal((S, 3))
        theta[:, 1] = self.near_tie_pairs(S, rng)
        assert np.all(theta[0::2, 1][: S // 2] > theta[1::2, 1])
        sel = peeled_box(theta, 0.1)
        assert sel.K == round(S * 0.9)

    @pytest.mark.parametrize("S", [1024, 1025])
    def test_tie_free_tails_sort_once(self, S, monkeypatch):
        # tie-free tails are placed by one sort by value and one by tail:
        # the lexsort that puts tie runs in draw order is not called
        calls, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda *a, **k: calls.append(1) or lexsort(*a, **k))
        sel = peeled_box(np.random.default_rng(S + 1).standard_normal((S, 3)), 0.1)
        assert sel.K == round(S * 0.9)
        assert calls == []
        peeled_box(np.random.default_rng(S + 2).integers(-9, 10, (S, 3)).astype(float), 0.1)
        assert calls == [1]

    def test_two_byte_tail_ids(self):
        # past 127 coordinates the 2m tail ids take two bytes, not one
        theta = np.random.default_rng(6).standard_normal((2000, 130))
        theta[:, 7] = np.round(theta[:, 7] * 4)  # a tied column among them
        sel = credset.cartesian_select(PosteriorDraws(theta=theta, model="UB"), 0.1)
        assert np.min_scalar_type(2 * 130 - 1) == np.uint16
        assert_box_equals(sel.cart, box_column_reference(theta, 0.1))

    def test_correlated_columns_grow_the_tails(self, monkeypatch):
        # nearly equal columns share their shallow draws, so the box lies
        # deeper than tails sized for independent columns reach
        rng = np.random.default_rng(8)
        theta = rng.standard_normal((400, 1)) + 0.05 * rng.standard_normal((400, 6))
        attempts = count_attempts(monkeypatch)
        peeled_box(theta, 0.1)
        assert len(attempts) == 2
        theta = rng.standard_normal((3000, 1)) + 0.05 * rng.standard_normal((3000, 12))
        attempts.clear()
        sel = credset.cartesian_select(PosteriorDraws(theta=theta, model="UB"), 0.1)
        assert len(attempts) == 3
        assert_box_equals(sel.cart, box_column_reference(theta, 0.1))

    @given(
        S=st.integers(1, 300),
        m=st.integers(1, 4),
        spread=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 0.5, exclude_min=True, exclude_max=True),
        sample=st.sampled_from([1, 2, 3, 8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_tiny_sample_and_whole_columns(self, S, m, spread, seed, alpha, sample):
        # a sample of one row cuts no tail: both tails are whole columns,
        # settled at once.  Samples of a few rows cut crude tails that often
        # need doubling.  Either way the box is the reference's
        rng = np.random.default_rng(seed)
        theta = rng.integers(-spread, spread + 1, size=(S, m)).astype(float)
        theta += rng.standard_normal((S, m)) * (seed % 2)  # ties, or none
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(credset, "_TAIL_SAMPLE", sample)
            attempts = count_attempts(patch)
            peeled_box(theta, alpha)
        if sample == 1 and attempts:
            assert len(attempts) == 1
            assert np.all(attempts[0][0] == np.inf) and np.all(attempts[0][1] == -np.inf)

    def test_all_tied_column_next_to_tie_free_ones(self):
        theta = np.random.default_rng(3).standard_normal((500, 3))
        theta[:, 1] = 0.25
        sel = peeled_box(theta, 0.1)
        assert np.all(sel.cart.lower[1] == sel.cart.upper[1] == 0.25)

    def test_signed_zeros(self):
        # the lower side lands in a run of zeros, half of them -0.0: one tie
        # run, sorted stably as the reference sorts it, so the bound's sign
        # is the reference's too
        rng = np.random.default_rng(4)
        theta = np.abs(rng.standard_normal((400, 2)))
        theta[:60, 0] = np.where(rng.random(60) < 0.5, -0.0, 0.0)
        assert np.signbit(theta[:60, 0]).any() and not np.signbit(theta[:60, 0]).all()
        sel = peeled_box(theta, 0.1)
        assert sel.cart.lower[0] == 0.0


class TestMatchesColumnReference:
    """Byte for byte the box of `box_column_reference`, which sorts whole
    columns, on the draw sets the benchmarks and criterion 9 select from."""

    @pytest.mark.parametrize("seed", range(8))
    def test_baseball_hb(self, baseball, seed):
        draws = rc.gibbs_hb(baseball, 50000, seed=seed)
        assert_box_equals(credset.tune_kappa(draws, 0.1), box_column_reference(draws.theta, 0.1))

    @pytest.mark.parametrize("cell, a, beta1", [(0, 1.0, 0.0), (1, 0.001, 0.4)])
    def test_criterion_9_cells(self, cell, a, beta1):
        # the first replication of each cell, drawn as `simlab.run_cell` draws it
        cfg = rc.SimConfig(n_reps=1, samples=2000, seed=0)
        x = np.random.default_rng(6).uniform(0.0, 1.0, cfg.m)
        rng = np.random.default_rng([cfg.seed, cell, 0])
        _, ds = rc.generate_instance(x, cfg.beta0, beta1, a, cfg.d, rng)
        ub = rc.sample_ub(ds, cfg.samples, rng.integers(2**63))
        hb = rc.gibbs_hb(ds, cfg.samples, rng.integers(2**63))
        for draws in (ub, hb):
            box = credset.tune_kappa(draws, cfg.alpha)
            assert_box_equals(box, box_column_reference(draws.theta, cfg.alpha))

    def test_fixture_needs_one_attempt(self, hb_draws, monkeypatch):
        # tails sized for the fixture settle its box at the first attempt
        attempts = count_attempts(monkeypatch)
        credset.tune_kappa(hb_draws, 0.1)
        assert hb_draws.S == 50000 and len(attempts) == 1
        assert np.all(np.isfinite(attempts[0][0]))


class TestMatchesQuantileReference:
    """Against the np.quantile bisection (`cartesian_select_reference`),
    every side lies on the order statistic at or just after the reference's
    type-7 index (S-1)kappa/2, and the count is exact."""

    @pytest.mark.parametrize("seed", [0, 2], ids=["14-step", "51-step"])
    def test_baseball_hb(self, baseball, seed):
        # the reference meets its tol after 14 bisection steps at fit seed 0, 51 at seed 2
        draws = rc.gibbs_hb(baseball, 50000, seed=seed)
        S = draws.S
        sel = credset.cartesian_select(draws, 0.1)
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
        sel = credset.cartesian_select(ub_draws, alpha=0.1)
        target = round(ub_draws.S * 0.9)
        assert abs(sel.K - target) <= max(1, ub_draws.S // 10000)

    def test_membership_is_exactly_the_box(self, ub_draws):
        sel = credset.cartesian_select(ub_draws, alpha=0.1)
        inside = np.all(
            (ub_draws.theta >= sel.cart.lower) & (ub_draws.theta <= sel.cart.upper), axis=1
        )
        assert np.array_equal(np.flatnonzero(inside), sel.indices)

    def test_ub_bounds_match_normal_quantiles(self, baseball, ub_draws):
        # bounds converge to y -/+ z_{1-kappa/2} sqrt(d); kappa near the
        # independence value 1 - 0.9^(1/18), in closed form here
        sel = credset.cartesian_select(ub_draws, alpha=0.1)
        kappa_ref = 1 - 0.9 ** (1 / 18)
        assert sel.cart.kappa == pytest.approx(kappa_ref, rel=0.35)
        z = stats.norm.ppf(1 - sel.cart.kappa / 2)
        assert np.allclose(sel.cart.lower, baseball.y - z * np.sqrt(baseball.d), atol=0.01)
        assert np.allclose(sel.cart.upper, baseball.y + z * np.sqrt(baseball.d), atol=0.01)

    def test_monotone_transform_invariance(self):
        draws = normal_draws(3000, 4, seed=5)
        sel = credset.cartesian_select(draws, alpha=0.1)
        warped = PosteriorDraws(
            theta=np.exp(draws.theta / 2) + draws.theta, model="UB"
        )
        sel2 = credset.cartesian_select(warped, alpha=0.1)
        assert np.array_equal(sel.indices, sel2.indices)


class TestMahalanobis:
    def test_zero_at_center(self):
        assert Dispersion([1.0, 2.0], np.eye(2)).distances(np.array([[1.0, 2.0]]))[0] == 0.0

    def test_diagonal_case(self):
        d = np.array([0.5, 2.0, 4.0])
        theta = np.array([1.0, 1.0, 1.0])
        got = Dispersion(np.zeros(3), np.diag(d)).distances(theta[None, :])[0]
        assert got == pytest.approx(float(np.sum(theta**2 / d)))

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((3, 3))
        disp = B @ B.T + 0.5 * np.eye(3)
        theta = rng.standard_normal(3)
        center = rng.standard_normal(3)
        assert Dispersion(center, disp).distances(theta[None, :])[0] == pytest.approx(
            mahalanobis_explicit(theta, center, disp), abs=1e-10
        )

    def test_draws_of_another_width_raise(self):
        # 18-wide draws against a 17-entity dispersion, in the ellipse's distance pass
        draws = normal_draws(50, 18)
        with pytest.raises(rc.DomainError, match=r"shape \(50, 18\) do not fit .* m=17"):
            select_ellipse(draws, Dispersion(np.zeros(17), np.eye(17)), alpha=0.1)
        with pytest.raises(rc.DomainError, match=r"shape \(3,\) do not fit .* m=3"):
            Dispersion(np.zeros(3), np.diag([1.0, 2.0, 3.0])).distances(np.zeros(3))

    def test_non_spd_raises(self):
        with pytest.raises(rc.DomainError, match="positive definite"):
            Dispersion([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]])).distances(np.array([[1.0, 0.0]]))

    def test_semidefinite_raises(self, monkeypatch):
        # a rank-1 dispersion is singular: one Cholesky attempt, which fails
        calls = count_factorizations(monkeypatch, 2)
        disp = np.outer([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(rc.DomainError, match="^dispersion matrix is not positive definite$"):
            Dispersion([0.0, 0.0], disp).distances(np.array([[1e-8, 1e-8]]))
        assert calls == ["_cho_factor_spd", "cholesky"]

    def test_many_matches_solve_oracle_m200(self):
        rng = np.random.default_rng(12)
        m = 200
        B = rng.standard_normal((m, m))
        disp = B @ B.T / m + np.diag(rng.uniform(0.5, 2.0, m))
        center = rng.standard_normal(m)
        thetas = center + rng.standard_normal((500, m)) * 2
        got = Dispersion(center, disp).distances(thetas)
        assert np.allclose(got, mahalanobis_solve(thetas, center, disp), rtol=1e-10, atol=0)

    def test_many_rank_deficient_covariance_raises_m200(self, monkeypatch):
        # the 1/S covariance of S = 150 draws of m = 200 coordinates has rank
        # 149: one Cholesky attempt, which fails, and no distance
        rng = np.random.default_rng(13)
        thetas = rng.standard_normal((150, 200)) * rng.uniform(0.5, 2.0, 200)
        disp = np.cov(thetas.T, bias=True)
        calls = count_factorizations(monkeypatch, 200)
        with pytest.raises(rc.DomainError, match="^dispersion matrix is not positive definite$"):
            Dispersion(thetas.mean(axis=0), disp).distances(thetas)
        assert calls == ["_cho_factor_spd", "cholesky"]

    def test_many_diagonal_matches_solve_oracle_m200(self, monkeypatch):
        # a diagonal given as (m,) variances scales each coordinate and factors nothing
        calls = spy_factorizations(monkeypatch)
        rng = np.random.default_rng(14)
        var = rng.uniform(0.5, 2.0, 200)
        center = rng.standard_normal(200)
        thetas = center + rng.standard_normal((500, 200)) * 2
        got = Dispersion(center, var).distances(thetas)
        assert calls == []
        assert np.allclose(got, mahalanobis_solve(thetas, center, np.diag(var)), rtol=1e-12, atol=0)

    def test_many_diagonal_with_zero_raises(self, monkeypatch):
        calls = count_factorizations(monkeypatch, 3)
        var = np.array([1.0, 0.0, 2.0])
        thetas = np.random.default_rng(15).standard_normal((50, 3))
        center = np.array([0.1, 0.2, 0.3])
        with pytest.raises(rc.DomainError, match="^dispersion matrix is not positive definite$"):
            Dispersion(center, np.diag(var)).distances(thetas)
        assert calls == ["_cho_factor_spd", "cholesky"]

    @pytest.mark.parametrize("var", [[1.0, -0.5, 2.0], [1.0, -1.0], [-1.0, 0.0]])
    def test_many_diagonal_with_negative_raises(self, var, monkeypatch):
        calls = spy_factorizations(monkeypatch)
        with pytest.raises(rc.DomainError, match="positive definite"):
            Dispersion(np.ones(len(var)), np.diag(var)).distances(np.zeros((2, len(var))))
        assert len(calls) == 1

    def test_many_tiny_off_diagonal_is_factored(self, monkeypatch):
        calls = spy_factorizations(monkeypatch)
        rng = np.random.default_rng(16)
        disp = np.diag(rng.uniform(0.5, 2.0, 200))
        disp[3, 7] = disp[7, 3] = 1e-12
        center = rng.standard_normal(200)
        thetas = center + rng.standard_normal((500, 200))
        got = Dispersion(center, disp).distances(thetas)
        assert len(calls) == 1
        assert np.allclose(got, mahalanobis_solve(thetas, center, disp), rtol=1e-12, atol=0)


class TestBlockedDistances:
    """`Dispersion.distances` works per block of rows: the variances' path
    result does not depend on the blocks, the factored one's only by the
    rounding of its matrix product, and its temporaries are a few blocks."""

    def draws_and_dispersions(self, S, m, seed):
        rng = np.random.default_rng(seed)
        thetas = rng.standard_normal((S, m)) * rng.uniform(0.5, 2.0, m)
        B = rng.standard_normal((m, m))
        factored = Dispersion(thetas.mean(axis=0), B @ B.T / m + np.eye(m))
        diagonal = Dispersion(thetas.mean(axis=0), rng.uniform(0.5, 2.0, m))
        return thetas, diagonal, factored

    def test_blocks_of_three_rows_match_one_block(self, monkeypatch):
        # 50 draws in blocks of 3 rows: 16 full blocks and a last one of 2
        m = 7
        thetas, diagonal, factored = self.draws_and_dispersions(50, m, seed=18)
        whole = diagonal.distances(thetas), factored.distances(thetas)
        monkeypatch.setattr(domain, "BLOCK_CELLS", 3 * m)
        assert len(domain.row_blocks(50, m)) == 17
        assert diagonal.distances(thetas).tobytes() == whole[0].tobytes()
        np.testing.assert_allclose(factored.distances(thetas), whole[1], rtol=1e-12, atol=0)
        reference = mahalanobis_solve(thetas, factored.center, factored.matrix)
        np.testing.assert_allclose(whole[1], reference, rtol=1e-10)

    @pytest.mark.parametrize("path", ["diagonal", "factored"])
    def test_peak_memory_is_blocks_not_a_copy(self, path):
        # the output and, per block, the centered rows and (factored) their
        # product with L^-1, each block allocated while the last is still
        # bound: four blocks of float64 cover it, and a copy of the draws
        # (32 MB) would not fit
        S, m = 20000, 200
        thetas, diagonal, factored = self.draws_and_dispersions(S, m, seed=19)
        dispersion = diagonal if path == "diagonal" else factored
        dispersion.distances(thetas[:1])  # factor outside the traced call
        out, peak = traced_peak(dispersion.distances, thetas)
        bound = out.nbytes + 4 * 8 * domain.BLOCK_CELLS
        assert bound < thetas.nbytes / 3
        assert peak <= bound


class TestDispersion:
    def test_log_det_and_precision_match_lu_oracle_m200(self, monkeypatch):
        # one factor gives both; np.linalg.slogdet and inv are LU-based
        calls = spy_factorizations(monkeypatch)
        rng = np.random.default_rng(17)
        B = rng.standard_normal((200, 200))
        disp = B @ B.T / 200 + np.diag(rng.uniform(0.5, 2.0, 200))
        d = Dispersion(np.zeros(200), disp)
        assert d.log_det == pytest.approx(np.linalg.slogdet(disp)[1], rel=1e-12)
        assert np.allclose(d.precision_diag, np.diag(np.linalg.inv(disp)), rtol=1e-10, atol=0)
        d.distances(rng.standard_normal((5, 200)))
        assert len(calls) == 1

    def test_rank_deficient_log_det_and_precision_raise(self, monkeypatch):
        # rank-149 covariance of 150 draws at m = 200: both read the factor,
        # and each read makes one Cholesky attempt, since a failed one is not kept
        thetas = np.random.default_rng(13).standard_normal((150, 200))
        d = Dispersion(thetas.mean(axis=0), np.cov(thetas.T, bias=True))
        calls = count_factorizations(monkeypatch, 200)
        with pytest.raises(rc.DomainError, match="^dispersion matrix is not positive definite$"):
            d.log_det
        assert calls == ["_cho_factor_spd", "cholesky"]
        with pytest.raises(rc.DomainError, match="^dispersion matrix is not positive definite$"):
            d.precision_diag
        assert calls == ["_cho_factor_spd", "cholesky"] * 2

    def test_nan_matrix_entry_raises(self):
        disp = np.eye(3)
        disp[0, 2] = np.nan
        with pytest.raises(rc.DomainError, match=r"dispersion matrix\[0, 2\] is not finite: nan"):
            Dispersion(np.zeros(3), disp)

    def test_inf_center_raises(self):
        with pytest.raises(rc.DomainError, match=r"dispersion center\[1\] is not finite: -inf"):
            Dispersion([0.0, -np.inf, 0.0], np.eye(3))

    def test_asymmetric_matrix_raises(self):
        # the factor reads only the lower triangle: this matrix would be taken
        # for the identity, giving (1, 1) distance 2 and log det 0
        with pytest.raises(rc.DomainError, match=r"matrix\[0, 1\] = 5.0 but matrix\[1, 0\] = 0.0"):
            Dispersion([0.0, 0.0], [[1.0, 5.0], [0.0, 1.0]])
        # the first asymmetric entry in row-major order is named, here off
        # the diagonal of an otherwise diagonal matrix
        disp = np.diag([1.0, 2.0, 3.0, 4.0])
        disp[3, 1], disp[2, 0] = 1e-3, 2e-3
        with pytest.raises(rc.DomainError, match=r"matrix\[0, 2\] = 0.0 but matrix\[2, 0\] = 0.002"):
            Dispersion(np.zeros(4), disp)

    def test_rounding_asymmetry_is_accepted(self):
        # products such as A S A' may differ from their transpose by rounding:
        # a gap of 0.5e-10 times the largest entry passes, one of 2e-10 not
        B = np.random.default_rng(24).standard_normal((6, 6))
        disp = B @ B.T + np.eye(6)
        top = np.abs(disp).max()
        nudged = disp.copy()
        nudged[4, 1] += 0.5e-10 * top
        assert Dispersion(np.zeros(6), nudged).log_det == pytest.approx(
            np.linalg.slogdet(disp)[1], rel=1e-9
        )
        nudged[4, 1] += 1.5e-10 * top
        with pytest.raises(rc.DomainError, match=r"matrix\[1, 4\] .* not symmetric"):
            Dispersion(np.zeros(6), nudged)

    @pytest.mark.parametrize(
        "center, matrix",
        [(np.zeros(3), np.ones((3, 2))), (np.zeros(2), np.eye(3)), (np.zeros((3, 3)), np.eye(3))],
    )
    def test_wrong_shape_raises(self, center, matrix):
        with pytest.raises(rc.DomainError, match=r"are not \(m,\) and \(m,\) or \(m, m\)"):
            Dispersion(center, matrix)

    def test_diagonal_is_not_factored(self, monkeypatch):
        # (m,) variances give, bitwise, the diagonal formulas: each coordinate
        # scaled by 1/sqrt(var), log det sum(log var) and precision 1/var
        calls = spy_factorizations(monkeypatch)
        rng = np.random.default_rng(18)
        var, center = rng.uniform(0.5, 2.0, 50), rng.standard_normal(50)
        thetas = center + rng.standard_normal((300, 50))
        d = Dispersion(center, var)
        scaled = (thetas - center) * (1.0 / np.sqrt(var))
        assert d.distances(thetas).tobytes() == np.einsum("si,si->s", scaled, scaled).tobytes()
        assert d.log_det == float(np.sum(np.log(var)))
        assert d.precision_diag.tobytes() == (1.0 / var).tobytes()
        assert calls == []

    def test_variances_match_their_diagonal_matrix(self, monkeypatch):
        # the same dispersion as (m,) variances and as an (m, m) diagonal,
        # which is factored like any other matrix
        calls = spy_factorizations(monkeypatch)
        rng = np.random.default_rng(26)
        var, center = 10.0 ** rng.uniform(-3, 3, 200), rng.standard_normal(200)
        thetas = center + rng.standard_normal((500, 200)) * np.sqrt(var)
        scaled, factored = Dispersion(center, var), Dispersion(center, np.diag(var))
        np.testing.assert_allclose(
            scaled.distances(thetas), factored.distances(thetas), rtol=1e-12, atol=0
        )
        assert scaled.log_det == pytest.approx(factored.log_det, rel=1e-12)
        np.testing.assert_allclose(
            scaled.precision_diag, factored.precision_diag, rtol=1e-12, atol=0
        )
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "var, message",
        [
            ([1.0, 0.0, 2.0], r"variances\[1\] = 0.0 must be > 0"),
            ([1.0, 2.0, -0.5], r"variances\[2\] = -0.5 must be > 0"),
            ([np.nan, 1.0, 2.0], r"variances\[0\] is not finite: nan"),
            ([1.0, np.inf, 2.0], r"variances\[1\] is not finite: inf"),
            ([1.0, 2.0], r"shapes \(3,\) and \(2,\) are not \(m,\) and \(m,\)"),
        ],
    )
    def test_bad_variances_raise(self, var, message):
        with pytest.raises(rc.DomainError, match=message):
            Dispersion(np.zeros(3), var)


class TestEllipticalSelect:
    def test_cutoff_near_chi2(self, baseball, ub_draws):
        sel, _ = select_ellipse(ub_draws, Dispersion(baseball.y, np.diag(baseball.d)), alpha=0.1)
        ref = stats.chi2.ppf(0.9, df=18)
        assert sel.ellip.cutoff == pytest.approx(ref, rel=0.03)

    def test_count_within_one(self, ub_draws):
        for alpha in (0.05, 0.1, 0.3):
            sel, _ = select_ellipse(ub_draws, Dispersion(np.zeros(18), np.eye(18)), alpha)
            assert abs(sel.K - ub_draws.S * (1 - alpha)) <= 1

    def test_single_draw_center(self):
        draws = PosteriorDraws(theta=np.array([[1.0, 2.0], [5.0, 5.0]]), model="UB")
        sel, distances = select_ellipse(draws, Dispersion([1.0, 2.0], np.eye(2)), alpha=0.5)
        assert list(sel.indices) == [0]
        assert distances[0] == 0.0

    def test_identity_dispersion_is_squared_norm(self):
        draws = normal_draws(200, 3, seed=7)
        sel, distances = select_ellipse(draws, Dispersion(np.zeros(3), np.eye(3)), alpha=0.2)
        assert np.allclose(distances, np.sum(draws.theta**2, axis=1))
        assert np.array_equal(sel.indices, np.flatnonzero(distances <= sel.ellip.cutoff))

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        draws = normal_draws(2000, 3, seed=9)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        center = np.array([0.1, -0.2, 0.3])
        disp = np.eye(3) * 2.0
        mapped = PosteriorDraws(theta=draws.theta @ A.T + b, model="UB")
        sel, _ = select_ellipse(draws, Dispersion(center, disp), alpha=0.1)
        sel2, _ = select_ellipse(mapped, Dispersion(A @ center + b, A @ disp @ A.T), alpha=0.1)
        assert np.array_equal(sel.indices, sel2.indices)

    def test_nesting_in_alpha(self):
        draws = normal_draws(5000, 4, seed=10)
        sel_wide, _ = select_ellipse(draws, Dispersion(np.zeros(4), np.eye(4)), alpha=0.05)
        sel_narrow, _ = select_ellipse(draws, Dispersion(np.zeros(4), np.eye(4)), alpha=0.20)
        assert set(sel_narrow.indices) <= set(sel_wide.indices)

    def test_batch_distances_match_scalar(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((4, 4))
        disp = B @ B.T + np.eye(4)
        center = rng.standard_normal(4)
        thetas = rng.standard_normal((20, 4))
        batch = Dispersion(center, disp).distances(thetas)
        for s in range(20):
            diff = thetas[s] - center
            assert batch[s] == pytest.approx(diff @ np.linalg.solve(disp, diff), rel=1e-10)


class TestSelectionSize:
    @pytest.mark.parametrize(
        "geometry, sizer", [("cartesian", "orthotope_size"), ("elliptical", "ellipse_size")]
    )
    def test_size_calls_metrics_once(self, monkeypatch, geometry, sizer):
        # a selection sizes itself through the metrics module, once: a wrapper
        # bound on `metrics` sees every size computed
        calls = []
        for name in ("orthotope_size", "ellipse_size"):

            def spy(*args, _fn=getattr(metrics, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(metrics, name, spy)
        draws = normal_draws(400, 3)
        if geometry == "cartesian":
            sel = credset.cartesian_select(draws, 0.1)
        else:
            sel, _ = select_ellipse(draws, Dispersion(np.zeros(3), np.eye(3)), 0.1)
        assert sel.geometry == geometry and calls == []
        assert sel.size is sel.size
        assert calls == [sizer]

    def test_box_size_reads_its_sides(self):
        sel = credset.cartesian_select(normal_draws(400, 3, seed=1), 0.1)
        assert sel.ellip is None
        assert np.array_equal(sel.cart.bounds, np.column_stack([sel.cart.lower, sel.cart.upper]))
        assert np.array_equal(sel.size.per_side_lengths, sel.cart.upper - sel.cart.lower)
        assert sel.size.log_volume == float(np.sum(np.log(sel.cart.upper - sel.cart.lower)))

    def test_ellipse_size_reads_its_dispersion_and_cutoff(self):
        disp = Dispersion(np.zeros(3), np.diag([1.0, 2.0, 4.0]))
        sel, _ = select_ellipse(normal_draws(400, 3, seed=2), disp, 0.1)
        assert sel.cart is None
        ref = metrics.ellipse_size(math.log(8.0), [1.0, 0.5, 0.25], sel.ellip.cutoff)
        assert sel.size.log_volume == pytest.approx(ref.log_volume, rel=1e-14)
        assert np.allclose(sel.size.per_side_lengths, ref.per_side_lengths, rtol=1e-14, atol=0)
