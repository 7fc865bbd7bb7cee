import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

import rankcred as rc
from rankcred import domain, posterior
from rankcred.posterior import (
    A_GRID_POINTS,
    A_GRID_SPAN,
    _a_log_density,
    _cholesky_columns,
    _draw_a,
    _draw_beta,
    _draw_sorted,
    design_matrix,
    draw_theta,
)
from rankcred.simlab import run_cell

from conftest import make_dataset, traced_peak, wide_dataset
from oracles import (
    a_log_density_reference,
    cond_a_rejection,
    cond_beta,
    cond_theta,
    draw_beta_reference,
    gibbs_hb_reference,
    hb_variance_marginal_cdf,
    variance_target_cdf,
)


class TestSampleUb:
    def test_moments(self):
        ds = make_dataset([0.0, 5.0], [1.0, 4.0])
        draws = rc.sample_ub(ds, 40000, seed=3)
        assert draws.theta.shape == (40000, 2)
        tol = 4 / np.sqrt(40000)
        assert draws.theta[:, 0].mean() == pytest.approx(0.0, abs=tol)
        assert draws.theta[:, 0].var() == pytest.approx(1.0, abs=4 * tol)
        assert draws.theta[:, 1].mean() == pytest.approx(5.0, abs=2 * tol)

    def test_baseball_quantiles_match_normal(self, baseball, ub_draws):
        # empirical 5%/95% quantiles ~ y_i -/+ 1.645 sqrt(d_i)
        z = 1.6449
        q05 = np.quantile(ub_draws.theta, 0.05, axis=0)
        q95 = np.quantile(ub_draws.theta, 0.95, axis=0)
        sd = np.sqrt(baseball.d)
        assert np.allclose(q05, baseball.y - z * sd, atol=4 * sd.max() / np.sqrt(50000) * 10)
        assert np.allclose(q95, baseball.y + z * sd, atol=4 * sd.max() / np.sqrt(50000) * 10)

    def test_seed_determinism(self, baseball):
        a = rc.sample_ub(baseball, 500, seed=42)
        b = rc.sample_ub(baseball, 500, seed=42)
        assert np.array_equal(a.theta, b.theta)

    def test_draws_are_y_plus_scaled_normals(self, baseball):
        # scaling and shifting the normals in place gives the bytes of y + sqrt(d) z
        draws = rc.sample_ub(baseball, 300, seed=5)
        z = np.random.default_rng(5).standard_normal((300, baseball.m))
        assert draws.theta.tobytes() == (baseball.y + np.sqrt(baseball.d) * z).tobytes()

    def test_rejects_bad_s(self, baseball):
        with pytest.raises(rc.DomainError):
            rc.sample_ub(baseball, 0, seed=1)

    def test_anderson_darling_normality(self, baseball):
        # fully specified null: standardize and use case-0 critical value at
        # the 0.1% level (asymptotic, ~6.0); fixed seed guards flakiness
        draws = rc.sample_ub(baseball, 10000, seed=11)
        z = (draws.theta - baseball.y) / np.sqrt(baseball.d)
        n = z.shape[0]
        for i in range(baseball.m):
            u = np.sort(ndtr(z[:, i]))
            idx = np.arange(1, n + 1)
            a2 = -n - np.mean((2 * idx - 1) * (np.log(u) + np.log1p(-u[::-1])))
            assert a2 < 6.0


class TestConditionals:
    def test_cond_theta_small_d_tracks_y(self):
        rng = np.random.default_rng(0)
        y = np.array([1.0, -2.0])
        out = cond_theta(y, np.array([1e-14, 1e-14]), np.array([5.0, 5.0]), 1.0, rng)
        assert np.allclose(out, y, atol=1e-5)

    def test_cond_theta_large_a_matches_ub(self):
        rng = np.random.default_rng(1)
        y = np.array([0.0])
        d = np.array([1.0])
        draws = np.array([cond_theta(y, d, np.array([100.0]), 1e12, rng)[0] for _ in range(20000)])
        assert draws.mean() == pytest.approx(0.0, abs=0.05)
        assert draws.var() == pytest.approx(1.0, rel=0.05)

    def test_cond_theta_fixed_point(self):
        # y on the regression surface: the mean is y regardless of a
        rng = np.random.default_rng(2)
        y = np.array([3.0])
        for a in (0.01, 1.0, 100.0):
            vals = [cond_theta(y, np.array([1e-12]), np.array([3.0]), a, rng)[0] for _ in range(10)]
            assert np.allclose(vals, 3.0, atol=1e-4)

    def test_cond_theta_requires_positive_a(self):
        with pytest.raises(rc.DomainError):
            cond_theta(np.array([0.0]), np.array([1.0]), np.array([0.0]), 0.0, np.random.default_rng(0))

    def _beta_parts(self, X):
        xtx_inv = np.linalg.inv(X.T @ X)
        return np.linalg.cholesky(xtx_inv), xtx_inv @ X.T

    def test_cond_beta_intercept_only_mean(self):
        X = np.ones((6, 1))
        chol, proj = self._beta_parts(X)
        theta = np.arange(6.0)
        rng = np.random.default_rng(3)
        draws = np.array([cond_beta(chol, proj, theta, 1e-12, rng)[0] for _ in range(50)])
        assert np.allclose(draws, theta.mean(), atol=1e-4)

    def test_cond_beta_exact_fit(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(8), np.arange(8.0)])
        b = np.array([2.0, -0.5])
        chol, proj = self._beta_parts(X)
        out = cond_beta(chol, proj, X @ b, 1e-14, rng)
        assert np.allclose(out, b, atol=1e-5)

    def test_cond_a_positive_and_deterministic(self):
        rng = np.random.default_rng(5)
        theta = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        xb = np.zeros(5)
        draws = [cond_a_rejection(theta, xb, 0.5, rng) for _ in range(200)]
        assert all(a > 0 for a in draws)
        rng2 = np.random.default_rng(5)
        assert draws[0] == cond_a_rejection(theta, xb, 0.5, rng2)

    def test_cond_a_rejects_degenerate(self):
        rng = np.random.default_rng(6)
        with pytest.raises(rc.DomainError, match="degenerate"):
            cond_a_rejection(np.zeros(5), np.zeros(5), 1.0, rng)
        with pytest.raises(rc.DomainError, match="m="):
            cond_a_rejection(np.array([1.0, 2.0]), np.zeros(2), 1.0, rng)

    def test_cond_a_ks_against_grid_oracle(self):
        # acceptance-grade check also lives in test_acceptance; this is a
        # faster version at 2e4 draws
        rng = np.random.default_rng(7)
        theta = np.array([0.1, 0.4, -0.2, 0.3, 0.0, 0.25])
        xb = np.full(6, 0.15)
        dbar = 0.05
        draws = np.sort([cond_a_rejection(theta, xb, dbar, rng) for _ in range(20000)])
        sse = float(np.sum((theta - xb) ** 2))
        cdf = variance_target_cdf(draws, 6, sse, dbar)
        emp = np.arange(1, len(draws) + 1) / len(draws)
        assert np.max(np.abs(cdf - emp)) < 0.03

    def test_cond_a_large_dbar_is_inverse_gamma(self):
        # dbar -> inf limit: acceptance probability -> 1, target is the proposal
        rng = np.random.default_rng(8)
        theta = np.array([1.0, -1.0, 0.5, 2.0, -0.5, 1.5])
        xb = np.zeros(6)
        sse = float(np.sum(theta**2))
        draws = [cond_a_rejection(theta, xb, 1e10, rng) for _ in range(5000)]
        ref = stats.invgamma(a=2.0, scale=sse / 2)  # shape m/2-1 = 2
        assert stats.kstest(draws, ref.cdf).pvalue > 0.01


class TestGibbsHb:
    def test_design_matrix(self, baseball):
        X = design_matrix(baseball)
        assert X.shape == (18, 1) and np.all(X == 1.0)
        ds = make_dataset([1.0, 2.0, 3.0, 4.0, 5.0], np.ones(5), x=[(0.1,), (0.2,), (0.3,), (0.4,), (0.5,)])
        assert design_matrix(ds).shape == (5, 2)
        assert design_matrix(ds, include_intercept=False).shape == (5, 1)

    def test_no_intercept_needs_covariates(self, baseball):
        with pytest.raises(rc.DomainError, match="--no-intercept.*x1..xp"):
            design_matrix(baseball, include_intercept=False)

    def test_rejects_bad_s(self, baseball):
        with pytest.raises(rc.DomainError, match="S=0"):
            rc.gibbs_hb(baseball, 0, seed=1)

    def test_propriety_guard(self):
        ds = make_dataset([1.0, 2.0, 3.0], np.ones(3), x=[(0.1,), (0.2,), (0.3,)])
        with pytest.raises(rc.DomainError, match="propriety guard"):
            rc.gibbs_hb(ds, 10, seed=0)

    def test_rank_deficient_design(self):
        # duplicated covariate column collides with the intercept
        x = [(1.0, 1.0)] * 8
        ds = make_dataset(np.arange(8.0), np.ones(8), x=x)
        with pytest.raises(rc.DomainError):
            rc.gibbs_hb(ds, 10, seed=0)

    def test_seed_determinism(self, baseball):
        a = rc.gibbs_hb(baseball, 200, seed=9)
        b = rc.gibbs_hb(baseball, 200, seed=9)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.beta, b.beta)

    def test_fixed_huge_a_matches_ub(self, baseball):
        # A held at 1e6: the HB draw of theta given A degenerates to the
        # UB posterior; compare marginals by two-sample KS, one test per
        # coordinate at the Bonferroni level 0.01/m for the family
        X, beta = np.ones((baseball.m, 1)), np.full((4000, 1), baseball.y.mean())
        a = np.full(4000, 1e6)
        theta, _ = draw_theta(baseball.y, baseball.d, X, beta, a, np.random.default_rng(13))
        ub = rc.sample_ub(baseball, 4000, seed=14)
        for i in range(baseball.m):
            assert stats.ks_2samp(theta[:, i], ub.theta[:, i]).pvalue > 0.01 / baseball.m

    def test_draw_theta_requires_positive_a(self, baseball):
        # NaN compares false both ways, so it is caught as not > 0
        X, beta = np.ones((baseball.m, 1)), np.zeros((3, 1))
        for bad in (0.0, -1.0, np.nan):
            a = np.array([1e-3, bad, bad])
            message = f"model-variance draw 1 must be > 0, got {bad}"
            with pytest.raises(rc.DomainError, match=message):
                draw_theta(baseball.y, baseball.d, X, beta, a, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "y, d",
        [
            ([0.5, 1.0, 1.8], [0.3, 0.2, 0.4]),
            (tuple(rc.baseball_dataset().y), tuple(rc.baseball_dataset().d)),
        ],
        ids=["m3", "baseball"],
    )
    def test_a_marginal_ks_against_quadrature(self, y, d):
        # the oracle integrates over +-40 log units, wider than the sampler's
        # grid, so the KS distance also bounds the grid truncation
        ds = make_dataset(y, d)
        a = np.sort(rc.gibbs_hb(ds, 100000, seed=3).a)
        cdf = hb_variance_marginal_cdf(a, y, d)
        n = len(a)
        ks = max(np.max(cdf - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - cdf))
        assert ks < 0.02

    def test_covariate_model_matches_gibbs_reference(self):
        # q = 2 design, outside the intercept-only quadrature oracle: the
        # exact sampler against the paper's Gibbs chain
        rng = np.random.default_rng(23)
        x = rng.uniform(0.0, 1.0, 10)
        d = rng.uniform(0.5, 2.0, 10)
        _, ds = rc.generate_instance(x, 0.2, 2.0, 1.0, d, rng)
        assert design_matrix(ds).shape == (10, 2)
        exact = rc.gibbs_hb(ds, 400000, seed=24).theta
        ref, _, _ = gibbs_hb_reference(ds.y, ds.d, design_matrix(ds), 100000, 2000, seed=25)
        sd = ref.std(axis=0)
        assert np.all(np.abs(exact.mean(axis=0) - ref.mean(axis=0)) < 0.05 * sd)
        assert np.allclose(exact.var(axis=0), ref.var(axis=0), rtol=0.05)

    def test_posterior_a_matches_benchmark_scale(self, hb_summary):
        assert hb_summary.a_mean == pytest.approx(0.0024, rel=0.20)
        assert hb_summary.a_median == pytest.approx(0.0017, rel=0.20)

    def test_shrinkage_range(self, baseball, hb_draws):
        shrink = np.mean(baseball.d / (baseball.d + hb_draws.a[:, None]), axis=0)
        assert 0.55 < shrink.min() < 0.70
        assert 0.70 < shrink.max() < 0.80


def design(name):
    """(dataset, include_intercept) of a named HB design: the fixture's
    intercept (q = 1), one covariate without an intercept (q = 1, through x),
    with one (q = 2), or the intercept, x and x^2 (q = 3)."""
    if name == "intercept":
        return rc.baseball_dataset(), True
    rng = np.random.default_rng(31)
    x = rng.uniform(0.5, 2.0, 12)
    _, ds = rc.generate_instance(x, 0.2, 0.4, 1.0, rng.uniform(0.5, 2.0, 12), rng)
    if name == "quadratic":
        ds = rc.Dataset(ds.ids, ds.y, ds.d, x=np.column_stack([x, x * x]))
    return ds, name != "no-intercept x1"


DESIGNS = ["intercept", "no-intercept x1", "covariate", "quadratic"]


class TestGls:
    """The one-factor kernel of `_gls` against the batched q x q formulas of
    `tests/oracles.py`."""

    @pytest.mark.parametrize("name", DESIGNS)
    def test_grid_log_density_matches_reference(self, name):
        # a log density, not a density: compared in absolute terms, at 1e-12
        # of its largest magnitude on the grid
        ds, include_intercept = design(name)
        X = design_matrix(ds, include_intercept)
        span = (np.log(ds.d.min()) - A_GRID_SPAN, np.log(ds.d.max()) + A_GRID_SPAN)
        u = np.linspace(*span, A_GRID_POINTS)
        got = _a_log_density(u, X, ds.y, ds.d)
        want = a_log_density_reference(u, X, ds.y, ds.d)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("name", DESIGNS)
    def test_no_linalg_calls(self, name, monkeypatch):
        # q = 1, 1, 2 and 3: the sampler factors X'V^-1 X itself, and
        # matrix_rank's check of X'X is its only np.linalg call
        ds, include_intercept = design(name)
        q = design_matrix(ds, include_intercept).shape[1]
        calls = []
        for fn in ("solve", "inv", "cholesky", "slogdet"):

            def spy(*args, _fn=getattr(np.linalg, fn), _name=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, fn, spy)
        draws = rc.gibbs_hb(ds, 500, seed=2, include_intercept=include_intercept)
        assert draws.beta.shape == (500, q)
        assert calls == []

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan])
    def test_pivot_not_positive_raises(self, bad):
        # entries (0, 0), (1, 0) and (1, 1) of a stack of two 2 x 2 matrices:
        # [[1, 0.5], [0.5, 1]] and [[1, 2], [2, 1]], whose second pivot is
        # 1 - 2^2 < 0
        G = [[np.array([1.0, 1.0])], [np.array([0.5, 2.0]), np.array([1.0, 1.0])]]
        with pytest.raises(rc.DomainError, match="numerically rank deficient"):
            _cholesky_columns(G)
        G[1][0][1] = 0.5
        K = _cholesky_columns(G)
        assert np.allclose(K[0][0], 1.0) and np.allclose(K[1][0], 0.5)
        assert np.allclose(K[1][1], np.sqrt(0.75))
        # a first pivot that is not > 0
        G[0][0][1] = bad
        with pytest.raises(rc.DomainError, match="numerically rank deficient"):
            _cholesky_columns(G)


class TestDrawBeta:
    """The beta step against `draw_beta_reference`, batched linear algebra
    over S q x q matrices, both fed from one seed."""

    def steps(self, name):
        S = 20000
        ds, include_intercept = design(name)
        X = design_matrix(ds, include_intercept)
        a = rc.gibbs_hb(ds, S, seed=4, include_intercept=include_intercept).a
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _draw_beta(X, ds.y, ds.d, a, rng)
        want = draw_beta_reference(X, ds.y, ds.d, a, ref_rng)
        assert got.shape == want.shape == (S, X.shape[1])
        # one standard_normal call of the same shape: both streams end in one state
        assert rng.random() == ref_rng.random()
        return got, want

    @pytest.mark.parametrize("name", ["intercept", "no-intercept x1", "covariate"])
    def test_matches_reference(self, name):
        got, want = self.steps(name)
        # a draw near 0 is the GLS fit cancelling its noise term, where two
        # sums of the same terms differ relatively by more; hence the atol
        # at 1e-13 of the largest draw
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_quadratic_matches_reference(self):
        # (1, x, x^2) on x in [0.5, 2] is ill-conditioned enough that both
        # routes lose a few more digits: they differed by 8e-14 of the
        # largest draw, and each by under 6e-14 from a 40-digit evaluation
        # on 300 draws, so the tolerance is 5e-13
        got, want = self.steps("quadratic")
        np.testing.assert_allclose(got, want, rtol=5e-13, atol=5e-13 * np.abs(want).max())

    @pytest.mark.parametrize("name", DESIGNS)
    def test_gibbs_hb_is_its_three_steps(self, name):
        # theta from the fits beta @ X.T, whole: with one column draw_theta
        # multiplies elementwise, which must give the same bits
        ds, include_intercept = design(name)
        X = design_matrix(ds, include_intercept)
        draws = rc.gibbs_hb(ds, 3000, seed=6, include_intercept=include_intercept)
        rng = np.random.default_rng(6)
        a = _draw_a(X, ds.y, ds.d, 3000, rng)
        beta = _draw_beta(X, ds.y, ds.d, a, rng)
        A = a[:, None]
        z = rng.standard_normal((3000, ds.m))
        theta = (A * ds.y + ds.d * (beta @ X.T)) / (A + ds.d) + np.sqrt(A * ds.d / (A + ds.d)) * z
        assert draws.a.tobytes() == a.tobytes()
        assert draws.beta.tobytes() == beta.tobytes()
        assert draws.theta.tobytes() == theta.tobytes()


class TestPosteriorDraws:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_named(self, bad):
        # the first non-finite draw in row order is named
        theta = np.zeros((6, 3))
        theta[4, 2] = bad
        theta[5, 0] = bad
        with pytest.raises(rc.DomainError, match="draw 4, coordinate 2 is not finite"):
            rc.PosteriorDraws(theta=theta, model="UB")

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_bad_variance_draw_named(self, bad):
        a = np.array([1.0, 2.0, bad, bad])
        with pytest.raises(rc.DomainError, match=f"model-variance draw 2 must be > 0, got {bad}"):
            rc.PosteriorDraws(theta=np.zeros((4, 3)), model="HB", beta=np.zeros((4, 1)), a=a)


class TestDrawTheta:
    """`draw_theta` fills theta block by block of rows: the same bits as the
    whole-array formula from one (S, m) call of the generator, and with one
    design column no whole-array temporaries."""

    @staticmethod
    def inputs(S, m, q, seed):
        rng = np.random.default_rng(seed)
        y, d = rng.standard_normal(m), rng.uniform(0.5, 2.0, m)
        X = np.column_stack([np.ones(m), rng.uniform(0.0, 1.0, (m, q - 1))])
        return y, d, X, rng.standard_normal((S, q)), rng.uniform(0.1, 3.0, S)

    def test_blocks_match_whole_array_formula(self, monkeypatch):
        # 50 draws in one block, and in blocks of 3 rows (the last of 2) or
        # of one row, with one design column (fits per block) and two (the
        # product whole: a product of one row can round differently)
        S, m = 50, 7
        for q, rows, blocks in ((1, 3, 17), (1, 1, 50), (2, 3, 17), (2, 1, 50)):
            y, d, X, beta, a = self.inputs(S, m, q, seed=20)
            rng = np.random.default_rng(21)
            A, xb = a[:, None], beta @ X.T
            z = rng.standard_normal((S, m))
            want = (A * y + d * xb) / (A + d) + np.sqrt(A * d / (A + d)) * z
            one_block, one_block_order = draw_theta(y, d, X, beta, a, np.random.default_rng(21))
            with monkeypatch.context() as patch:
                patch.setattr(domain, "BLOCK_CELLS", rows * m)
                assert len(domain.row_blocks(S, m)) == blocks
                blocked_rng = np.random.default_rng(21)
                blocked, blocked_order = draw_theta(y, d, X, beta, a, blocked_rng)
            assert one_block.tobytes() == want.tobytes() == blocked.tobytes()
            want_order = domain.sort_rows(want)
            for got in (one_block_order, blocked_order):
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want_order]
            # both streams end in one state
            assert blocked_rng.random() == rng.random()

    def test_peak_memory_is_its_output(self):
        # one design column: the output (the draws and their row order), and
        # per block the sort's two key buffers and its mask, and the formula's
        # two temporaries
        S, m = 20000, 200
        y, d, X, beta, a = self.inputs(S, m, 1, seed=22)
        (theta, (order, tied)), peak = traced_peak(
            draw_theta, y, d, X, beta, a, np.random.default_rng(0)
        )
        assert peak <= theta.nbytes + order.nbytes + tied.nbytes + 5 * 8 * domain.BLOCK_CELLS


def bounded(fn, *args, timeout=60.0):
    """fn(*args) on a thread joined within `timeout` seconds: its result, or
    its exception raised here; a call still running fails the test."""
    out = {}

    def run():
        try:
            out["result"] = fn(*args)
        except BaseException as exc:  # handed to the test thread below
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)  # a hung call cannot hold up exit
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{fn.__name__} still running after {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


class FakeGenerator:
    """Fills each block with ones, after sleeping `delay` s, and counts its
    fills; fill number `fail_at` (from 1) raises instead."""

    def __init__(self, fail_at=None, delay=0.0):
        self.fills, self.fail_at, self.delay = 0, fail_at, delay

    def standard_normal(self, out):
        self.fills += 1
        if self.fills == self.fail_at:
            raise RuntimeError(f"fill {self.fills}")
        time.sleep(self.delay)
        out[...] = 1.0


class TestDrawSorted:
    """The samplers' calling thread fills the first block of normals and one
    helper thread fills the rest, while the caller turns the blocks filled
    into draws and row-sorts them (`sort_rows` with a block hook): the
    draws, their row order and the generator's end state are those of one
    (S, m) call, the whole-array formula and `sort_rows` of the draws, on
    one thread.  A draw set of one block starts no thread."""

    # (S, m, rows per block): 50 blocks of 1 row; 17 blocks of 3 rows, the
    # last of 2; 2 blocks of 5 rows, the helper filling one; and at the
    # default, 3 blocks of 4096 rows, the last of 1808
    SHAPES = {
        "1-row": (50, 7, 1, 50),
        "3-row": (50, 7, 3, 17),
        "2-block": (10, 7, 5, 2),
        "default": (10000, 64, None, 3),
    }

    @staticmethod
    def reference(ds, S, seed, hb):
        """theta, single-threaded from one (S, m) call, and the generator after it."""
        rng = np.random.default_rng(seed)
        if not hb:
            return ds.y + np.sqrt(ds.d) * rng.standard_normal((S, ds.m)), rng
        X = design_matrix(ds)
        a = _draw_a(X, ds.y, ds.d, S, rng)
        beta = _draw_beta(X, ds.y, ds.d, a, rng)
        A, z = a[:, None], rng.standard_normal((S, ds.m))
        theta = (A * ds.y + ds.d * (beta @ X.T)) / (A + ds.d) + np.sqrt(A * ds.d / (A + ds.d)) * z
        return theta, rng

    @pytest.mark.parametrize("blocks", SHAPES)
    @pytest.mark.parametrize("model, q", [("ub", 1), ("hb", 1), ("hb", 2)])
    def test_matches_single_threaded_reference(self, model, q, blocks, monkeypatch):
        S, m, rows, n_blocks = self.SHAPES[blocks]
        if rows is not None:
            monkeypatch.setattr(domain, "BLOCK_CELLS", rows * m)
        assert len(domain.row_blocks(S, m)) == n_blocks
        wide = wide_dataset(m, seed=m)  # one covariate: two design columns
        ds = wide if q == 2 else make_dataset(wide.y, wide.d)
        made = []

        def generator(S, seed, _fn=posterior._generator):
            made.append(_fn(S, seed))
            return made[-1]

        monkeypatch.setattr(posterior, "_generator", generator)
        draws = rc.sample_ub(ds, S, 11) if model == "ub" else rc.gibbs_hb(ds, S, 11)
        theta, rng = self.reference(ds, S, 11, hb=model == "hb")
        assert model == "ub" or design_matrix(ds).shape[1] == q
        assert draws.theta.tobytes() == theta.tobytes()
        assert made[0].bit_generator.state == rng.bit_generator.state
        # the sampler's row order, not a lazy sort of theta
        monkeypatch.setattr(posterior, "sort_rows", None)
        want = domain.sort_rows(theta)
        assert [v.tobytes() for v in draws.row_order] == [v.tobytes() for v in want]

    def test_same_seed_reruns_are_byte_identical(self):
        ds = wide_dataset(200, seed=3)
        assert len(domain.row_blocks(5000, 200)) == 4
        first = rc.sample_ub(ds, 5000, seed=8)
        for _ in range(20):
            again = rc.sample_ub(ds, 5000, seed=8)
            assert again.theta.tobytes() == first.theta.tobytes()
            assert [v.tobytes() for v in again.row_order] == [
                v.tobytes() for v in first.row_order
            ]

    def test_one_thread_per_call_of_several_blocks(self, monkeypatch):
        threads, started = threading.active_count(), []

        class Spy(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        cfg = rc.SimConfig(n_reps=1)
        assert len(domain.row_blocks(cfg.samples, cfg.m)) == 1
        run_cell(cfg, np.random.default_rng(0).uniform(0.0, 1.0, cfg.m), 0.01, 0.4, 0)
        assert started == []
        ds = wide_dataset(200, seed=1)
        assert len(domain.row_blocks(20000, 200)) == 16
        rc.sample_ub(ds, 20000, seed=2)
        assert len(started) == 1
        rc.gibbs_hb(ds, 20000, seed=2)
        assert len(started) == 2
        assert threading.active_count() == threads

    def test_generator_error_is_raised_in_caller(self, monkeypatch):
        # 10 blocks of 4 rows: the third fill raises; the caller finishes the
        # two blocks filled before it, here with the error already stored
        # when it starts on block 2, and raises the error at the third
        threads, done = threading.active_count(), []
        monkeypatch.setattr(domain, "BLOCK_CELLS", 4 * 5)
        rng = FakeGenerator(fail_at=3)
        sort_rows = posterior.sort_rows

        def late_sort_rows(values, make_block):
            def make(rows):
                while rows.start == 4 and rng.fills < 3:
                    time.sleep(0.001)
                time.sleep(0.05 if rows.start == 4 else 0)
                make_block(rows)

            return sort_rows(values, make)

        monkeypatch.setattr(posterior, "sort_rows", late_sort_rows)
        with pytest.raises(RuntimeError, match="fill 3"):
            bounded(_draw_sorted, rng, 40, 5, lambda block, rows: done.append(rows.start))
        assert done == [0, 4] and rng.fills == 3
        assert threading.active_count() == threads

    def test_finish_error_stops_helper(self, monkeypatch):
        # 40 blocks of 1 row, each fill taking 0.05 s: finish raises on
        # block 1, the helper stops after the fill it is in, far short of
        # the last block, and has ended by the time the error reaches the
        # caller
        threads = threading.active_count()
        monkeypatch.setattr(domain, "BLOCK_CELLS", 5)
        rng = FakeGenerator(delay=0.05)

        def finish(block, rows):
            if rows.start == 1:
                raise ValueError("block 1")

        with pytest.raises(ValueError, match="block 1"):
            bounded(_draw_sorted, rng, 40, 5, finish)
        assert rng.fills < 40
        assert threading.active_count() == threads

    def test_first_block_error_starts_no_thread(self, monkeypatch):
        # 10 blocks of 4 rows: the caller's own fill of block 0 raises before
        # any block is finished and before the helper would start
        started, done = [], []

        class Spy(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(domain, "BLOCK_CELLS", 4 * 5)
        monkeypatch.setattr(threading, "Thread", Spy)
        rng = FakeGenerator(fail_at=1)
        with pytest.raises(RuntimeError, match="fill 1"):
            _draw_sorted(rng, 40, 5, lambda block, rows: done.append(rows.start))
        assert done == [] and started == [] and rng.fills == 1

    def test_concurrent_samplers_with_fast_switching(self, monkeypatch):
        # four samplers at once on blocks of one row, each with its helper,
        # the interpreter switching threads every microsecond: each draw set
        # and row order is that of a lone call
        monkeypatch.setattr(domain, "BLOCK_CELLS", 7)
        ds = wide_dataset(7, seed=7)
        want = [rc.sample_ub(ds, 60, seed) for seed in range(4)]
        got = [None] * 4

        def sample(seed):
            got[seed] = rc.sample_ub(ds, 60, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [
                threading.Thread(target=sample, args=(seed,), daemon=True) for seed in range(4)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for w, g in zip(want, got):
            assert g.theta.tobytes() == w.theta.tobytes()
            assert [v.tobytes() for v in g.row_order] == [v.tobytes() for v in w.row_order]


class TestDrawA:
    """`_draw_a` inverts the grid's trapezoid CDF at its uniforms in
    ascending order; np.interp at the uniforms as drawn is the reference."""

    @staticmethod
    def unsorted_reference(X, y, d, S, rng):
        span = (np.log(d.min()) - A_GRID_SPAN, np.log(d.max()) + A_GRID_SPAN)
        u = np.linspace(*span, A_GRID_POINTS)
        log_dens = _a_log_density(u, X, y, d)
        dens = np.exp(log_dens - log_dens.max())
        cdf = np.concatenate([[0.0], np.cumsum(dens[1:] + dens[:-1])])
        return np.exp(np.interp(rng.random(S) * cdf[-1], cdf, u)), cdf

    @pytest.mark.parametrize("name", ["fixture", "flat tails"])
    def test_sorted_queries_match_interp(self, name):
        if name == "fixture":
            ds = rc.baseball_dataset()
        else:
            # 100 variances near 0.01 against a unit spread of y: the density
            # underflows to 0 on both ends of the grid
            rng = np.random.default_rng(0)
            ds = make_dataset(rng.standard_normal(100), rng.uniform(0.01, 0.02, 100))
        X = design_matrix(ds)
        want, cdf = self.unsorted_reference(X, ds.y, ds.d, 50000, np.random.default_rng(8))
        # runs of equal CDF nodes at the top (the fixture) or at both ends
        assert cdf[-2] == cdf[-1]
        assert (cdf[1] == 0.0) == (name == "flat tails")
        got = _draw_a(X, ds.y, ds.d, 50000, np.random.default_rng(8))
        assert got.tobytes() == want.tobytes()


class TestSummarize:
    def test_constant_draws(self):
        draws = rc.PosteriorDraws(theta=np.ones((5, 3)), model="UB")
        s = rc.summarize(draws)
        assert np.allclose(s.cov, 0.0)
        assert np.allclose(s.mean, 1.0)

    def test_two_draw_algebra(self):
        u = np.array([1.0, 2.0])
        v = np.array([3.0, -2.0])
        draws = rc.PosteriorDraws(theta=np.stack([u, v]), model="UB")
        s = rc.summarize(draws)
        assert np.allclose(s.mean, (u + v) / 2)
        assert np.allclose(s.cov, np.outer(u - v, u - v) / 4)  # 1/S normalization

    def test_ub_large_s(self, baseball, ub_draws):
        s = rc.summarize(ub_draws)
        assert np.allclose(s.mean, baseball.y, atol=0.002)
        assert np.allclose(np.diag(s.cov), baseball.d, rtol=0.1)
        off = s.cov - np.diag(np.diag(s.cov))
        assert np.max(np.abs(off)) < 0.0005

    def test_needs_two_draws(self):
        draws = rc.PosteriorDraws(theta=np.ones((1, 2)), model="UB")
        with pytest.raises(rc.DomainError):
            rc.summarize(draws)
