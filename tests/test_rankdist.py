import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rankcred as rc
from rankcred import credset, domain, posterior, rankdist
from rankcred.posterior import PosteriorDraws
from rankcred.rankdist import DS_TOL, rank_table

from conftest import select_ellipse, spy_distance_passes, traced_peak, wide_dataset
from oracles import (
    mahalanobis_solve,
    rank_table_reference,
    tied_rows_reference,
    ub_expected_rank,
    ub_rank_marginal,
)


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

    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),
                st.sampled_from([0.0, -0.0]),
                st.floats(-3, 3).map(lambda v: round(v, 1)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_loop_reference(self, vals):
        table = rank_table(vals)
        assert table.tobytes() == rank_table_reference(vals).tobytes()

    def test_consistent_with_midrank(self):
        # column means of ranks 1..m weighted by the table reproduce midranks
        vals = np.array([0.4, 0.1, 0.4, 0.2])
        table = rank_table(vals)
        got = np.arange(1, 5) @ table
        assert np.allclose(got, rc.rank_of(vals, rc.MIDRANK))


def toy_selection_and_draws(S=400, m=5, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((S, m)) + np.arange(m)
    draws = PosteriorDraws(theta=theta, model="UB")
    sel = credset.cartesian_select(draws, alpha=0.1)
    return sel, draws


def draws_with_ties(S, m, tied_rows, seed):
    """Normal draws in which each listed row has one exact tie."""
    theta = np.random.default_rng(seed).standard_normal((S, m))
    theta[tied_rows, 1] = theta[tied_rows, 0]
    return theta, list(tied_rows)


def one_count_reference(sel, theta, weighting, distances):
    """The selection's weights, and its distribution as one np.bincount over
    the cells of its tie-free draws plus the tied draws' tables in selection
    order.  Returns (weights, probs)."""
    m = theta.shape[1]
    if weighting == rc.EQUAL:
        w = np.full(sel.K, 1.0 / sel.K)
    else:
        logw = -distances[sel.indices] / 2.0
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
    rows = theta[sel.indices]
    tied = (np.diff(np.sort(rows, axis=1), axis=1) == 0).any(axis=1)
    cells = (np.argsort(rows[~tied], axis=1, kind="stable") + m * np.arange(m)).ravel()
    probs = np.zeros((m, m))
    probs += np.bincount(cells, np.repeat(w[~tied], m), m * m).reshape(m, m)
    for s in np.flatnonzero(tied):
        probs += w[s] * rank_table(rows[s])
    return w, probs


class TestBuildDistribution:
    def test_doubly_stochastic_equal(self):
        sel, draws = toy_selection_and_draws()
        dist = rankdist.build_distribution(sel, draws)
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)
        assert np.allclose(dist.probs.sum(axis=1), 1.0, atol=DS_TOL)

    def test_doubly_stochastic_mahal(self):
        sel, draws = toy_selection_and_draws(seed=1)
        disp = credset.Dispersion(draws.theta.mean(axis=0), np.cov(draws.theta.T))
        distances = disp.distances(draws.theta)
        dist = rankdist.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP, distances=distances)
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)
        assert np.allclose(dist.probs.sum(axis=1), 1.0, atol=DS_TOL)

    def test_equal_weighting_averages_tables(self):
        theta = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        draws = PosteriorDraws(theta=theta, model="UB")
        sel, _ = select_ellipse(draws, credset.Dispersion(theta.mean(axis=0), np.eye(3)), alpha=0.01)
        dist = rankdist.build_distribution(sel, draws)
        manual = 0.5 * (rank_table(theta[0]) + rank_table(theta[1]))
        assert np.allclose(dist.probs, manual)

    def test_mahal_weights_follow_distances(self):
        # second draw is farther from center, so the distribution leans
        # toward the ranking of the first draw
        theta = np.array([[0.1, 0.2, 0.9], [0.9, 0.2, 0.1], [0.9, 0.2, 0.1]])
        draws = PosteriorDraws(theta=theta, model="UB")
        sel, distances = select_ellipse(draws, credset.Dispersion([0.1, 0.2, 0.9], np.eye(3)), alpha=0.01)
        assert sel.K == 3
        dist = rankdist.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP, distances=distances)
        d1 = mahalanobis_solve(theta[1:2], [0.1, 0.2, 0.9], np.eye(3))[0]
        w_far = np.exp(-d1 / 2.0) / (1.0 + 2.0 * np.exp(-d1 / 2.0))
        expected = (1 - 2 * w_far) * rank_table(theta[0]) + 2 * w_far * rank_table(theta[1])
        assert np.allclose(dist.probs, expected, atol=1e-12)
        # equal weighting would give 1/3; downweighting the far draws helps
        assert dist.probs[0, 0] > 1.0 / 3.0

    def test_cartesian_mahal_requires_context(self):
        # no selection holds distances, and those of the selected draws alone
        # are not the S that the weights index
        sel, draws = toy_selection_and_draws(seed=2)
        with pytest.raises(rc.DomainError, match="needs the distances of all 400 draws"):
            rankdist.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP)
        distances = credset.Dispersion(np.zeros(5), np.eye(5)).distances(draws.theta)
        with pytest.raises(rc.DomainError, match="needs the distances of all 400 draws"):
            rankdist.build_distribution(sel, draws, rc.MAHALANOBIS_EXP, distances[sel.indices])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1.0])
    def test_bad_distance_of_selected_draw_named(self, bad):
        # a weight from a distance that is not finite and >= 0 would make the
        # whole matrix NaN or weigh a draw above the rest; one of an
        # unselected draw weighs nothing and is not read
        sel, draws = toy_selection_and_draws(seed=7)
        distances = np.zeros(draws.S)
        distances[np.setdiff1d(np.arange(draws.S), sel.indices)] = bad
        ok = rankdist.build_distribution(sel, draws, rc.MAHALANOBIS_EXP, distances)
        assert ok.probs.tobytes() == rankdist.build_distribution(sel, draws).probs.tobytes()
        distances[sel.indices[[2, 5]]] = bad
        with pytest.raises(
            rc.DomainError, match=f"distance of draw {sel.indices[2]} must be finite and >= 0"
        ):
            rankdist.build_distribution(sel, draws, rc.MAHALANOBIS_EXP, distances)

    def test_given_distances_override_the_ellipse(self):
        # an ellipse's weights read only the distances given, not those that
        # cut it: all-zero ones give the equal weights
        sel, draws = toy_selection_and_draws(seed=6)
        ellipse, _ = select_ellipse(draws, credset.Dispersion(np.arange(5.0), np.eye(5)), 0.1)
        flat = rankdist.build_distribution(ellipse, draws, rc.MAHALANOBIS_EXP, np.zeros(draws.S))
        assert flat.probs.tobytes() == rankdist.build_distribution(ellipse, draws).probs.tobytes()

    def test_unknown_weighting(self):
        sel, draws = toy_selection_and_draws(seed=3)
        with pytest.raises(rc.DomainError, match="weighting"):
            rankdist.build_distribution(sel, draws, weighting="softmax")

    def test_monotone_relabeling_invariance(self):
        # a strictly increasing transform of every draw leaves the
        # distribution untouched when the same draws are selected
        sel, draws = toy_selection_and_draws(seed=4)
        warped = PosteriorDraws(
            theta=np.exp(draws.theta) + 3 * draws.theta, model="UB"
        )
        d1 = rankdist.build_distribution(sel, draws)
        d2 = rankdist.build_distribution(sel, warped)
        assert np.allclose(d1.probs, d2.probs)

    def test_tie_free_rows_match_rank_tables(self):
        # the weighted count over (rank, entity) cells against the table path
        theta = np.random.default_rng(5).standard_normal((40, 6))
        draws = PosteriorDraws(theta=theta, model="UB")
        sel, distances = select_ellipse(draws, credset.Dispersion(np.zeros(6), np.eye(6)), alpha=0.01)
        dist = rankdist.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP, distances=distances)
        w = np.exp(-distances[sel.indices] / 2)
        manual = sum(wi * rank_table(t) for wi, t in zip(w / w.sum(), theta[sel.indices]))
        assert np.allclose(dist.probs, manual, atol=1e-12)

    def test_tied_rows_handled(self):
        theta = np.array([[1.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
        draws = PosteriorDraws(theta=theta, model="UB")
        sel, _ = select_ellipse(draws, credset.Dispersion(theta.mean(axis=0), np.eye(3)), alpha=0.01)
        dist = rankdist.build_distribution(sel, draws)
        manual = sum(rank_table(t) for t in theta) / 3.0
        assert np.allclose(dist.probs, manual, atol=1e-12)
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)

    @given(
        seed=st.integers(0, 2**32 - 1),
        S=st.integers(30, 300),
        m=st.integers(2, 6),
        spread=st.integers(2, 8),
        alphas=st.tuples(st.floats(0.05, 0.25), st.floats(0.3, 0.5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_selections_with_ties(self, seed, S, m, spread, alphas):
        # integer draws: each selection reads the shared per-draw order at
        # its own indices, and tied rows go through rank_table
        theta = np.random.default_rng(seed).integers(-spread, spread + 1, (S, m)).astype(float)
        draws = PosteriorDraws(theta=theta, model="UB")
        order, tied = draws.row_order
        assume(tied.any() and not tied.all())
        sels = [credset.cartesian_select(draws, a) for a in alphas]
        assume(all(sel.K < S for sel in sels))
        center = theta.mean(axis=0)
        dispersion = np.cov(theta.T).reshape(m, m) + np.eye(m)
        distances = credset.Dispersion(center, dispersion).distances(theta)
        for sel in sels:
            rows = theta[sel.indices]
            dist = mahalanobis_solve(rows, center, dispersion)
            for weighting, w in (
                (rc.EQUAL, np.ones(sel.K)),
                (rc.MAHALANOBIS_EXP, np.exp(-(dist - dist.min()) / 2)),
            ):
                got = rankdist.build_distribution(sel, draws, weighting, distances)
                manual = sum(wi * rank_table(t) for wi, t in zip(w / w.sum(), rows))
                assert np.allclose(got.probs, manual, rtol=0, atol=1e-12)
        assert draws.row_order[0] is order and draws.row_order[1] is tied
        with pytest.raises(ValueError):
            order[0, 0] = 0
        with pytest.raises(ValueError):
            tied[0] = False

    @pytest.mark.parametrize("weighting", [rc.EQUAL, rc.MAHALANOBIS_EXP])
    def test_selection_over_several_blocks(self, weighting, monkeypatch):
        # blocks of 16 rows, so 64 draws fill four; the first three hold
        # exact ties, the last none
        m = 8
        monkeypatch.setattr(domain, "BLOCK_CELLS", 16 * m)
        theta, tied_rows = draws_with_ties(64, m, [3, 20, 40], seed=22)
        draws = PosteriorDraws(theta=theta, model="UB")
        sel, distances = select_ellipse(draws, credset.Dispersion(np.zeros(m), np.eye(m)), alpha=0.2)
        assert sel.indices[-1] >= 48 and set(tied_rows) <= set(sel.indices)
        assert len(sel.indices) < 64
        got = rankdist.build_distribution(sel, draws, weighting, distances).probs
        w, reference = one_count_reference(sel, theta, weighting, distances)
        assert got.tobytes() == reference.tobytes()
        manual = sum(wi * rank_table(t) for wi, t in zip(w, theta[sel.indices]))
        assert np.allclose(got, manual, rtol=0, atol=1e-12)

    def test_cartesian_mahal_peak_memory_is_blocks(self):
        # the box's weights index the distances of all draws, passed in: the
        # weights, the matrix and a few blocks of float64 (the rank count's
        # cells, weights and np.add.at's own copies), not a K x m copy of the
        # selected draws
        draws = rc.gibbs_hb(wide_dataset(200, seed=200), 20000, seed=1)
        summary = posterior.summarize(draws)
        distances = credset.Dispersion(summary.mean, summary.cov).distances(draws.theta)
        sel = credset.cartesian_select(draws, 0.1)
        draws.row_order  # cached outside the trace
        K, m = sel.K, draws.m
        bound = 4 * 8 * domain.BLOCK_CELLS + 8 * 8 * K + 8 * m * m
        assert bound < K * m * 8 / 2
        _, peak = traced_peak(rankdist.build_distribution, sel, draws, rc.MAHALANOBIS_EXP, distances)
        assert peak <= bound

    def test_default_blocks_match_one_count(self):
        # 10000 draws of m = 64 fill three blocks of 4096 rows
        S, m = 10000, 64
        assert domain.BLOCK_CELLS // m == 4096
        theta, tied_rows = draws_with_ties(S, m, [5, 3000, 4500, 7000], seed=21)
        draws = PosteriorDraws(theta=theta, model="UB")
        order, tied = draws.row_order
        assert np.flatnonzero(tied).tolist() == tied_rows
        assert np.array_equal(order[~tied], np.argsort(theta[~tied], axis=1, kind="stable"))
        sel, distances = select_ellipse(draws, credset.Dispersion(np.zeros(m), np.eye(m)), alpha=0.2)
        assert sel.indices[-1] > 2 * 4096 and tied[sel.indices].sum() >= 2
        for weighting in (rc.EQUAL, rc.MAHALANOBIS_EXP):
            got = rankdist.build_distribution(sel, draws, weighting, distances).probs
            reference = one_count_reference(sel, theta, weighting, distances)[1]
            assert got.tobytes() == reference.tobytes()

    def test_row_order_ties_match_loop_reference(self, monkeypatch):
        # blocks of 4 draws; row 2's only tie is -0.0 against 0.0, which ==
        # calls a tie as rank_table does; rows 5 and 9 tie at the lowest and
        # the highest sorted places, row 12 everywhere, row 15 (-0.0 and 0.0
        # beside +-5e-324) from m = 4.  Rows 3, 7, 10 and 14, one per block,
        # hold values one ulp apart (nextafter neighbours, subnormals around a
        # lone -0.0, +-5e-324 and -0.0 among +-1e308), so their keys agree
        # above the entity bits and they are sorted again by value
        for m, dtype in [(2, np.uint8), (6, np.uint8), (255, np.uint8), (256, np.uint8), (257, np.uint16)]:
            monkeypatch.setattr(domain, "BLOCK_CELLS", 4 * m)
            rng = np.random.default_rng(23)
            theta = rng.standard_normal((16, m))
            theta[2, [m - 1, 0]] = [-0.0, 0.0]
            theta[5, [m - 1, 0]] = theta[5].min() - 1.0
            theta[9, [m - 2, 1]] = theta[9].max() + 1.0
            theta[12] = 3.0
            ulps = [0.7]
            for _ in range(m - 1):
                ulps.append(np.nextafter(ulps[-1], np.inf))
            theta[3] = rng.permutation(ulps)
            theta[7] = rng.permutation(np.arange(m) - m // 2) * 5e-324
            theta[7, theta[7] == 0] = -0.0
            extremes = [1e308, -1e308, 5e-324, -5e-324, -0.0, 2.2e-308, -2.2e-308, 1.0]
            theta[10, : min(m, 8)] = extremes[:m]
            theta[14] = -rng.permutation(ulps)
            theta[15] = np.resize([-5e-324, -0.0, 5e-324, 0.0], m)
            draws = PosteriorDraws(theta=theta, model="UB")
            order, tied = draws.row_order
            assert order.dtype == dtype
            assert tied.tolist() == tied_rows_reference(theta).tolist()
            assert np.flatnonzero(tied).tolist() == [2, 5, 9, 12] + ([15] if m >= 4 else [])
            assert np.array_equal(order, np.argsort(theta, axis=1, kind="stable"))
            ranked = np.take_along_axis(theta, order, axis=1)
            assert (ranked[:, 1:] >= ranked[:, :-1]).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        S=st.integers(1, 40),
        m=st.integers(2, 7),
        nudge=st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_order_ties_with_signed_zeros(self, seed, S, m, nudge):
        # integer draws, each zero given a random sign; a share `nudge` of
        # the entries moves up one ulp, which breaks their ties
        rng = np.random.default_rng(seed)
        theta = rng.integers(-3, 4, (S, m)) * rng.choice([-1.0, 1.0], (S, m))
        theta = np.where(rng.random((S, m)) < nudge, np.nextafter(theta, np.inf), theta)
        order, tied = PosteriorDraws(theta=theta, model="UB").row_order
        assert tied.tolist() == tied_rows_reference(theta).tolist()
        assert np.array_equal(order, np.argsort(theta, axis=1, kind="stable"))
        assert (np.diff(np.take_along_axis(theta, order, axis=1), axis=1) >= 0).all()

    def test_every_selected_row_tied(self):
        theta = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        draws = PosteriorDraws(theta=theta, model="UB")
        sel, _ = select_ellipse(draws, credset.Dispersion(theta.mean(axis=0), np.eye(2)), alpha=0.01)
        dist = rankdist.build_distribution(sel, draws)
        assert np.array_equal(dist.probs, np.full((2, 2), 0.5))

    def test_extreme_distances_stay_finite(self):
        # weights survive distances large enough to underflow exp(-d/2)
        theta = np.array([[0.0, 1.0], [100.0, -100.0], [0.1, 1.1]])
        draws = PosteriorDraws(theta=theta, model="UB")
        sel, distances = select_ellipse(draws, credset.Dispersion([0.0, 1.0], 1e-4 * np.eye(2)), alpha=0.01)
        dist = rankdist.build_distribution(sel, draws, weighting=rc.MAHALANOBIS_EXP, distances=distances)
        assert np.all(np.isfinite(dist.probs))
        assert np.allclose(dist.probs.sum(axis=0), 1.0, atol=DS_TOL)


def wired_probs(ds, draws, geometry, weighting, alpha=0.1):
    """A credible distribution wired by hand, as each caller did before `Fit`:
    its own dispersion, distance pass and selection."""
    if draws.model == "UB":
        dispersion = credset.Dispersion(ds.y, ds.d)
    else:
        summary = posterior.summarize(draws)
        dispersion = credset.Dispersion(summary.mean, summary.cov)
    distances = dispersion.distances(draws.theta)
    if geometry == "cartesian":
        sel = credset.cartesian_select(draws, alpha)
    else:
        sel = credset.elliptical_select(draws, dispersion, alpha, distances)
    return rankdist.build_distribution(sel, draws, weighting, distances).probs


@pytest.fixture(scope="module")
def wide_hb():
    ds = wide_dataset(200, 200)
    return ds, rc.gibbs_hb(ds, 20011, seed=3)


class TestFit:
    @pytest.mark.parametrize("weighting", [rc.EQUAL, rc.MAHALANOBIS_EXP])
    @pytest.mark.parametrize("geometry", ["cartesian", "elliptical"])
    @pytest.mark.parametrize("model", ["ub", "hb"])
    def test_matches_hand_wiring(self, baseball, ub_draws, hb_draws, model, geometry, weighting):
        draws = ub_draws if model == "ub" else hb_draws
        fit = rc.Fit(baseball, draws)
        probs = fit.distribution(fit.select(geometry, 0.1), weighting).probs
        assert np.array_equal(probs, wired_probs(baseball, draws, geometry, weighting))

    @pytest.mark.parametrize("weighting", [rc.EQUAL, rc.MAHALANOBIS_EXP])
    @pytest.mark.parametrize("geometry", ["cartesian", "elliptical"])
    def test_matches_hand_wiring_with_covariate(self, wide_hb, geometry, weighting):
        ds, draws = wide_hb
        assert draws.beta.shape[1] == 2  # intercept and one covariate
        fit = rc.Fit(ds, draws)
        probs = fit.distribution(fit.select(geometry, 0.1), weighting).probs
        assert np.array_equal(probs, wired_probs(ds, draws, geometry, weighting))

    @pytest.mark.parametrize("box_first", [False, True], ids=["ellipse-first", "box-first"])
    def test_ellipse_pass_weights_the_box(self, baseball, monkeypatch, box_first):
        # one distance pass in either order: the ellipse and both selections'
        # mahal weights read the fit's distances
        fit = rc.Fit(baseball, rc.gibbs_hb(baseball, 2000, seed=4))
        passes = spy_distance_passes(monkeypatch)
        if box_first:
            box = fit.select("cartesian", 0.1)
            fit.distribution(box, rc.MAHALANOBIS_EXP)
            ellipse = fit.select("elliptical", 0.1)
        else:
            ellipse = fit.select("elliptical", 0.1)
            box = fit.select("cartesian", 0.1)
        for sel in (box, ellipse):
            fit.distribution(sel, rc.MAHALANOBIS_EXP)
        assert passes == [2000]
        assert np.array_equal(ellipse.indices, np.flatnonzero(fit.distances <= ellipse.ellip.cutoff))

    def test_draws_of_another_width_raise(self, baseball):
        ds = rc.Dataset([f"e{i}" for i in range(5)], baseball.y[:5], baseball.d[:5])
        with pytest.raises(rc.DomainError, match="draws of width 18 do not fit a dataset of m=5"):
            rc.Fit(ds, rc.gibbs_hb(baseball, 100, seed=1))

    def test_ub_dispersion_is_the_data(self, baseball, ub_draws, monkeypatch):
        def no_summary(draws):
            raise AssertionError("UB fit called summarize")

        monkeypatch.setattr(rc.posterior, "summarize", no_summary)
        fit = rc.Fit(baseball, ub_draws)
        fit.distribution(fit.select("elliptical", 0.1), rc.MAHALANOBIS_EXP)
        assert np.array_equal(fit.dispersion.center, baseball.y)
        assert np.array_equal(fit.dispersion.matrix, baseball.d)

    def test_ub_dispersion_peak_m1000(self):
        # the variances, with no m x m diag(d) (8 MB at m = 1000) and no factor
        m = 1000
        rng = np.random.default_rng(27)
        y, d = rng.standard_normal(m), rng.uniform(0.5, 2.0, m)
        ds = rc.Dataset([f"e{i}" for i in range(m)], y, d)
        fit = rc.Fit(ds, PosteriorDraws(theta=rng.standard_normal((10, m)), model="UB"))

        def dispersion_and_distances():
            return fit.dispersion.log_det, fit.dispersion.precision_diag, fit.distances

        _, peak = traced_peak(dispersion_and_distances)
        assert peak < 2**20

    def test_m_plus_one_draws_are_equidistant(self):
        # with 1/S normalization, S = m + 1 draws all lie at squared distance m
        # from their mean: no distance tells them apart, so no dispersion is built
        ds = rc.baseball_dataset()
        draws = rc.gibbs_hb(ds, 19, seed=1)
        summary = posterior.summarize(draws)
        distances = credset.Dispersion(summary.mean, summary.cov).distances(draws.theta)
        assert np.allclose(distances, 18.0, rtol=0, atol=1e-8)
        with pytest.raises(rc.DomainError, match=r"needs S > m \+ 1 draws: S=19, m=18"):
            rc.Fit(ds, draws).dispersion
        assert rc.Fit(ds, rc.gibbs_hb(ds, 20, seed=1)).dispersion.center.shape == (18,)

    def test_unknown_geometry(self, baseball, ub_draws):
        with pytest.raises(rc.DomainError, match="unknown geometry 'sphere'"):
            rc.Fit(baseball, ub_draws).select("sphere", 0.1)


class TestMarginals:
    def test_expected_rank_sums_to_total(self):
        sel, draws = toy_selection_and_draws(seed=5, m=6)
        dist = rankdist.build_distribution(sel, draws)
        total = sum(rc.expected_rank(dist, i) for i in range(6))
        assert total == pytest.approx(6 * 7 / 2, abs=1e-9)

    def test_marginal_is_column(self):
        sel, draws = toy_selection_and_draws(seed=6)
        dist = rankdist.build_distribution(sel, draws)
        for i in range(5):
            marg = rc.rank_marginal(dist, i)
            assert np.array_equal(marg, dist.probs[:, i])
            assert marg.sum() == pytest.approx(1.0, abs=DS_TOL)

    def test_out_of_range_entity(self):
        sel, draws = toy_selection_and_draws(seed=7)
        dist = rankdist.build_distribution(sel, draws)
        with pytest.raises(rc.DomainError):
            rc.rank_marginal(dist, 5)

    def test_well_separated_entities_concentrate(self):
        rng = np.random.default_rng(8)
        theta = rng.normal(loc=np.array([0.0, 10.0, 20.0]), scale=0.1, size=(500, 3))
        draws = PosteriorDraws(theta=theta, model="UB")
        sel = credset.cartesian_select(draws, alpha=0.1)
        dist = rankdist.build_distribution(sel, draws)
        assert np.allclose(np.diag(dist.probs), 1.0)
        assert rc.expected_rank(dist, 2) == pytest.approx(3.0)


class TestExactUbOracle:
    @pytest.mark.parametrize(
        "m, S, seed",
        [(18, 50_000, 0), (18, 50_000, 1), (18, 50_000, 2), (200, 20_000, 0), (200, 20_000, 1)],
    )
    def test_expected_ranks_match_closed_form(self, baseball, m, S, seed):
        # UB draws, every draw selected (round(S(1 - 0.4/S)) = S) and equal
        # weights: column i's mean rank estimates E[rank_i] with standard error
        # sqrt(Var(rank_i)/S), Var read off the same column.  A bound of 5 SE
        # on every entity fails a correct count with chance about 1e-4 at m = 200
        ds = baseball if m == 18 else wide_dataset(m, [seed, m])
        draws = rc.sample_ub(ds, S, seed)
        sel = credset.cartesian_select(draws, alpha=0.4 / S)
        assert sel.K == S
        probs = rankdist.build_distribution(sel, draws, rc.EQUAL).probs
        k = np.arange(1, m + 1)[:, None]
        mean = (k * probs).sum(axis=0)
        se = np.sqrt(((k - mean) ** 2 * probs).sum(axis=0) / S)
        z = (mean - ub_expected_rank(ds.y, ds.d)) / se
        assert np.abs(z).max() <= 5, np.abs(z).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_marginals_match_quadrature(self, baseball, seed):
        # every draw selected with equal weight: cell (k, i) counts the draws
        # that put entity i at rank k+1, a binomial share with standard error
        # sqrt(p(1-p)/S) about the quadrature's p; the largest |z| over the
        # 324 cells is 2.9, 2.7 and 3.2 for seeds 0, 1 and 2
        S = 50_000
        draws = rc.sample_ub(baseball, S, seed)
        sel = credset.cartesian_select(draws, alpha=0.4 / S)
        assert sel.K == S
        probs = rankdist.build_distribution(sel, draws, rc.EQUAL).probs
        exact = ub_rank_marginal(baseball.y, baseball.d)
        se = np.sqrt(exact * (1 - exact) / S)
        assert np.all(np.abs(probs - exact) <= 5 * se), np.abs((probs - exact) / se).max()
