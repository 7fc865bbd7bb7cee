import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

import rankcred as rc
from rankcred import credset
from rankcred.metrics import log_ellipse_volume


def ellipse(K):
    """The ellipse {x : x' K x <= c} as a Dispersion: center 0, matrix K^-1."""
    return credset.Dispersion(np.zeros(len(K)), np.linalg.inv(K))


def ellipse_volume(K, c):
    """Volume of {x : x' K x <= c} as its SizeReport gives it."""
    e = ellipse(K)
    return rc.ellipse_size(e.log_det, e.precision_diag, c).volume


class TestOrthotopeSize:
    def test_unit_square(self):
        rep = rc.orthotope_size([[0.0, 1.0], [0.0, 1.0]])
        assert rep.volume == 1.0
        assert rep.vol_mth_root == 1.0
        assert rep.avg_length == 1.0

    def test_rectangle(self):
        rep = rc.orthotope_size([[0.0, 2.0], [1.0, 1.5], [-3.0, 1.0]])
        assert rep.volume == pytest.approx(2.0 * 0.5 * 4.0)
        assert rep.vol_mth_root == pytest.approx(4.0 ** (1 / 3))
        assert rep.avg_length == pytest.approx((2.0 + 0.5 + 4.0) / 3)
        assert np.allclose(rep.per_side_lengths, [2.0, 0.5, 4.0])

    def test_degenerate_side(self):
        rep = rc.orthotope_size([[0.0, 0.0], [0.0, 5.0]])
        assert rep.volume == 0.0
        assert rep.vol_mth_root == 0.0
        assert rep.avg_length == 2.5

    @pytest.mark.parametrize(
        "sides, reported",
        [
            ([2.0, 0.5], 1.0),
            ([0.0, 5.0], 0.0),  # log_volume is None: null, never -Infinity
            ([1e-160, 1e-160], None),  # 1e-320 is subnormal
            ([0.01] * 500, None),  # underflows to 0.0
            ([1e3] * 120, None),  # overflows
        ],
    )
    def test_reported_volume(self, sides, reported):
        # the volume is given only where a normal double holds it
        rep = rc.orthotope_size(np.column_stack([np.zeros(len(sides)), sides]))
        assert (rep.log_volume is None) == (0.0 in sides)
        assert rep.volume == reported

    def test_inverted_bounds_rejected(self):
        with pytest.raises(rc.DomainError):
            rc.orthotope_size([[1.0, 0.0]])

    def test_high_dimensional_underflow(self):
        # 500 sides of length 0.01: volume underflows but the root survives
        bounds = np.column_stack([np.zeros(500), np.full(500, 0.01)])
        rep = rc.orthotope_size(bounds)
        assert rep.volume is None  # 1e-1000: log_volume holds it
        assert rep.log_volume == pytest.approx(500 * math.log(0.01))
        assert rep.vol_mth_root == pytest.approx(0.01)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5000),
        lo=st.floats(-3.0, 3.0),
        hi=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=5000, lo=3.0, hi=3.0, seed=0)  # volume 1e15000 overflows
    @example(m=5000, lo=-3.0, hi=-3.0, seed=0)  # volume 1e-15000 underflows
    def test_log_volume_of_any_box(self, m, lo, hi, seed):
        # side lengths 1e-3..1e3: the log volume is the sum of the log
        # lengths wherever exp of it leaves the range of a double
        lengths = 10.0 ** np.random.default_rng(seed).uniform(min(lo, hi), max(lo, hi), m)
        rep = rc.orthotope_size(np.column_stack([np.zeros(m), lengths]))
        assert rep.log_volume == pytest.approx(math.fsum(map(math.log, lengths)), rel=0, abs=1e-9)
        assert 0 < rep.vol_mth_root < math.inf
        in_range = math.log(sys.float_info.min) < rep.log_volume < math.log(sys.float_info.max)
        assert (rep.volume is None) == (not in_range)


class TestEllipseVolume:
    def test_unit_disk(self):
        assert ellipse_volume(np.eye(2), 1.0) == pytest.approx(np.pi)

    def test_unit_ball_3d(self):
        assert ellipse_volume(np.eye(3), 1.0) == pytest.approx(4 * np.pi / 3)

    def test_diagonal_example(self):
        # {x'Kx <= 1} with K = diag(4, 9) is the ellipse with semi-axes
        # 1/2 and 1/3, area pi/6
        assert ellipse_volume(np.diag([4.0, 9.0]), 1.0) == pytest.approx(np.pi / 6)

    def test_cutoff_scaling(self):
        # volume scales as c^(m/2)
        base = ellipse_volume(np.eye(3), 1.0)
        assert ellipse_volume(np.eye(3), 4.0) == pytest.approx(8 * base)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        Q, _ = np.linalg.qr(A)
        K = np.diag([1.0, 2.0, 3.0, 4.0])
        assert ellipse_volume(Q @ K @ Q.T, 2.5) == pytest.approx(ellipse_volume(K, 2.5))

    def test_monte_carlo_check(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((2, 2))
        K = B @ B.T + np.eye(2)
        c = 1.7
        pts = rng.uniform(-3, 3, size=(200000, 2))
        inside = np.einsum("si,ij,sj->s", pts, K, pts) <= c
        mc = inside.mean() * 36.0
        assert ellipse_volume(K, c) == pytest.approx(mc, rel=0.03)

    def test_log_volume_survives_large_m(self):
        m = 300
        lv = log_ellipse_volume(ellipse(np.eye(m)).log_det, m, stats.chi2.ppf(0.9, m))
        assert np.isfinite(lv)

    def test_bad_inputs(self):
        with pytest.raises(rc.DomainError, match="cutoff"):
            ellipse_volume(np.eye(2), 0.0)
        with pytest.raises(rc.DomainError):
            ellipse_volume(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


class TestEllipseLengths:
    def test_beta_constant(self):
        # B(1/2, 19/2) for m = 18
        e = ellipse(np.eye(18))
        l_r, _, _ = rc.ellipse_lengths(e.log_det, e.precision_diag, 1.0)
        assert np.allclose(l_r, special.beta(0.5, 9.5))
        assert special.beta(0.5, 9.5) == pytest.approx(0.5827, abs=5e-4)

    def test_product_of_calibrated_equals_volume(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((5, 5))
        K = B @ B.T + np.eye(5)
        c = 3.0
        e = ellipse(K)
        _, l_m, _ = rc.ellipse_lengths(e.log_det, e.precision_diag, c)
        volume = math.exp(log_ellipse_volume(e.log_det, 5, c))
        assert np.prod(l_m) == pytest.approx(volume, rel=1e-10)

    def test_sphere_lengths_equal(self):
        e = ellipse(np.eye(3))
        l_r, l_m, l_e = rc.ellipse_lengths(e.log_det, e.precision_diag, 2.0)
        assert np.allclose(l_r, l_r[0])
        assert np.allclose(l_m, l_m[0])
        assert l_e == pytest.approx(l_m[0])

    def test_lengths_scale_with_axis(self):
        # doubling K_ii halves the representative length of side i
        K = np.diag([1.0, 4.0])
        e = ellipse(K)
        l_r, _, _ = rc.ellipse_lengths(e.log_det, e.precision_diag, 1.0)
        assert l_r[0] == pytest.approx(2 * l_r[1])

    def test_size_report(self):
        e = ellipse(np.eye(2))
        rep = rc.ellipse_size(e.log_det, e.precision_diag, 1.0)
        assert rep.volume == pytest.approx(np.pi)
        assert np.prod(rep.per_side_lengths) == pytest.approx(np.pi, rel=1e-10)


class TestDeviations:
    def test_point_mass(self):
        marg = np.zeros(5)
        marg[2] = 1.0  # rank 3
        assert rc.expected_abs_deviation(marg, 3.0) == 0.0
        assert rc.expected_abs_deviation(marg, 1.0) == 2.0

    def test_uniform_marginal(self):
        marg = np.full(4, 0.25)
        # |1-2.5|, |2-2.5|, |3-2.5|, |4-2.5| -> mean 1.0
        assert rc.expected_abs_deviation(marg, 2.5) == pytest.approx(1.0)

    def test_midrank_target(self):
        marg = np.array([0.5, 0.5, 0.0])
        assert rc.expected_abs_deviation(marg, 1.5) == pytest.approx(0.5)

    def test_unnormalized_rejected(self):
        with pytest.raises(rc.DomainError):
            rc.expected_abs_deviation([0.5, 0.4], 1.0)

    def test_lipschitz_in_xi(self):
        rng = np.random.default_rng(3)
        marg = rng.dirichlet(np.ones(6))
        a = rc.expected_abs_deviation(marg, 2.0)
        b = rc.expected_abs_deviation(marg, 2.7)
        assert abs(a - b) <= 0.7 + 1e-12

    def test_kww_deviation_single_rank(self):
        assert rc.kww_abs_deviation(3, 3, 3.0) == 0.0
        assert rc.kww_abs_deviation(3, 3, 1.0) == 2.0

    def test_kww_deviation_range(self):
        # j = 1..4 vs xi = 2: |1-2|+|2-2|+|3-2|+|4-2| = 4 -> mean 1.0
        assert rc.kww_abs_deviation(1, 4, 2.0) == pytest.approx(1.0)

    def test_kww_closed_form(self):
        # for xi inside the range the sum splits into two triangular tails
        lo, hi, xi = 2, 9, 5.0
        j = np.arange(lo, hi + 1)
        assert rc.kww_abs_deviation(lo, hi, xi) == pytest.approx(
            np.abs(j - xi).mean()
        )

    def test_kww_invalid_range(self):
        with pytest.raises(rc.DomainError):
            rc.kww_abs_deviation(4, 2, 1.0)


    def test_whole_matrix_matches_per_entity_loop(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(6), size=6).T  # column i: entity i's marginal
        xi = rc.rank_of([0.3, 0.1, 0.3, 0.9, 0.5, 0.2])  # midranks 3.5, 3.5
        assert 3.5 in xi
        got = rc.expected_abs_deviation(probs, xi)
        loop = [sum(abs(k + 1 - xi[i]) * probs[k, i] for k in range(6)) for i in range(6)]
        assert got.shape == (6,)
        assert np.allclose(got, loop, rtol=1e-14, atol=0)

    def test_whole_matrix_names_unnormalized_column(self):
        probs = np.full((3, 4), 1 / 3)
        probs[0, 2] = 0.5
        with pytest.raises(rc.DomainError, match="column 2 sums to"):
            rc.expected_abs_deviation(probs, np.array([1.0, 2.0, 3.0, 2.0]))
        probs[0, 2] = 1 / 3
        probs[1, 3] = np.nan
        with pytest.raises(rc.DomainError, match="column 3 sums to nan"):
            rc.expected_abs_deviation(probs, np.array([1.0, 2.0, 3.0, 2.0]))

    def test_kww_ranges_match_per_entity_loop(self):
        lo = np.array([1, 2, 1, 5, 3])
        hi = np.array([3, 2, 5, 5, 4])
        xi = np.array([2.5, 1.0, 4.0, 5.0, 3.5])
        got = rc.kww_abs_deviation(lo, hi, xi)
        loop = [np.mean([abs(j - x) for j in range(a, b + 1)]) for a, b, x in zip(lo, hi, xi)]
        assert np.array_equal(got, loop)

    def test_kww_ranges_name_inverted_entity(self):
        with pytest.raises(rc.DomainError, match="entity 1"):
            rc.kww_abs_deviation(np.array([1, 4]), np.array([2, 3]), np.array([1.0, 2.0]))


class TestTese:
    def test_zero_when_equal(self):
        assert rc.tese([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_example(self):
        assert rc.tese([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == pytest.approx(14.0)

    def test_shape_mismatch(self):
        with pytest.raises(rc.DomainError):
            rc.tese([1.0], [1.0, 2.0])
