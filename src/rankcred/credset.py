"""Empirical (1-alpha) credible subsets of posterior draws.

Two geometries: a Cartesian product of per-coordinate intervals between
order statistics, peeled from a symmetric start until it holds
round(S(1-alpha)) draws (kappa is the mean per-coordinate quantile level
of its sides), and an elliptical (approximate HPD) set cut at the empirical
(1-alpha) quantile of Mahalanobis distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .domain import DomainError
from .posterior import PosteriorDraws

CARTESIAN = "cartesian"
ELLIPTICAL = "elliptical"

_JITTER = 1e-10


@dataclass(frozen=True)
class CartesianBounds:
    lower: np.ndarray  # (m,) a_i
    upper: np.ndarray  # (m,) b_i
    kappa: float


@dataclass(frozen=True)
class EllipticalGeometry:
    center: np.ndarray  # (m,)
    dispersion: np.ndarray  # (m, m) SPD
    cutoff: float
    distances: np.ndarray  # (S,) Mahalanobis distance of every draw


@dataclass(frozen=True)
class CredibleSelection:
    indices: np.ndarray  # selected draw indices, subset of 0..S-1
    alpha: float
    geometry: str
    cart: CartesianBounds | None = None
    ellip: EllipticalGeometry | None = None

    @property
    def K(self) -> int:
        return len(self.indices)


def _check_alpha(draws: PosteriorDraws, alpha: float):
    if not 0 < alpha < 1:
        raise DomainError(f"alpha={alpha} must be in (0, 1)")
    if draws.S * (1 - alpha) < 1:
        raise DomainError(f"S(1-alpha) = {draws.S * (1 - alpha):.3g} < 1: no draw to select")


def tune_kappa(draws: PosteriorDraws, alpha: float) -> CartesianBounds:
    """The Cartesian box holding round(S(1-alpha)) draws, its sides read off
    the order statistics col_c[0] <= ... <= col_c[S-1] of each coordinate.

    Depth.  Draw s has depth min over c of min(#(col_c <= theta_sc),
    #(col_c >= theta_sc)), counted with ties, and lies in the symmetric box
    [col_c[k], col_c[S-1-k]] in every coordinate exactly when its depth is
    greater than k.  The box starts at the largest such k that holds at least
    the target count: the target-th largest depth minus one, capped at
    (S-1)//2 so that no side passes the other.

    Peel.  The sides then move inward one order statistic at a time,
    round-robin (c=0 lower, c=0 upper, c=1 lower, ...), and every draw whose
    value leaves the box goes with the step.  Peeling stops when the count K
    equals the target, or just before a step would take K below it or move a
    side past the other.  Without ties a step removes at most one draw, so K
    equals the target; with ties K is the first count reached at or above it.

    kappa is the type-7 quantile level of the final sides: with lo_c and
    S-1-hi_c order statistics peeled off below and above coordinate c,
    kappa = mean_c(lo_c + S-1-hi_c) / (S-1).
    """
    _check_alpha(draws, alpha)
    S, m = draws.S, draws.m
    target = round(S * (1 - alpha))
    values = np.ascontiguousarray(draws.theta.T)  # (m, S), row c = coordinate c
    cols = np.empty((m, S))  # row c sorted ascending
    depth, col_depth = np.full(S, S), np.empty(S, dtype=int)
    for c, col in enumerate(values):
        order = np.argsort(col)
        cols[c] = v = col[order]
        # tie run r of the sorted column spans places starts[r]..starts[r+1]-1; each of
        # its draws has #(col <= v) = starts[r+1] and #(col >= v) = S - starts[r]
        starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1], True])
        col_depth[order] = np.repeat(np.minimum(starts[1:], S - starts[:-1]), np.diff(starts))
        np.minimum(depth, col_depth, out=depth)

    k = min(int(np.partition(depth, S - target)[S - target]) - 1, (S - 1) // 2)
    cut = np.array([[k, S - 1 - k]] * m)  # (m, 2): index of the lower and upper side
    inside = depth > k
    K = np.count_nonzero(inside)
    step = 0
    while K > target:
        c, side = divmod(step % (2 * m), 2)
        step += 1
        if cut[c, 0] == cut[c, 1]:
            break
        i = cut[c, side] + (1 if side == 0 else -1)
        out = inside & (values[c] < cols[c, i] if side == 0 else values[c] > cols[c, i])
        n = np.count_nonzero(out)
        if K - n < target:
            break
        inside &= ~out
        K -= n
        cut[c, side] = i

    rows = np.arange(m)
    kappa = float(np.mean(cut[:, 0] + S - 1 - cut[:, 1])) / (S - 1)
    return CartesianBounds(lower=cols[rows, cut[:, 0]], upper=cols[rows, cut[:, 1]], kappa=kappa)


def cartesian_select(draws: PosteriorDraws, alpha: float) -> CredibleSelection:
    """Select the draws inside the box of `tune_kappa`: round(S(1-alpha)) of
    them when no coordinate has tied draws, otherwise at least that many."""
    bounds = tune_kappa(draws, alpha)
    theta = draws.theta
    inside = np.all((theta >= bounds.lower) & (theta <= bounds.upper), axis=1)
    return CredibleSelection(
        indices=np.flatnonzero(inside), alpha=alpha, geometry=CARTESIAN, cart=bounds
    )


def _cho_factor_spd(dispersion: np.ndarray):
    try:
        return cho_factor(dispersion, lower=True)
    except np.linalg.LinAlgError:
        jitter = _JITTER * float(np.mean(np.diag(dispersion)))
        try:
            return cho_factor(dispersion + jitter * np.eye(len(dispersion)), lower=True)
        except np.linalg.LinAlgError:
            raise DomainError("dispersion matrix is not positive definite (even after jitter)")


def mahalanobis(theta, center, dispersion) -> float:
    """Squared Mahalanobis distance (theta-center)' dispersion^-1 (theta-center)."""
    return float(mahalanobis_many(np.asarray(theta, dtype=float)[None, :], center, dispersion)[0])


def mahalanobis_many(thetas: np.ndarray, center, dispersion) -> np.ndarray:
    """Squared Mahalanobis distances for every row of `thetas`."""
    diff = thetas - np.asarray(center, dtype=float)
    cho = _cho_factor_spd(np.asarray(dispersion, dtype=float))
    return np.einsum("si,is->s", diff, cho_solve(cho, diff.T))


def elliptical_select(
    draws: PosteriorDraws,
    center,
    dispersion,
    alpha: float,
) -> CredibleSelection:
    """Select draws whose Mahalanobis distance is at most the empirical
    (1-alpha) quantile cutoff (ties at the cutoff are included)."""
    _check_alpha(draws, alpha)
    center = np.asarray(center, dtype=float)
    dispersion = np.asarray(dispersion, dtype=float)
    distances = mahalanobis_many(draws.theta, center, dispersion)
    cutoff = float(np.quantile(distances, 1 - alpha, method="linear"))
    indices = np.flatnonzero(distances <= cutoff)
    return CredibleSelection(
        indices=indices,
        alpha=alpha,
        geometry=ELLIPTICAL,
        ellip=EllipticalGeometry(
            center=center, dispersion=dispersion, cutoff=cutoff, distances=distances
        ),
    )
