"""Empirical (1-alpha) credible subsets of posterior draws.

Two geometries: a Cartesian product of per-coordinate quantile intervals
with the per-coordinate level kappa tuned so the joint count hits
S(1-alpha), and an elliptical (approximate HPD) set cut at the empirical
(1-alpha) quantile of Mahalanobis distances.
"""

from __future__ import annotations

import math
import warnings
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


def _sorted_quantile(cols: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(theta, q, axis=0, method="linear") read off `cols`, the
    columns of theta sorted ascending (m, S), by numpy's own float steps:
    index (S-1)q, and the lerp taken from the upper end when gamma >= 0.5."""
    v = (cols.shape[1] - 1) * q
    i = math.floor(v) if v < cols.shape[1] - 1 else -1  # numpy: gamma from -1 at the end
    a = cols[:, i]
    b = cols[:, i + 1] if i >= 0 else a
    diff, gamma = b - a, v - i
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def _place_extremes(theta: np.ndarray):
    """Per draw: its smallest and largest place (0-based) in the sorted columns."""
    S = len(theta)
    low, high, place = np.full(S, S), np.zeros(S, dtype=int), np.empty(S, dtype=int)
    for col in theta.T:
        place[np.argsort(col)] = np.arange(S)
        np.minimum(low, place, out=low)
        np.maximum(high, place, out=high)
    return low, high


def _count_inside(theta, cols, low, high, lo, hi) -> int:
    """K_J: draws with lo <= theta_s <= hi in every coordinate.

    With p the place of theta_sc in sorted column c (ties in any order),
    #(col_c < theta_sc) <= p < #(col_c <= theta_sc), so lo_c <= theta_sc <= hi_c
    iff #(col_c < lo_c) <= p < #(col_c <= hi_c).  Against the largest and
    smallest of these cut-offs a draw's place extremes settle it, except
    for the few between them, which are compared as floats.
    """
    lo_cut = np.array([np.searchsorted(col, v, "left") for col, v in zip(cols, lo)])
    hi_cut = np.array([np.searchsorted(col, v, "right") for col, v in zip(cols, hi)])
    sure = (low >= lo_cut.max()) & (high < hi_cut.min())
    rows = theta[(low >= lo_cut.min()) & (high < hi_cut.max()) & ~sure]
    return np.count_nonzero(sure) + np.count_nonzero(np.all((rows >= lo) & (rows <= hi), axis=1))


def tune_kappa(
    draws: PosteriorDraws,
    alpha: float,
    tol: int | None = None,
    max_iter: int = 60,
) -> float:
    """Bisection for the per-coordinate level kappa.

    The joint-inclusion count K_J(kappa) is non-increasing in kappa, so we
    bisect until it lands at most `tol` from round(S(1-alpha)).  Default
    tol = max(1, S/10000); K_J is a step function, exact attainment may be
    impossible.

    K_J counts the draws inside the box of type-7 quantiles at kappa/2 and
    1 - kappa/2, and equals the count under np.quantile(..., method="linear")
    exactly.  Each column is sorted once (`draws.sorted_columns`), so a step
    reads the box off the sorted columns, turns it into per-column rank
    cut-offs and counts the draws by their smallest and largest place in
    the sorted columns: O(m log S + S) per step.
    """
    _check_alpha(draws, alpha)
    theta = draws.theta
    S = draws.S
    target = round(S * (1 - alpha))
    if tol is None:
        tol = max(1, S // 10000)
    if tol < 0:
        raise DomainError(f"tol={tol} must be >= 0")
    if max_iter < 1:
        raise DomainError(f"max_iter={max_iter} must be >= 1")
    cols = draws.sorted_columns
    low, high = _place_extremes(theta)

    lo, hi = 0.0, 1.0 - 1e-12
    kappa = 1 - (1 - alpha) ** (1 / draws.m)  # independence initial guess
    best_kappa, best_err = kappa, np.inf
    for _ in range(max_iter):
        box = _sorted_quantile(cols, kappa / 2), _sorted_quantile(cols, 1 - kappa / 2)
        k_j = int(_count_inside(theta, cols, low, high, *box))
        err = abs(k_j - target)
        if err < best_err:
            best_kappa, best_err = kappa, err
        if err <= tol:
            return kappa
        if k_j > target:
            lo = kappa  # too many inside: widen kappa
        else:
            hi = kappa
        kappa = (lo + hi) / 2
    warnings.warn(
        f"kappa tuning: bisection exhausted after {max_iter} iterations; "
        f"best |K_J - target| = {best_err}",
        RuntimeWarning,
        stacklevel=2,
    )
    return best_kappa


def cartesian_select(
    draws: PosteriorDraws,
    alpha: float,
    tol: int | None = None,
    max_iter: int = 60,
) -> CredibleSelection:
    """Select draws inside the kappa-tuned product of quantile intervals."""
    kappa = tune_kappa(draws, alpha, tol=tol, max_iter=max_iter)
    theta, cols = draws.theta, draws.sorted_columns
    lo, hi = _sorted_quantile(cols, kappa / 2), _sorted_quantile(cols, 1 - kappa / 2)
    inside = np.all((theta >= lo) & (theta <= hi), axis=1)
    indices = np.flatnonzero(inside)
    if len(indices) == 0:
        raise DomainError("cartesian selection is empty; draws may be pathological")
    return CredibleSelection(
        indices=indices,
        alpha=alpha,
        geometry=CARTESIAN,
        cart=CartesianBounds(lower=lo, upper=hi, kappa=kappa),
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
    diff = np.asarray(theta, dtype=float) - np.asarray(center, dtype=float)
    cho = _cho_factor_spd(np.asarray(dispersion, dtype=float))
    return float(diff @ cho_solve(cho, diff))


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
