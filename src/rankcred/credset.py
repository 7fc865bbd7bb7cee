"""Empirical (1-alpha) credible subsets of posterior draws.

Two geometries: a Cartesian product of per-coordinate quantile intervals
with the per-coordinate level kappa tuned so the joint count hits
S(1-alpha), and an elliptical (approximate HPD) set cut at the empirical
(1-alpha) quantile of Mahalanobis distances.
"""

from __future__ import annotations

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


def _quantile(a, q, axis=None):
    # linear interpolation between order statistics ("type 7"), pinned
    return np.quantile(a, q, axis=axis, method="linear")


def _check_alpha(draws: PosteriorDraws, alpha: float):
    if not 0 < alpha < 1:
        raise DomainError(f"alpha={alpha} must be in (0, 1)")
    if draws.S * (1 - alpha) < 1:
        raise DomainError(f"S(1-alpha) = {draws.S * (1 - alpha):.3g} < 1: no draw to select")


def _joint_inside(theta: np.ndarray, kappa: float) -> np.ndarray:
    lo = _quantile(theta, kappa / 2, axis=0)
    hi = _quantile(theta, 1 - kappa / 2, axis=0)
    return np.all((theta >= lo) & (theta <= hi), axis=1)


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
    """
    _check_alpha(draws, alpha)
    theta = draws.theta
    S = draws.S
    target = round(S * (1 - alpha))
    if tol is None:
        tol = max(1, S // 10000)

    lo, hi = 0.0, 1.0 - 1e-12
    kappa = 1 - (1 - alpha) ** (1 / draws.m)  # independence initial guess
    best_kappa, best_err = kappa, np.inf
    for _ in range(max_iter):
        k_j = int(np.count_nonzero(_joint_inside(theta, kappa)))
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
    theta = draws.theta
    lo = _quantile(theta, kappa / 2, axis=0)
    hi = _quantile(theta, 1 - kappa / 2, axis=0)
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
    cutoff = float(_quantile(distances, 1 - alpha))
    indices = np.flatnonzero(distances <= cutoff)
    return CredibleSelection(
        indices=indices,
        alpha=alpha,
        geometry=ELLIPTICAL,
        ellip=EllipticalGeometry(
            center=center, dispersion=dispersion, cutoff=cutoff, distances=distances
        ),
    )
