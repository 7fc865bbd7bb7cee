"""Empirical (1-alpha) credible subsets of posterior draws.

Two geometries: a Cartesian product of per-coordinate intervals between
order statistics, peeled from a symmetric start until it holds
round(S(1-alpha)) draws (kappa is the mean per-coordinate quantile level
of its sides), and an elliptical (approximate HPD) set cut at the empirical
(1-alpha) quantile of Mahalanobis distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import metrics
from .domain import DomainError, rank_span, row_blocks, sort_rows
from .posterior import PosteriorDraws

CARTESIAN = "cartesian"
ELLIPTICAL = "elliptical"

_JITTER = 1e-10


@dataclass(frozen=True)
class CartesianBounds:
    lower: np.ndarray  # (m,) a_i
    upper: np.ndarray  # (m,) b_i
    kappa: float
    indices: np.ndarray  # the draws inside the box, ascending

    @property
    def bounds(self) -> np.ndarray:  # (m, 2): [lower, upper] on each side
        return np.column_stack([self.lower, self.upper])


@dataclass(frozen=True)
class EllipticalGeometry:
    dispersion: Dispersion
    cutoff: float
    distances: np.ndarray  # (S,) Mahalanobis distance of every draw


@dataclass(frozen=True)
class CredibleSelection:
    indices: np.ndarray  # selected draw indices, subset of 0..S-1
    alpha: float
    cart: CartesianBounds | None = None  # the box that selected them,
    ellip: EllipticalGeometry | None = None  # or else the ellipse

    @property
    def K(self) -> int:
        return len(self.indices)

    @property
    def geometry(self) -> str:
        return CARTESIAN if self.cart is not None else ELLIPTICAL

    @cached_property
    def size(self) -> metrics.SizeReport:
        if self.cart is not None:
            return metrics.orthotope_size(self.cart.bounds)
        disp = self.ellip.dispersion
        return metrics.ellipse_size(disp.log_det, disp.precision_diag, self.ellip.cutoff)


def _check_alpha(draws: PosteriorDraws, alpha: float):
    if not 0 < alpha < 1:
        raise DomainError(f"alpha={alpha} must be in (0, 1)")
    if draws.S * (1 - alpha) < 1:
        raise DomainError(f"S(1-alpha) = {draws.S * (1 - alpha):.3g} < 1: no draw to select")


def tune_kappa(draws: PosteriorDraws, alpha: float) -> CartesianBounds:
    """The Cartesian box holding round(S(1-alpha)) draws, its sides read off
    the order statistics col_c[0] <= ... <= col_c[S-1] of each coordinate,
    each read through the coordinate's sort order: no sorted copy is made.

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
    order, tied = sort_rows(values, np.min_scalar_type(S - 1))  # smallest dtype holding S - 1
    depth, col_depth = np.full(S, S), np.empty(S, dtype=int)
    place_depth = np.minimum(np.arange(1, S + 1), np.arange(S, 0, -1))  # tie-free depths
    for c, col in enumerate(values):
        if not tied[c]:
            col_depth[order[c]] = place_depth
        else:
            # a draw of ranks lo..hi (its tie run) has #(col <= v) = hi, #(col >= v) = S + 1 - lo
            lo, hi = rank_span(col)
            np.minimum(hi, S + 1 - lo, out=col_depth)
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
        side_value = values[c, order[c, i]]
        out = inside & (values[c] < side_value if side == 0 else values[c] > side_value)
        n = np.count_nonzero(out)
        if K - n < target:
            break
        inside &= ~out
        K -= n
        cut[c, side] = i

    rows = np.arange(m)
    kappa = float(np.mean(cut[:, 0] + S - 1 - cut[:, 1])) / (S - 1)
    lower, upper = values[rows, order[rows, cut[:, 0]]], values[rows, order[rows, cut[:, 1]]]
    return CartesianBounds(lower, upper, kappa, indices=np.flatnonzero(inside))


def cartesian_select(draws: PosteriorDraws, alpha: float) -> CredibleSelection:
    """Select the draws inside the box of `tune_kappa`: round(S(1-alpha)) of
    them when no coordinate has tied draws, otherwise at least that many."""
    bounds = tune_kappa(draws, alpha)
    return CredibleSelection(indices=bounds.indices, alpha=alpha, cart=bounds)


def _cho_factor_spd(dispersion: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of L L' = dispersion, jittered if singular."""
    try:
        return np.linalg.cholesky(dispersion)
    except np.linalg.LinAlgError:
        jitter = _JITTER * float(np.mean(np.diag(dispersion)))
        try:
            return np.linalg.cholesky(dispersion + jitter * np.eye(len(dispersion)))
        except np.linalg.LinAlgError:
            raise DomainError("dispersion matrix is not positive definite (even after jitter)")


@dataclass(frozen=True)
class Dispersion:
    """A center and dispersion matrix for Mahalanobis distances.  A positive,
    exactly diagonal matrix keeps its variances (`_chol` is None); any other
    is factored once, on first use, as L L' (Cholesky, jittered if singular),
    and L^-1 is formed once from that factor."""

    center: np.ndarray  # (m,)
    matrix: np.ndarray  # (m, m) SPD

    def __post_init__(self):
        # the factor takes NaN and inf without complaint, so check them here
        center = np.asarray(self.center, dtype=float)
        matrix = np.asarray(self.matrix, dtype=float)
        if center.ndim != 1 or matrix.shape != (len(center), len(center)):
            shapes = f"{center.shape} and {matrix.shape}"
            raise DomainError(f"dispersion: shapes {shapes} are not (m,) and (m, m)")
        for name, array in (("center", center), ("matrix", matrix)):
            bad = np.argwhere(~np.isfinite(array))
            if len(bad):
                entry, value = ", ".join(map(str, bad[0])), array[tuple(bad[0])]
                raise DomainError(f"dispersion {name}[{entry}] is not finite: {value}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _chol(self) -> np.ndarray | None:
        var = np.diagonal(self.matrix)
        if np.all(var > 0) and np.array_equal(self.matrix, np.diag(var)):
            return None
        return _cho_factor_spd(self.matrix)

    @cached_property
    def _chol_inv(self) -> np.ndarray:
        return np.linalg.inv(self._chol)

    def distances(self, thetas: np.ndarray) -> np.ndarray:
        """Squared distances ||L^-1 (theta - center)||^2 of the rows of `thetas`;
        L = diag(sqrt(var)) scales each coordinate by 1/sqrt(var).  Computed
        per block of rows, so the temporaries are a block's, not a copy of
        `thetas`."""
        out = np.empty(len(thetas))
        scale = 1.0 / np.sqrt(np.diagonal(self.matrix)) if self._chol is None else None
        for rows in row_blocks(*thetas.shape):
            diff = thetas[rows] - self.center
            if scale is not None:
                diff *= scale
                np.einsum("si,si->s", diff, diff, out=out[rows])
            else:
                z = self._chol_inv @ diff.T
                np.einsum("is,is->s", z, z, out=out[rows])
        return out

    @property
    def log_det(self) -> float:
        """log det of the matrix as factored (jitter included)."""
        if self._chol is None:
            return float(np.sum(np.log(np.diagonal(self.matrix))))
        return 2.0 * float(np.sum(np.log(np.diagonal(self._chol))))

    @property
    def precision_diag(self) -> np.ndarray:
        """Diagonal of the inverse matrix: the column sums of squares of L^-1."""
        if self._chol is None:
            return 1.0 / np.diagonal(self.matrix)
        return np.einsum("ij,ij->j", self._chol_inv, self._chol_inv)


def elliptical_select(
    draws: PosteriorDraws, dispersion: Dispersion, alpha: float
) -> CredibleSelection:
    """Select draws whose Mahalanobis distance is at most the empirical
    (1-alpha) quantile cutoff (ties at the cutoff are included)."""
    _check_alpha(draws, alpha)
    distances = dispersion.distances(draws.theta)
    cutoff = float(np.quantile(distances, 1 - alpha, method="linear"))
    indices = np.flatnonzero(distances <= cutoff)
    return CredibleSelection(
        indices=indices,
        alpha=alpha,
        ellip=EllipticalGeometry(dispersion=dispersion, cutoff=cutoff, distances=distances),
    )
