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
from .domain import DomainError, row_blocks
from .posterior import PosteriorDraws

CARTESIAN = "cartesian"
ELLIPTICAL = "elliptical"

_SYMMETRY_TOL = 1e-10  # |a_ij - a_ji| allowed for rounding, relative to the largest |a_ij|

# values per column in the sample that places the tail thresholds of the box
_TAIL_SAMPLE = 4096


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
    the order statistics col_c[0] <= ... <= col_c[S-1] of each coordinate
    (a stable sort: tied draws in index order, -0.0 tying 0.0).

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

    Tails.  Only the two ends of each column are sorted (`_tail_box`).  The
    thresholds that bound them come from a strided, sorted sample of about
    _TAIL_SAMPLE values per column, placed for about 1.5 (S-target+1)/m + m
    draws per tail; when an attempt cannot settle the box the tails double,
    up to whole columns, where no attempt fails.  The thresholds change only
    how much is sorted, never the box.
    """
    _check_alpha(draws, alpha)
    S, m = draws.S, draws.m
    target = round(S * (1 - alpha))
    sample = np.sort(draws.theta[:: max(1, S // _TAIL_SAMPLE)], axis=0)
    n = 1.5 * (S - target + 1) / m + m  # draws per tail
    while True:
        j = int(n / S * len(sample))
        if 2 * j + 1 >= len(sample):  # whole columns: the attempt settles the box
            return _tail_box(draws.theta, target, np.full(m, np.inf), np.full(m, -np.inf))
        box = _tail_box(draws.theta, target, sample[j], sample[-1 - j])
        if box is not None:
            return box
        n *= 2


def _tail_box(theta: np.ndarray, target: int, below, above) -> CartesianBounds | None:
    """The box of `tune_kappa` from the tails of each column: tail c holds the
    draws with theta_sc <= below[c], tail m + c those with theta_sc >= above[c],
    so tail c holds col_c[0..size-1] and tail m + c col_c[S-size..S-1].

    A draw strictly between the thresholds of c has more than size draws at
    or below it and at or above it, so its depth exceeds the smallest tail
    size T; a draw in a tail gets its exact count there.  The box is settled
    when at least S - target + 1 draws have depth <= T (the target-th largest
    depth is then exact) and every order statistic that the peel and the
    sides read lies in its tail.  Returns None when it is not."""
    S, m = theta.shape
    cells = [np.flatnonzero(theta <= below), np.flatnonzero(theta >= above)]  # s * m + c
    draw, column = np.divmod(np.concatenate(cells), m)
    value = theta[draw, column]
    # one or two bytes up to m = 32,768, so the stable sort is a radix sort
    tail = column.astype(np.min_scalar_type(2 * m - 1))
    tail[len(cells[0]) :] += m
    # by tail, then value: an unstable sort by value, then a stable one by tail
    order = np.argsort(value)
    order = order[np.argsort(tail[order], kind="stable")]
    draw, tail, value = draw[order], tail[order], value[order]
    new_run = np.r_[True, (tail[1:] != tail[:-1]) | (value[1:] != value[:-1])]
    if not new_run.all():  # tied values: put each tie run in draw order
        order = np.lexsort((draw, value, tail))
        draw, tail, value = draw[order], tail[order], value[order]
    size = np.bincount(tail, minlength=2 * m)
    start = np.cumsum(size) - size
    # order statistic index of column c = place in the sorted tails + shift
    shift = np.where(np.arange(2 * m) < m, 0, S - size) - start
    # tie runs of the sorted tails: places first..last
    runs = np.flatnonzero(new_run)
    lengths = np.diff(np.r_[runs, len(tail)])
    first, last = np.repeat(runs, lengths), np.repeat(runs + lengths - 1, lengths)
    # order statistics lo..hi: #(col <= v) = hi + 1, #(col >= v) = S - lo
    at = shift[tail]
    depth = np.full(S, S)
    np.minimum.at(depth, draw, np.minimum(last + at + 1, S - first - at))
    if np.count_nonzero(depth <= size.min()) < S - target + 1:
        return None

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
        t = c + side * m
        place, end = i - shift[t], start[t] + size[t]
        if not start[t] <= place < end:
            return None
        # the draws below (above) the tie run of the new side leave the box
        out = draw[start[t] : first[place]] if side == 0 else draw[last[place] + 1 : end]
        n = np.count_nonzero(inside[out])
        if K - n < target:
            break
        inside[out] = False
        K -= n
        cut[c, side] = i

    kappa = float(np.mean(cut[:, 0] + S - 1 - cut[:, 1])) / (S - 1)
    lower, upper = value[cut[:, 0] - shift[:m]], value[cut[:, 1] - shift[m:]]
    return CartesianBounds(lower, upper, kappa, indices=np.flatnonzero(inside))


def cartesian_select(draws: PosteriorDraws, alpha: float) -> CredibleSelection:
    """Select the draws inside the box of `tune_kappa`: round(S(1-alpha)) of
    them when no coordinate has tied draws, otherwise at least that many."""
    bounds = tune_kappa(draws, alpha)
    return CredibleSelection(indices=bounds.indices, alpha=alpha, cart=bounds)


def _cho_factor_spd(dispersion: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of L L' = dispersion, from one attempt: a
    singular or indefinite dispersion raises."""
    try:
        return np.linalg.cholesky(dispersion)
    except np.linalg.LinAlgError:
        raise DomainError("dispersion matrix is not positive definite")


@dataclass(frozen=True)
class Dispersion:
    """A center and dispersion for Mahalanobis distances.  `matrix` is either
    (m,) positive variances, which scale each coordinate by 1/sqrt(var), or
    an (m, m) symmetric positive definite matrix, factored once, on first
    use, as L L' (Cholesky, which refuses a matrix that is not positive
    definite), with L^-1 formed once from that factor; its shape chooses the
    path."""

    center: np.ndarray  # (m,)
    matrix: np.ndarray  # (m,) variances or (m, m) SPD

    def __post_init__(self):
        # the factor takes NaN and inf without complaint, so check them here
        center = np.asarray(self.center, dtype=float)
        matrix = np.asarray(self.matrix, dtype=float)
        m = len(center) if center.ndim == 1 else -1
        if matrix.shape not in ((m,), (m, m)):
            shapes = f"{center.shape} and {matrix.shape}"
            raise DomainError(f"dispersion: shapes {shapes} are not (m,) and (m,) or (m, m)")
        kind = "variances" if matrix.ndim == 1 else "matrix"
        for name, array in (("center", center), (kind, matrix)):
            bad = np.argwhere(~np.isfinite(array))
            if len(bad):
                entry, value = ", ".join(map(str, bad[0])), array[tuple(bad[0])]
                raise DomainError(f"dispersion {name}[{entry}] is not finite: {value}")
        if matrix.ndim == 1 and (matrix <= 0).any():
            i = int(np.argmax(matrix <= 0))
            raise DomainError(f"dispersion variances[{i}] = {matrix[i]} must be > 0")
        # the factor reads only the lower triangle, so an upper one unlike it
        # would go unseen; variances are their own transpose
        gap = matrix - matrix.T  # the one m x m temporary
        top = max(matrix.max(initial=0.0), -matrix.min(initial=0.0))
        asymmetric = np.argwhere(np.abs(gap, out=gap) > _SYMMETRY_TOL * top)
        if len(asymmetric):
            i, j = asymmetric[0]
            raise DomainError(
                f"dispersion matrix[{i}, {j}] = {matrix[i, j]} but matrix[{j}, {i}] = "
                f"{matrix[j, i]}: not symmetric"
            )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _chol(self) -> np.ndarray:
        return _cho_factor_spd(self.matrix)

    @cached_property
    def _chol_inv(self) -> np.ndarray:
        return np.linalg.inv(self._chol)

    def distances(self, thetas: np.ndarray) -> np.ndarray:
        """Squared distances ||L^-1 (theta - center)||^2 of the rows of `thetas`,
        L = diag(sqrt(var)) for variances, computed per block of rows: the
        temporaries are a block's, not a copy of `thetas`."""
        if np.shape(thetas)[1:] != self.center.shape:
            m = len(self.center)
            raise DomainError(f"draws of shape {np.shape(thetas)} do not fit a dispersion of m={m}")
        out = np.empty(len(thetas))
        scale = 1.0 / np.sqrt(self.matrix) if self.matrix.ndim == 1 else None
        for block in row_blocks(len(thetas), thetas.shape[1]):
            diff = thetas[block] - self.center
            if scale is not None:
                diff *= scale
                np.einsum("si,si->s", diff, diff, out=out[block])
            else:
                z = self._chol_inv @ diff.T
                np.einsum("is,is->s", z, z, out=out[block])
        return out

    @property
    def log_det(self) -> float:
        """log det of the dispersion: the sum of log variances, or twice that of diag L."""
        if self.matrix.ndim == 1:
            return float(np.sum(np.log(self.matrix)))
        return 2.0 * float(np.sum(np.log(np.diagonal(self._chol))))

    @property
    def precision_diag(self) -> np.ndarray:
        """Diagonal of the inverse dispersion: 1/var, or the column sums of squares of L^-1."""
        if self.matrix.ndim == 1:
            return 1.0 / self.matrix
        return np.einsum("ij,ij->j", self._chol_inv, self._chol_inv)


def elliptical_select(
    draws: PosteriorDraws, dispersion: Dispersion, alpha: float, distances: np.ndarray
) -> CredibleSelection:
    """Select draws whose Mahalanobis distance is at most the empirical
    (1-alpha) quantile cutoff (ties at the cutoff are included).  `distances`
    are the squared distances `dispersion.distances(draws.theta)` of all S
    draws, as `Fit.distances` holds them."""
    _check_alpha(draws, alpha)
    cutoff = float(np.quantile(distances, 1 - alpha, method="linear"))
    indices = np.flatnonzero(distances <= cutoff)
    return CredibleSelection(indices, alpha, ellip=EllipticalGeometry(dispersion, cutoff))
