"""Posterior samplers: independent-normal UB draws and exact independent
draws for the hierarchical (Fay-Herriot) model with a flat prior on beta and
the variance prior (Dbar+A)^(-1/2).
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import Dataset, DomainError, row_blocks, sort_rows

UB = "UB"
HB = "HB"

# log-A grid for the model-variance marginal: nodes, and log units beyond
# [log min d, log max d] on each side
A_GRID_POINTS = 4001
A_GRID_SPAN = 16.0


def _check_variances(a: np.ndarray):
    """Reject model-variance draws that are not > 0 (NaN included), naming the first."""
    if not np.all(a > 0):
        s = np.flatnonzero(~(a > 0))[0]
        raise DomainError(f"model-variance draw {s} must be > 0, got {a[s]}")


@dataclass(frozen=True)
class PosteriorDraws:
    """S draws of the mean vector, plus the matching (beta, A) draws for HB."""

    theta: np.ndarray  # (S, m)
    model: str  # UB or HB
    beta: np.ndarray | None = None  # (S, q), HB only
    a: np.ndarray | None = None  # (S,), HB only
    # `sort_rows` of theta, given by the samplers, which sort each block as they draw it
    _sorted_rows: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.theta.ndim != 2 or self.theta.shape[0] < 1:
            raise DomainError("theta draws must be a non-empty S x m matrix")
        # min and max propagate NaN and reach any inf: no S x m mask
        if not (np.isfinite(self.theta.min()) and np.isfinite(self.theta.max())):
            s, c = np.argwhere(~np.isfinite(self.theta))[0]
            raise DomainError(f"theta draw {s}, coordinate {c} is not finite: {self.theta[s, c]}")
        if self.a is not None:
            _check_variances(self.a)

    @property
    def S(self) -> int:
        return self.theta.shape[0]

    @property
    def m(self) -> int:
        return self.theta.shape[1]

    @cached_property
    def row_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Each draw's stable argsort (order[s, k] is the entity at rank k+1,
        in the smallest unsigned dtype that holds m - 1) and exact-tie flag,
        read-only: `sort_rows` of theta."""
        order, tied = sort_rows(self.theta) if self._sorted_rows is None else self._sorted_rows
        order.flags.writeable = False
        tied.flags.writeable = False
        return order, tied


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean of theta and, for HB, mean and median of A; the 1/S
    covariance of theta is formed from the draws on first use."""

    draws: PosteriorDraws = field(repr=False)
    mean: np.ndarray  # (m,)
    a_mean: float | None = None
    a_median: float | None = None

    @cached_property
    def cov(self) -> np.ndarray:
        centered = self.draws.theta - self.mean
        return centered.T @ centered / self.draws.S


def design_matrix(ds: Dataset, include_intercept: bool = True) -> np.ndarray:
    """Covariate matrix for the HB fit: a ones column unless excluded, then x1..xp."""
    if include_intercept:
        return np.column_stack([np.ones(ds.m), ds.x])
    if ds.p == 0:
        raise DomainError("no intercept (--no-intercept) needs covariate columns x1..xp")
    return ds.x


def _generator(S: int, seed: int) -> np.random.Generator:
    """A sampler's generator, once S and the seed are checked."""
    if S < 1:
        raise DomainError(f"S={S} must be >= 1")
    if seed < 0:
        raise DomainError(f"seed={seed} must be >= 0")
    return np.random.default_rng(seed)


def _draw_sorted(rng, S: int, m: int, finish):
    """S x m draws and their row order, `sort_rows` of the draws.

    Each of `row_blocks(S, m)` is filled with standard normals, in the order
    one (S, m) call of `rng` draws them; finish(block, rows) turns the
    normals of draws `rows` into the draws, in place, just before
    `sort_rows` sorts them.  The calling thread fills the first block; with
    more, the rest are filled in order by the one worker of an executor
    while the caller finishes and sorts the blocks filled (numpy's
    generator releases the GIL while it fills), and the worker is the only
    user of `rng` until it is joined.  A fill waits on the one before it,
    so after a generator error no later block is filled, and the error is
    raised here when the caller reaches the block it hit; an error in the
    caller cancels the fills not yet begun.  Either way the worker has
    ended before this returns.
    """
    theta = np.empty((S, m))
    first, *rest = row_blocks(S, m)

    def fill(rows, before):
        if before is not None:
            before.result()
        rng.standard_normal(out=theta[rows])

    rng.standard_normal(out=theta[first])
    helper = ThreadPoolExecutor(1, thread_name_prefix="rankcred-normals")
    try:
        filled, before = {}, None
        for rows in rest:
            filled[rows.start] = before = helper.submit(fill, rows, before)

        def make(rows):
            if rows.start > 0:
                filled[rows.start].result()
            finish(theta[rows], rows)

        return theta, sort_rows(theta, make)
    finally:
        helper.shutdown(cancel_futures=True)


def sample_ub(ds: Dataset, S: int, seed: int) -> PosteriorDraws:
    """Draw S vectors theta with theta_i ~ Normal(y_i, d_i), independent."""
    rng = _generator(S, seed)
    sd = np.sqrt(ds.d)

    def finish(block, rows):
        block *= sd
        block += ds.y

    theta, row_order = _draw_sorted(rng, S, ds.m, finish)
    return PosteriorDraws(theta=theta, model=UB, _sorted_rows=row_order)


def _cholesky_columns(G):
    """Lower Cholesky factor of a stack of n symmetric q x q matrices, built
    one column at a time for all n at once.  G[i][j] (j <= i) is entry (i, j)
    of every matrix as an (n,) array, and so is K[i][j] of the factor.
    A pivot <= 0 or NaN means a matrix is not positive definite."""
    q = len(G)
    K = [[None] * (i + 1) for i in range(q)]
    for j in range(q):
        pivot = G[j][j] - sum(K[j][k] ** 2 for k in range(j))
        if not np.all(pivot > 0):
            raise DomainError(
                "design matrix is numerically rank deficient: "
                "X'V^-1 X is not positive definite at some model variance"
            )
        K[j][j] = np.sqrt(pivot)
        for i in range(j + 1, q):
            K[i][j] = (G[i][j] - sum(K[i][k] * K[j][k] for k in range(j))) / K[j][j]
    return K


def _gls(a, X, y, d):
    """Generalized least squares of y on X for each model variance in `a` (n,),
    V = diag(A + d), through one Cholesky factor per variance.

    With J the reversal of the q design columns, J X'V^-1 X J = K K' (K lower
    triangular) and t = K^-1 J X'V^-1 y.  Then log|X'V^-1 X| = 2 sum log diag K,
    the GLS fit is J K^-T t, and J K^-T J is the lower Cholesky factor of
    (X'V^-1 X)^-1: the reversal makes it the lower factor np.linalg.cholesky
    would give of the inverse.  The sums over the m entities are einsum sums
    of whole rows, with no BLAS call, and every other loop runs over q only.

    Returns the weights w = 1/(A + d) as an (m, n) array, one row per entity,
    the factor K as in `_cholesky_columns` and t as q (n,) arrays.
    """
    w = np.add.outer(d, a)
    np.divide(1.0, w, out=w)
    Xr = X[:, ::-1]
    q = X.shape[1]
    G = [[np.einsum("mn,m->n", w, Xr[:, i] * Xr[:, j]) for j in range(i + 1)] for i in range(q)]
    K = _cholesky_columns(G)
    t = []
    for i in range(q):
        b = np.einsum("mn,m->n", w, Xr[:, i] * y)
        t.append((b - sum(K[i][k] * t[k] for k in range(i))) / K[i][i])
    return w, K, t


def _solve_reversed(K, c) -> list:
    """J K^-T c for the factor K of `_gls` and c as q (n,) arrays, by back
    substitution; returns q (n,) arrays, one per design column."""
    q = len(K)
    v = [None] * q
    for i in reversed(range(q)):
        v[i] = (c[i] - sum(K[k][i] * v[k] for k in range(i + 1, q))) / K[i][i]
    return v[::-1]


def _a_log_density(u, X, y, d) -> np.ndarray:
    """Log of the marginal posterior density of u = log A, up to a constant,
    at each node of `u`.

    With beta integrated out under its flat prior (Fay and Herriot 1979),
    p(A | y) ~ (dbar+A)^(-1/2) |V|^(-1/2) |X'V^-1 X|^(-1/2) exp(-y'Py/2),
    and the Jacobian of u = log A adds u.
    """
    a = np.exp(u)
    w, K, t = _gls(a, X, y, d)
    # one (m, n) buffer holds the GLS fits, the residuals, their weighted
    # squares and log w in turn: a new array of that size costs more than
    # the arithmetic on it
    r = np.einsum("mq,qn->mn", X, np.array(_solve_reversed(K, t)))
    np.subtract(y[:, None], r, out=r)
    np.square(r, out=r)
    r *= w
    quad = r.sum(axis=0)  # y'Py
    log_w = np.log(w, out=r).sum(axis=0)
    return (
        -0.5 * np.log(d.mean() + a)
        + 0.5 * log_w
        - sum(np.log(K[j][j]) for j in range(len(K)))  # half of log|X'V^-1 X|
        - 0.5 * quad
        + u
    )


def _draw_a(X, y, d, S, rng) -> np.ndarray:
    """S draws of A from its marginal posterior by inverse CDF on a log grid.

    The density (`_a_log_density`) is evaluated in u = log A on
    A_GRID_POINTS nodes spanning A_GRID_SPAN log units beyond the range of d
    on each side, and inverted by linear interpolation of its trapezoid CDF.
    """
    u = np.linspace(np.log(d.min()) - A_GRID_SPAN, np.log(d.max()) + A_GRID_SPAN, A_GRID_POINTS)
    log_dens = _a_log_density(u, X, y, d)
    dens = np.exp(log_dens - log_dens.max())
    cdf = np.concatenate([[0.0], np.cumsum(dens[1:] + dens[:-1])])
    # np.interp starts each search at the previous query's node, so queries
    # in ascending order cost less; each result is the same
    targets = rng.random(S) * cdf[-1]
    order = np.argsort(targets)
    log_a = np.empty(S)
    log_a[order] = np.interp(targets[order], cdf, u)
    return np.exp(log_a)


def _draw_beta(X, y, d, a, rng) -> np.ndarray:
    """beta | A, y ~ Normal(GLS fit, (X'V^-1 X)^-1) for each A in `a` (S,).

    With the factor K and t of `_gls`, beta = J K^-T (t + J z) for one
    standard normal z (S, q): the GLS fit J K^-T t plus the lower Cholesky
    factor J K^-T J of (X'V^-1 X)^-1 times z, for every q.  Each draw is the
    one a batched inverse and Cholesky of the S information matrices gives
    from the same z, up to rounding."""
    _, K, t = _gls(a, X, y, d)
    z = rng.standard_normal((len(a), X.shape[1]))[:, ::-1]
    return np.column_stack(_solve_reversed(K, [t[i] + z[:, i] for i in range(len(t))]))


def draw_theta(y, d, X, beta, a, rng):
    """theta | beta, A, y for each row of `beta` (S, q) and each model
    variance in `a` (S,): shrink y toward the regression fit xb = X beta,
    theta_i ~ Normal((A y_i + d_i xb_i)/(A + d_i), A d_i/(A + d_i)).
    Returns theta and its row order, as `_draw_sorted` gives them.

    Block by block of rows, the normals are scaled and shifted in place, and
    each block forms its own fits by einsum, which calls no BLAS and sums
    each fit over the design columns from first to last whatever the block:
    the draws are bitwise those of mean + sd * z computed whole, with z from
    one (S, m) call and xb = np.einsum("sq,qm->sm", beta, X.T).
    """
    _check_variances(a)
    # at extreme scales of the data A d_i underflows to 0, and the draws would
    # silently lose their spread, or overflows, and they would turn infinite
    low = float(a.min()) * float(d.min())
    high = float(a.max()) * float(max(d.max(), np.abs(y).max()))  # floats: no overflow warning
    if low < sys.float_info.min or not np.isfinite(high):
        raise DomainError(
            f"d spans {d.min():.3g} to {d.max():.3g}: there the theta step's products A*d "
            "leave the range of a double; rescale y by a factor s and d by s**2"
        )
    xt = np.ascontiguousarray(X.T)  # einsum's inner loop then runs over m, not q: 5x faster

    def finish(block, rows):  # two temporaries the size of the block
        ab = a[rows, None]
        t, w = ab * d, ab + d
        t /= w
        block *= np.sqrt(t, out=t)
        np.multiply(ab, y, out=t)
        np.einsum("sq,qm->sm", beta[rows], xt, out=w)
        w *= d
        t += w
        t /= np.add(ab, d, out=w)
        block += t

    return _draw_sorted(rng, len(a), len(y), finish)


def gibbs_hb(ds: Dataset, S: int, seed: int, include_intercept: bool = True) -> PosteriorDraws:
    """Independent posterior draws of (theta, beta, A) under the hierarchical model.

    The name is historical: the model was first fit by a Gibbs chain.  Each
    draw is exact and independent: A from its marginal posterior on a log
    grid, then beta given A, then theta given beta and A.
    """
    rng = _generator(S, seed)
    X = design_matrix(ds, include_intercept)
    m, q = X.shape
    if m <= q + 1:
        raise DomainError(
            f"propriety guard: need m > design columns + 1 (m={m}, design columns={q}); "
            "posterior of the model variance would have a non-integrable tail"
        )
    if np.linalg.matrix_rank(X.T @ X) < q:
        raise DomainError("design matrix is rank deficient")

    a = _draw_a(X, ds.y, ds.d, S, rng)
    beta = _draw_beta(X, ds.y, ds.d, a, rng)
    theta, row_order = draw_theta(ds.y, ds.d, X, beta, a, rng)
    return PosteriorDraws(theta=theta, model=HB, beta=beta, a=a, _sorted_rows=row_order)


def summarize(draws: PosteriorDraws) -> PosteriorSummary:
    """Posterior mean of theta, and its covariance (1/S normalization) when read."""
    if draws.S < 2:
        raise DomainError("need at least 2 draws to summarize")
    a = draws.a
    a_stats = () if a is None else (float(np.mean(a)), float(np.median(a)))
    return PosteriorSummary(draws, draws.theta.mean(axis=0), *a_stats)
