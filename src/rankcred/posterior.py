"""Posterior samplers: independent-normal UB draws and exact independent
draws for the hierarchical (Fay-Herriot) model with a flat prior on beta and
the variance prior (Dbar+A)^(-1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Dataset, DomainError

UB = "UB"
HB = "HB"

# log-A grid for the model-variance marginal: nodes, and log units beyond
# [log min d, log max d] on each side
A_GRID_POINTS = 4001
A_GRID_SPAN = 16.0


@dataclass(frozen=True)
class HbConfig:
    """Sampler settings for the hierarchical model."""

    samples: int = 50000
    seed: int = 0
    include_intercept: bool = True

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError(f"samples={self.samples} must be >= 1")


@dataclass(frozen=True)
class PosteriorDraws:
    """S draws of the mean vector, plus the matching (beta, A) draws for HB."""

    theta: np.ndarray  # (S, m)
    model: str  # UB or HB
    seed: int
    beta: np.ndarray | None = None  # (S, q), HB only
    a: np.ndarray | None = None  # (S,), HB only

    def __post_init__(self):
        if self.theta.ndim != 2 or self.theta.shape[0] < 1:
            raise DomainError("theta draws must be a non-empty S x m matrix")
        if not np.isfinite(self.theta).all():
            s, c = np.argwhere(~np.isfinite(self.theta))[0]
            raise DomainError(f"theta draw {s}, coordinate {c} is not finite: {self.theta[s, c]}")
        if self.a is not None and np.any(self.a <= 0):
            raise DomainError("model-variance draws must all be > 0")

    @property
    def S(self) -> int:
        return self.theta.shape[0]

    @property
    def m(self) -> int:
        return self.theta.shape[1]


@dataclass(frozen=True)
class PosteriorSummary:
    mean: np.ndarray  # (m,)
    cov: np.ndarray  # (m, m), 1/S normalization
    a_mean: float | None = None
    a_median: float | None = None


def design_matrix(ds: Dataset, include_intercept: bool = True) -> np.ndarray:
    """Covariate matrix for the HB fit; all-ones column when p = 0."""
    if ds.p == 0:
        return np.ones((ds.m, 1))
    if include_intercept:
        return np.column_stack([np.ones(ds.m), ds.x])
    return ds.x


def sample_ub(ds: Dataset, S: int, seed: int) -> PosteriorDraws:
    """Draw S vectors theta with theta_i ~ Normal(y_i, d_i), independent."""
    if S < 1:
        raise DomainError(f"S={S} must be >= 1")
    rng = np.random.default_rng(seed)
    theta = ds.y + np.sqrt(ds.d) * rng.standard_normal((S, ds.m))
    return PosteriorDraws(theta=theta, model=UB, seed=seed)


def _gls(a, X, y, d):
    """Generalized least squares of y on X for each model variance in `a`.

    Returns the weights w = 1/(A + d) (n, m), the information matrices
    X'V^-1 X (n, q, q) and the GLS coefficients (n, q), V = diag(A + d).
    """
    w = 1.0 / (a[:, None] + d)
    wx = w[:, :, None] * X
    info = X.T @ wx
    beta_hat = np.linalg.solve(info, (y @ wx)[..., None])[..., 0]
    return w, info, beta_hat


def _draw_a(X, y, d, S, rng) -> np.ndarray:
    """S draws of A from its marginal posterior by inverse CDF on a log grid.

    With beta integrated out under its flat prior (Fay and Herriot 1979),
    p(A | y) ~ (dbar+A)^(-1/2) |V|^(-1/2) |X'V^-1 X|^(-1/2) exp(-y'Py/2).
    The density is evaluated in u = log A on A_GRID_POINTS nodes spanning
    A_GRID_SPAN log units beyond the range of d on each side, and inverted
    by linear interpolation of its trapezoid CDF.
    """
    u = np.linspace(np.log(d.min()) - A_GRID_SPAN, np.log(d.max()) + A_GRID_SPAN, A_GRID_POINTS)
    a = np.exp(u)
    w, info, beta_hat = _gls(a, X, y, d)
    resid = y - beta_hat @ X.T
    log_dens = (
        -0.5 * np.log(d.mean() + a)
        + 0.5 * np.log(w).sum(axis=1)
        - 0.5 * np.linalg.slogdet(info)[1]
        - 0.5 * (w * resid**2).sum(axis=1)
        + u  # Jacobian of u = log A
    )
    dens = np.exp(log_dens - log_dens.max())
    cdf = np.concatenate([[0.0], np.cumsum(dens[1:] + dens[:-1])])
    return np.exp(np.interp(rng.random(S) * cdf[-1], cdf, u))


def _draw_beta(X, y, d, a, rng) -> np.ndarray:
    """beta | A, y ~ Normal(GLS fit, (X'V^-1 X)^-1) for each A in `a` (S,)."""
    _, info, beta_hat = _gls(a, X, y, d)
    chol = np.linalg.cholesky(np.linalg.inv(info))
    return beta_hat + (chol @ rng.standard_normal(beta_hat.shape)[..., None])[..., 0]


def draw_theta(y, d, xb, a, rng) -> np.ndarray:
    """theta | beta, A, y for each row of the regression fits `xb` (S, m) and
    each model variance in `a` (S,): shrink y toward the fit,
    theta_i ~ Normal((A y_i + d_i xb_i)/(A + d_i), A d_i/(A + d_i)).
    """
    if np.any(a <= 0):
        raise DomainError("model variances must all be > 0")
    a = a[:, None]
    mean = (a * y + d * xb) / (a + d)
    return mean + np.sqrt(a * d / (a + d)) * rng.standard_normal(mean.shape)


def gibbs_hb(ds: Dataset, cfg: HbConfig) -> PosteriorDraws:
    """Independent posterior draws of (theta, beta, A) under the hierarchical model.

    The name is historical: the model was first fit by a Gibbs chain.  Each
    draw is exact and independent: A from its marginal posterior on a log
    grid, then beta given A, then theta given beta and A.
    """
    X = design_matrix(ds, cfg.include_intercept)
    m, q = X.shape
    if m <= q + 1:
        raise DomainError(
            f"propriety guard: need m > p + 2 (m={m}, design columns={q}); "
            "posterior of the model variance would have a non-integrable tail"
        )
    if np.linalg.matrix_rank(X.T @ X) < q:
        raise DomainError("design matrix is rank deficient")

    rng = np.random.default_rng(cfg.seed)
    a = _draw_a(X, ds.y, ds.d, cfg.samples, rng)
    beta = _draw_beta(X, ds.y, ds.d, a, rng)
    theta = draw_theta(ds.y, ds.d, beta @ X.T, a, rng)
    return PosteriorDraws(theta=theta, model=HB, seed=cfg.seed, beta=beta, a=a)


def summarize(draws: PosteriorDraws) -> PosteriorSummary:
    """Posterior mean and covariance of theta, with 1/S normalization."""
    if draws.S < 2:
        raise DomainError("need at least 2 draws to summarize")
    mean = draws.theta.mean(axis=0)
    centered = draws.theta - mean
    cov = centered.T @ centered / draws.S
    a_mean = a_median = None
    if draws.a is not None:
        a_mean = float(np.mean(draws.a))
        a_median = float(np.median(draws.a))
    return PosteriorSummary(mean=mean, cov=cov, a_mean=a_mean, a_median=a_median)
