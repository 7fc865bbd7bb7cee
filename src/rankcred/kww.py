"""Frequentist joint rank confidence sets from simultaneous intervals.

Per-entity normal intervals at level 1-gamma are combined (Bonferroni or
independence calibration) and their overlap pattern determines a
contiguous rank range [|Lambda_L|+1, |Lambda_L|+|Lambda_O|+1] per entity.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .domain import Dataset, DomainError

BONFERRONI = "bonferroni"
INDEPENDENCE = "independence"


@dataclass(frozen=True)
class KwwRankSet:
    intervals: np.ndarray  # (m, 2) [L_i, U_i]
    gamma: float
    rank_lo: np.ndarray  # (m,) int
    rank_hi: np.ndarray  # (m,) int


def gamma_from_alpha(alpha: float, m: int, method: str = INDEPENDENCE) -> float:
    """Per-interval level gamma achieving joint level 1-alpha.

    Bonferroni: gamma = alpha/m, joint coverage at least 1-alpha under any
    dependence.  Independence (Sidak): gamma = 1 - (1-alpha)^(1/m), so m
    independent intervals cover jointly with probability (1-gamma)^m =
    1-alpha exactly.  Both are the calibrations of Klein, Wright &
    Wieczorek (2020, JRSS C).
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha={alpha} must be in (0, 1)")
    if m < 1:
        raise DomainError(f"m={m} must be >= 1")
    if method not in (BONFERRONI, INDEPENDENCE):
        raise DomainError(f"unknown method {method!r}")
    gamma = alpha / m if method == BONFERRONI else 1 - (1 - alpha) ** (1 / m)
    if 1 - gamma / 2 == 1:  # gamma rounds away: z_{1-gamma/2} would be infinite
        raise DomainError(f"alpha={alpha} is too small for m={m}: infinite intervals")
    return gamma


def intervals(ds: Dataset, gamma: float) -> np.ndarray:
    """Per-entity interval y_i -/+ z_{1-gamma/2} sqrt(d_i), as an (m, 2) array."""
    if not 0 < gamma < 1:
        raise DomainError(f"gamma={gamma} must be in (0, 1)")
    if 1 - gamma / 2 == 1:
        raise DomainError(f"gamma={gamma} is too small: 1 - gamma/2 rounds to 1, infinite intervals")
    z = NormalDist().inv_cdf(1 - gamma / 2)
    half = z * np.sqrt(ds.d)
    return np.column_stack([ds.y - half, ds.y + half])


def lambda_sets(ivals: np.ndarray) -> np.ndarray:
    """Counts (|Lambda_L|, |Lambda_R|, |Lambda_O|) per entity.

    j is clearly-left of i when U_j <= L_i, clearly-right when U_i <= L_j;
    the remainder overlap (Klein, Wright & Wieczorek 2020).  A pair that
    meets both tests is two identical point intervals L = U, which overlap,
    so the three sets partition the other m-1 entities.
    """
    L = ivals[:, 0]
    U = ivals[:, 1]
    m = len(L)
    below = U[None, :] <= L[:, None]  # below[i, j]: U_j <= L_i
    # left[i, j]: j clearly left of i; the diagonal and pairs of identical
    # points are below both ways and drop out
    left = below & ~below.T
    n_left = left.sum(axis=1)
    n_right = left.sum(axis=0)
    n_over = (m - 1) - n_left - n_right
    return np.column_stack([n_left, n_right, n_over])


def rank_confidence_set(ds: Dataset, alpha: float, method: str = INDEPENDENCE) -> KwwRankSet:
    """Joint (at least) 1-alpha confidence set for the rank vector."""
    gamma = gamma_from_alpha(alpha, ds.m, method)
    ivals = intervals(ds, gamma)
    counts = lambda_sets(ivals)
    rank_lo = counts[:, 0] + 1
    rank_hi = counts[:, 0] + counts[:, 2] + 1
    return KwwRankSet(
        intervals=ivals,
        gamma=gamma,
        rank_lo=rank_lo.astype(int),
        rank_hi=rank_hi.astype(int),
    )
