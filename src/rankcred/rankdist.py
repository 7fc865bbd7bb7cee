"""Credible distributions of the overall rank vector.

Each selected draw contributes a doubly stochastic rank table (a
permutation matrix when tie-free, tie groups spread 1/g over their g^2
cells); the weighted average over the credible selection is the m x m
credible distribution, with entry (k, i) the probability that entity i
holds rank k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .credset import CARTESIAN, CredibleSelection, mahalanobis_many
from .domain import DomainError
from .posterior import PosteriorDraws

EQUAL = "equal"
MAHALANOBIS_EXP = "mahal"

DS_TOL = 1e-9


@dataclass(frozen=True)
class RankCredibleDistribution:
    probs: np.ndarray  # (m, m), row k / column i = P(entity i holds rank k)
    weighting: str
    model: str
    geometry: str

    @property
    def m(self) -> int:
        return self.probs.shape[0]


def rank_table(theta) -> np.ndarray:
    """Doubly stochastic rank table of one draw.

    Tie-free input gives a permutation matrix; a tie group of size g
    occupying ranks j..j+g-1 puts 1/g in each of its g^2 cells.  Ties are
    exact equality only.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise DomainError("rank table needs finite values")
    m = len(theta)
    table = np.zeros((m, m))
    order = np.argsort(theta, kind="stable")
    sorted_vals = theta[order]
    start = 0
    while start < m:
        stop = start + 1
        while stop < m and sorted_vals[stop] == sorted_vals[start]:
            stop += 1
        g = stop - start
        cols = order[start:stop]
        table[np.ix_(range(start, stop), cols)] = 1.0 / g
        start = stop
    return table


def build_distribution(
    selection: CredibleSelection,
    draws: PosteriorDraws,
    weighting: str = EQUAL,
    mahal_context: tuple | None = None,
) -> RankCredibleDistribution:
    """Weighted average of rank tables over a credible selection.

    Under `mahal` weighting w_s is proportional to exp(-d_s/2) with d_s the
    Mahalanobis distance of draw s; elliptical selections reuse their stored
    distances, Cartesian selections need `mahal_context = (center, dispersion)`.
    """
    if selection.K == 0:
        raise DomainError("cannot build a distribution from an empty selection")
    theta = draws.theta[selection.indices]
    K, m = theta.shape

    if weighting == EQUAL:
        weights = np.full(K, 1.0 / K)
    elif weighting == MAHALANOBIS_EXP:
        if selection.ellip is not None:
            dist = selection.ellip.distances[selection.indices]
        elif mahal_context is not None:
            center, dispersion = mahal_context
            dist = mahalanobis_many(theta, center, dispersion)
        else:
            raise DomainError(
                "mahal weighting on a Cartesian selection needs mahal_context=(center, dispersion)"
            )
        # exponent shift so the largest weight is exp(0); guards underflow
        logw = -dist / 2.0
        logw -= logw.max()
        weights = np.exp(logw)
        weights /= weights.sum()
    else:
        raise DomainError(f"unknown weighting {weighting!r}")

    # tie-free rows (the usual case for continuous draws) add their weight
    # to cell (rank, entity) in one weighted count; rows with exact ties
    # take the table path
    sorted_rows = np.sort(theta, axis=1)
    tied = (np.diff(sorted_rows, axis=1) == 0).any(axis=1)
    clean = ~tied
    order = np.argsort(theta[clean], axis=1, kind="stable")
    ranks = np.empty_like(order)
    ranks[np.arange(order.shape[0])[:, None], order] = np.arange(m)
    cells = (ranks * m + np.arange(m)).ravel()
    probs = np.zeros((m, m))
    probs += np.bincount(cells, weights=np.repeat(weights[clean], m), minlength=m * m).reshape(m, m)
    for s in np.flatnonzero(tied):
        probs += weights[s] * rank_table(theta[s])

    return RankCredibleDistribution(
        probs=probs,
        weighting=weighting,
        model=draws.model,
        geometry=selection.geometry,
    )


def rank_marginal(dist: RankCredibleDistribution, i: int) -> np.ndarray:
    """Credible distribution of entity i's rank (column i)."""
    if not 0 <= i < dist.m:
        raise DomainError(f"entity index {i} out of range for m={dist.m}")
    return dist.probs[:, i].copy()


def expected_rank(dist: RankCredibleDistribution, i: int) -> float:
    """Posterior expected rank of entity i under the credible distribution."""
    marginal = rank_marginal(dist, i)
    return float(np.arange(1, dist.m + 1) @ marginal)
