"""Credible distributions of the overall rank vector.

Each selected draw contributes a doubly stochastic rank table (a
permutation matrix when tie-free, tie groups spread 1/g over their g^2
cells); the weighted average over the credible selection is the m x m
credible distribution, with entry (k, i) the probability that entity i
holds rank k.  `Fit` wires one draw set's selections and distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import credset, posterior
from .credset import CredibleSelection
from .domain import Dataset, DomainError, rank_span, row_blocks
from .posterior import PosteriorDraws

EQUAL = "equal"
MAHALANOBIS_EXP = "mahal"

DS_TOL = 1e-9


@dataclass(frozen=True)
class RankCredibleDistribution:
    probs: np.ndarray  # (m, m), row k / column i = P(entity i holds rank k)
    model: str

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
    lo, hi = rank_span(theta)
    k = np.arange(1, len(theta) + 1)[:, None]
    return ((lo <= k) & (k <= hi)) / (hi - lo + 1)


def build_distribution(
    selection: CredibleSelection,
    draws: PosteriorDraws,
    weighting: str = EQUAL,
    distances: np.ndarray | None = None,
) -> RankCredibleDistribution:
    """Weighted average of rank tables over a credible selection.

    Under `mahal` weighting w_s is proportional to exp(-d_s/2), with d_s =
    distances[s] the Mahalanobis distance of draw s: one per draw, all S, as
    `Dispersion.distances(draws.theta)` gives; an ellipse's own by default.
    """
    if selection.K == 0:
        raise DomainError("cannot build a distribution from an empty selection")
    idx = selection.indices
    K, m = selection.K, draws.m

    if weighting == EQUAL:
        weights = np.full(K, 1.0 / K)
    elif weighting == MAHALANOBIS_EXP:
        if distances is None and selection.ellip is not None:
            distances = selection.ellip.distances
        if np.shape(distances) != (draws.S,):  # a box has no distances of its own
            raise DomainError(f"mahal weighting needs the distances of all {draws.S} draws")
        chosen = np.asarray(distances)[idx]
        valid = (chosen >= 0) & (chosen < np.inf)  # NaN is neither
        if not valid.all():
            k = np.argmin(valid)
            raise DomainError(f"distance of draw {idx[k]} must be finite and >= 0, got {chosen[k]}")
        # exponent shift so the largest weight is exp(0); guards underflow
        logw = -chosen / 2.0
        logw -= logw.max()
        weights = np.exp(logw)
        weights /= weights.sum()
    else:
        raise DomainError(f"unknown weighting {weighting!r}")

    # tie-free draws add their weight to cell (k, order[s, k]) for every rank
    # k; the blocks go in draw order, so each cell sums its weights in draw
    # order; tied draws take the table path
    order, tied = draws.row_order
    tied = tied[idx]
    free, free_weights = idx[~tied], weights[~tied]
    probs = np.zeros((m, m))
    flat, rank_offsets = probs.reshape(-1), m * np.arange(m)
    for rows in row_blocks(len(free), m):
        cells = (order[free[rows]] + rank_offsets).ravel()
        np.add.at(flat, cells, np.repeat(free_weights[rows], m))
    for s in np.flatnonzero(tied):
        probs += weights[s] * rank_table(draws.theta[idx[s]])

    return RankCredibleDistribution(probs=probs, model=draws.model)


@dataclass(frozen=True, eq=False)
class Fit:
    """A dataset's posterior draws and what their selections and rank
    distributions share, each computed once, on first use: the summary of
    the draws, the dispersion (UB: center y and diag(d); HB: the draws' mean
    and 1/S covariance) and one distance pass over all S draws, which an
    elliptical selection makes and `mahal` weights read."""

    ds: Dataset
    draws: PosteriorDraws

    @cached_property
    def summary(self) -> posterior.PosteriorSummary:
        return posterior.summarize(self.draws)

    @cached_property
    def dispersion(self) -> credset.Dispersion:
        if self.draws.model == posterior.UB:
            return credset.Dispersion(self.ds.y, np.diag(self.ds.d))
        # with 1/S normalization S <= m draws have a singular covariance, and
        # S = m + 1 draws all lie at squared distance m: no distance tells them apart
        S, m = self.draws.S, self.draws.m
        if S <= m + 1:
            raise DomainError(f"an HB dispersion needs S > m + 1 draws: S={S}, m={m}")
        return credset.Dispersion(self.summary.mean, self.summary.cov)

    @cached_property
    def distances(self) -> np.ndarray:
        """Squared Mahalanobis distance of every draw from the dispersion."""
        return self.dispersion.distances(self.draws.theta)

    def select(self, geometry: str, alpha: float) -> CredibleSelection:
        """The draws' (1-alpha) credible selection, a `cartesian` box or an
        `elliptical` set; the ellipse's distances become the fit's."""
        if geometry == credset.CARTESIAN:
            return credset.cartesian_select(self.draws, alpha)
        if geometry != credset.ELLIPTICAL:
            raise DomainError(f"unknown geometry {geometry!r}")
        sel = credset.elliptical_select(self.draws, self.dispersion, alpha)
        self.__dict__.setdefault("distances", sel.ellip.distances)
        return sel

    def distribution(
        self, selection: CredibleSelection, weighting: str = EQUAL
    ) -> RankCredibleDistribution:
        """The credible rank distribution over `selection`, a selection of these draws."""
        distances = self.distances if weighting == MAHALANOBIS_EXP else None
        return build_distribution(selection, self.draws, weighting, distances)


def rank_marginal(dist: RankCredibleDistribution, i: int) -> np.ndarray:
    """Credible distribution of entity i's rank (column i)."""
    if not 0 <= i < dist.m:
        raise DomainError(f"entity index {i} out of range for m={dist.m}")
    return dist.probs[:, i].copy()


def expected_rank(dist: RankCredibleDistribution, i: int) -> float:
    """Posterior expected rank of entity i under the credible distribution."""
    marginal = rank_marginal(dist, i)
    return float(np.arange(1, dist.m + 1) @ marginal)
