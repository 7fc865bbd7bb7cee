"""Size measures of confidence/credible sets and deviation-from-gold metrics."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import exp, inf, lgamma, log, pi

import numpy as np

from .domain import DomainError


@dataclass(frozen=True)
class SizeReport:
    log_volume: float | None  # None when a side has zero length (volume 0.0)
    vol_mth_root: float  # the simulation tables' convention
    avg_length: float
    per_side_lengths: np.ndarray | None = None

    @property
    def volume(self) -> float | None:
        """exp(log_volume) where a normal double holds it, 0.0 for a zero-length
        side, else None: past |log volume| ~ 709 (m in the hundreds for ranking
        data) only log_volume holds the size."""
        if self.log_volume is None:
            return 0.0
        try:
            volume = exp(self.log_volume)
        except OverflowError:
            return None
        return volume if sys.float_info.min <= volume < inf else None


def orthotope_size(bounds: np.ndarray) -> SizeReport:
    """Volume and average side length of a box given (m, 2) [L, U] bounds."""
    bounds = np.asarray(bounds, dtype=float)
    lengths = bounds[:, 1] - bounds[:, 0]
    if np.any(lengths < 0):
        raise DomainError("orthotope bounds need U >= L on every side")
    if np.any(lengths == 0):
        log_vol, root = None, 0.0
    else:
        log_vol = float(np.sum(np.log(lengths)))
        root = exp(log_vol / len(lengths))
    return SizeReport(
        log_volume=log_vol,
        vol_mth_root=root,
        avg_length=float(np.mean(lengths)),
        per_side_lengths=lengths,
    )


def log_ellipse_volume(log_det: float, m: int, c: float) -> float:
    """Log Lebesgue volume of {x : x' D^-1 x <= c}, with log_det = log det(D):
    the log of pi^(m/2) / Gamma((m+2)/2) * c^(m/2) * det(D)^(1/2)."""
    if c <= 0:
        raise DomainError(f"cutoff c={c} must be > 0")
    return (m / 2) * log(pi) - lgamma((m + 2) / 2) + (m / 2) * log(c) + 0.5 * log_det


def ellipse_lengths(log_det: float, precision_diag, c: float):
    """Representative and calibrated side lengths of the ellipse.

    L_R,i = B(1/2, (m+1)/2) sqrt(c / K_ii), with K_ii = precision_diag[i] of
    K = D^-1; the calibrated L_M,i rescale the L_R so their product equals
    the ellipse volume; L_E is their mean.  Returns (L_R, L_M, L_E).
    """
    diag = np.asarray(precision_diag, dtype=float)
    m = len(diag)
    log_vol = log_ellipse_volume(log_det, m, c)  # checks c > 0 before log(c)
    log_beta = lgamma(0.5) + lgamma((m + 1) / 2) - lgamma(m / 2 + 1)
    if np.any(diag <= 0):
        raise DomainError("the precision diagonal must be positive")
    log_lr = log_beta + 0.5 * (log(c) - np.log(diag))
    log_cal = (log_vol - float(np.sum(log_lr))) / m
    l_r = np.exp(log_lr)
    l_m = np.exp(log_cal + log_lr)
    return l_r, l_m, float(np.mean(l_m))


def ellipse_size(log_det: float, precision_diag, c: float) -> SizeReport:
    """SizeReport for an elliptical set, lengths by the calibrated measure."""
    _, l_m, l_e = ellipse_lengths(log_det, precision_diag, c)
    log_vol = log_ellipse_volume(log_det, len(l_m), c)
    return SizeReport(
        log_volume=log_vol,
        vol_mth_root=exp(log_vol / len(l_m)),
        avg_length=l_e,
        per_side_lengths=l_m,
    )


def expected_abs_deviation(probs, xi):
    """E |rank - xi_i| for each entity i, column i of `probs` (m, n) being its
    rank marginal on 1..m; one marginal (m,) takes a scalar xi.  xi may hold
    midranks."""
    probs = np.asarray(probs, dtype=float)
    totals = np.atleast_1d(probs.sum(axis=0))
    # np.isclose's tolerance at atol=1e-6, and a NaN total fails too
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= 1.1e-5))
    if bad.size:
        raise DomainError(f"marginal column {bad[0]} sums to {totals[bad[0]]}, expected 1")
    ranks = np.arange(1, len(probs) + 1)
    return (np.abs(ranks - np.asarray(xi, dtype=float)[..., None]) * probs.T).sum(axis=-1)


def kww_abs_deviation(rank_lo, rank_hi, xi):
    """Mean |j - xi_i| over each entity's contiguous rank range
    j = rank_lo_i..rank_hi_i; scalars give one value."""
    lo, hi = np.asarray(rank_lo)[..., None], np.asarray(rank_hi)[..., None]
    if np.any(lo > hi):
        raise DomainError(f"rank_lo > rank_hi for entity {np.flatnonzero(lo > hi)[0]}")
    j = np.arange(lo.min(), hi.max() + 1)
    in_range = (lo <= j) & (j <= hi)
    dev = np.abs(j - np.asarray(xi, dtype=float)[..., None]) * in_range
    return dev.sum(axis=-1) / in_range.sum(axis=-1)


def tese(estimates, gold) -> float:
    """Total empirical squared error of point estimates against gold values."""
    estimates = np.asarray(estimates, dtype=float)
    gold = np.asarray(gold, dtype=float)
    if estimates.shape != gold.shape:
        raise DomainError(f"length mismatch: {estimates.shape} vs {gold.shape}")
    return float(np.sum((estimates - gold) ** 2))
