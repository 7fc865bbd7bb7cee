"""Simulation harness comparing KWW / HB / UB rank-set methods.

Covariates are drawn once and held fixed; each (model variance, slope)
cell runs `n_reps` replications of: generate truth, fit all methods,
score average posterior expected absolute rank deviation and set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import credset, kww, metrics, rankdist
from .domain import Dataset, DomainError, Entity, rank_of
from .fileio import baseball_dataset
from .posterior import HbConfig, gibbs_hb, sample_ub, summarize


def _baseball_d() -> tuple[float, ...]:
    return tuple(baseball_dataset().d)


@dataclass(frozen=True)
class SimConfig:
    m: int = 18
    a_grid: tuple[float, ...] = (0.001, 0.005, 0.01, 0.1, 1.0)
    beta0: float = 0.2
    beta1_grid: tuple[float, ...] = (0.0, 0.4)
    d: tuple[float, ...] = field(default_factory=_baseball_d)
    n_reps: int = 200
    alpha: float = 0.1
    seed: int = 0
    samples: int = 2000  # posterior draws per replication

    def __post_init__(self):
        if self.n_reps < 1:
            raise DomainError(f"n_reps={self.n_reps} must be >= 1")
        if any(a <= 0 for a in self.a_grid):
            raise DomainError("all model variances in a_grid must be > 0")
        if len(self.d) != self.m or any(v <= 0 for v in self.d):
            raise DomainError(f"d must be {self.m} positive sampling variances")


def generate_instance(x, beta0, beta1, a, d, rng, include_covariate=None):
    """One synthetic truth and dataset: theta_i ~ N(beta0 + beta1 x_i, a),
    y_i ~ N(theta_i, d_i), gold set to the true theta.

    The dataset carries the covariate column only when the cell actually
    uses one (beta1 != 0, unless overridden).
    """
    if a <= 0:
        raise DomainError(f"a={a} must be > 0")
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if include_covariate is None:
        include_covariate = beta1 != 0
    theta = beta0 + beta1 * x + np.sqrt(a) * rng.standard_normal(len(x))
    y = theta + np.sqrt(d) * rng.standard_normal(len(x))
    entities = tuple(
        Entity(
            id=f"e{i + 1}",
            y=float(y[i]),
            d=float(d[i]),
            x=(float(x[i]),) if include_covariate else (),
            gold=float(theta[i]),
        )
        for i in range(len(x))
    )
    return theta, Dataset(entities=entities)


def _avg_deviation(dist: rankdist.RankCredibleDistribution, xi: np.ndarray) -> float:
    """Mean over entities of E|rank - xi_i| under the credible distribution."""
    k = np.arange(1, dist.m + 1)[:, None]
    return float((np.abs(k - xi) * dist.probs).sum() / dist.m)


def _fit_one_model(draws, dispersion: credset.Dispersion, alpha, xi):
    """Cartesian + elliptical selections scored under both weightings."""
    out = {}
    cart = credset.cartesian_select(draws, alpha)
    ellip = credset.elliptical_select(draws, dispersion, alpha)
    for geometry, sel in (("cartesian", cart), ("elliptical", ellip)):
        for weighting in (rankdist.EQUAL, rankdist.MAHALANOBIS_EXP):
            dist = rankdist.build_distribution(sel, draws, weighting, dispersion=dispersion)
            out[(geometry, weighting)] = _avg_deviation(dist, xi)
    bounds = np.column_stack([cart.cart.lower, cart.cart.upper])
    sizes = {
        "cartesian": metrics.orthotope_size(bounds),
        "elliptical": metrics.ellipse_size(
            dispersion.log_det, dispersion.precision_diag, ellip.ellip.cutoff
        ),
    }
    return out, sizes


def run_cell(cfg: SimConfig, x, a, beta1, cell_index):
    """Averages over replications for one (a, beta1) cell; returns row dicts."""
    d = np.asarray(cfg.d, dtype=float)
    acc = {}  # (method, geometry, weighting) -> [dev_sum, root_sum, len_sum]

    def add(key, dev, size):
        entry = acc.setdefault(key, [0.0, 0.0, 0.0])
        entry[0] += dev
        entry[1] += size.vol_mth_root
        entry[2] += size.avg_length

    for rep in range(cfg.n_reps):
        rng = np.random.default_rng([cfg.seed, cell_index, rep])
        theta_true, ds = generate_instance(x, cfg.beta0, beta1, a, d, rng)
        xi = rank_of(theta_true)

        ranks = kww.rank_confidence_set(ds, cfg.alpha, kww.INDEPENDENCE)
        # mean |j - xi_i| over each entity's range j = rank_lo..rank_hi
        j = np.arange(1, ds.m + 1)[:, None]
        in_range = (ranks.rank_lo <= j) & (j <= ranks.rank_hi)
        kww_dev = float(np.mean((np.abs(j - xi) * in_range).sum(axis=0) / in_range.sum(axis=0)))
        add(("KWW", "cartesian", "none"), kww_dev, metrics.orthotope_size(ranks.intervals))

        ub = sample_ub(ds, cfg.samples, rng.integers(2**63))
        hb = gibbs_hb(ds, HbConfig(samples=cfg.samples, seed=rng.integers(2**63)))
        summ = summarize(hb)
        for method, draws, dispersion in (
            ("UB", ub, credset.Dispersion(ds.y, np.diag(ds.d))),
            ("HB", hb, credset.Dispersion(summ.mean, summ.cov)),
        ):
            devs, sizes = _fit_one_model(draws, dispersion, cfg.alpha, xi)
            for (geometry, weighting), dev in devs.items():
                add((method, geometry, weighting), dev, sizes[geometry])

    rows = []
    for (method, geometry, weighting), (dev, root, length) in sorted(acc.items()):
        rows.append(
            {
                "a": a,
                "beta1": beta1,
                "method": method,
                "geometry": geometry,
                "weighting": weighting,
                "avg_exp_abs_dev": dev / cfg.n_reps,
                "vol_mth_root": root / cfg.n_reps,
                "avg_length": length / cfg.n_reps,
                "n_reps": cfg.n_reps,
            }
        )
    return rows


def run_study(cfg: SimConfig):
    """Full grid over (a_grid x beta1_grid); returns the result rows."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.0, 1.0, cfg.m)  # drawn once, fixed across the study
    rows = []
    cell_index = 0
    for a in cfg.a_grid:
        for beta1 in cfg.beta1_grid:
            rows.extend(run_cell(cfg, x, a, beta1, cell_index))
            cell_index += 1
    return rows


RESULT_COLUMNS = [
    "a",
    "beta1",
    "method",
    "geometry",
    "weighting",
    "avg_exp_abs_dev",
    "vol_mth_root",
    "avg_length",
    "n_reps",
]
