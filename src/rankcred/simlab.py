"""Simulation harness comparing KWW / HB / UB rank-set methods.

Covariates are drawn once and held fixed; each (model variance, slope)
cell runs `n_reps` replications of: generate truth, fit all methods,
score average posterior expected absolute rank deviation and set sizes.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import kww, metrics, rankdist
from .credset import CARTESIAN, ELLIPTICAL
from .domain import Dataset, DomainError, rank_of
from .fileio import baseball_dataset
from .posterior import gibbs_hb, sample_ub
from .posterior import summarize  # noqa: F401  unused: benchmarks/tracing.py rebinds it by name


def _baseball_d() -> tuple[float, ...]:
    return tuple(baseball_dataset().d)


@dataclass(frozen=True)
class SimConfig:
    a_grid: tuple[float, ...] = (0.001, 0.005, 0.01, 0.1, 1.0)
    beta0: float = 0.2
    beta1_grid: tuple[float, ...] = (0.0, 0.4)
    d: tuple[float, ...] = field(default_factory=_baseball_d)
    n_reps: int = 200
    alpha: float = 0.1
    seed: int = 0
    samples: int = 2000  # posterior draws per replication

    def __post_init__(self):
        # a JSON config reaches here unchecked: each field must hold its annotated
        # type (a JSON true or false is no number, though bool is an Integral),
        # and each tuple at least one value
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if f.type.startswith("tuple") else (value,)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if not isinstance(items, tuple) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in items
            ):
                raise DomainError(f"{f.name}={value!r} must be {f.type}")
            if not items:
                raise DomainError(f"{f.name}={value!r} must hold at least one value")
            # JSON admits NaN, Infinity and integers past the float range
            if f.type != "int" and not all(abs(v) <= sys.float_info.max for v in items):
                raise DomainError(f"{f.name}={value!r} must be finite")
        if self.n_reps < 1:
            raise DomainError(f"n_reps={self.n_reps} must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed={self.seed} must be >= 0")
        if any(a <= 0 for a in self.a_grid):
            raise DomainError("all model variances in a_grid must be > 0")
        if any(v <= 0 for v in self.d):
            raise DomainError("d must hold positive sampling variances")
        if self.samples <= self.m + 1:  # each replication fits an HB ellipse
            raise DomainError(f"samples={self.samples} must be > m + 1 = {self.m + 1}")

    @property
    def m(self) -> int:
        return len(self.d)


def generate_instance(x, beta0, beta1, a, d, rng):
    """One synthetic truth and dataset: theta_i ~ N(beta0 + beta1 x_i, a),
    y_i ~ N(theta_i, d_i), gold set to the true theta.

    The dataset carries the covariate column only when the cell actually
    uses one (beta1 != 0).
    """
    if a <= 0:
        raise DomainError(f"a={a} must be > 0")
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    theta = beta0 + beta1 * x + np.sqrt(a) * rng.standard_normal(len(x))
    y = theta + np.sqrt(d) * rng.standard_normal(len(x))
    ids = [f"e{i + 1}" for i in range(len(x))]
    return theta, Dataset(ids, y, d, x=x[:, None] if beta1 != 0 else None, gold=theta)


def run_cell(cfg: SimConfig, x, a, beta1, cell_index):
    """Averages over replications for one (a, beta1) cell; returns row dicts.

    Each replication makes one `rankdist.Fit` per model and selects its
    ellipse first: the ellipse's one distance pass over all S draws then
    weights both selections' `mahal` rows."""
    acc = {}  # (method, geometry, weighting) -> [dev_sum, root_sum, len_sum]

    def add(key, dev, size):
        entry = acc.setdefault(key, [0.0, 0.0, 0.0])
        entry[0] += dev
        entry[1] += size.vol_mth_root
        entry[2] += size.avg_length

    for rep in range(cfg.n_reps):
        rng = np.random.default_rng([cfg.seed, cell_index, rep])
        theta_true, ds = generate_instance(x, cfg.beta0, beta1, a, cfg.d, rng)
        xi = rank_of(theta_true)

        ranks = kww.rank_confidence_set(ds, cfg.alpha, kww.INDEPENDENCE)
        kww_dev = metrics.kww_abs_deviation(ranks.rank_lo, ranks.rank_hi, xi).mean()
        add(("KWW", "cartesian", "none"), kww_dev, metrics.orthotope_size(ranks.intervals))

        ub = rankdist.Fit(ds, sample_ub(ds, cfg.samples, rng.integers(2**63)))
        hb = rankdist.Fit(ds, gibbs_hb(ds, cfg.samples, rng.integers(2**63)))
        for method, fit in (("UB", ub), ("HB", hb)):
            ellipse = fit.select(ELLIPTICAL, cfg.alpha)
            for sel in (fit.select(CARTESIAN, cfg.alpha), ellipse):
                for weighting in (rankdist.EQUAL, rankdist.MAHALANOBIS_EXP):
                    dist = fit.distribution(sel, weighting)
                    dev = metrics.expected_abs_deviation(dist.probs, xi).mean()
                    add((method, sel.geometry, weighting), dev, sel.size)

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
