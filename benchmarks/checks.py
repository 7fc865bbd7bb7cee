"""Correctness checks applied to every benchmark op.

Each check returns a list of failure messages; an empty list means the
result passed.  The readers parse the artifacts `rankcred fit` writes, so
fit workloads are checked on what a user of the CLI sees.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from rankcred.rankdist import DS_TOL

MEAN_RTOL = 0.01  # HB posterior means against the quadrature oracle


def rank_matrix(probs, tol: float = DS_TOL) -> list[str]:
    """Doubly stochastic within `tol`, entries in [0, 1]."""
    probs = np.asarray(probs, dtype=float)
    out = []
    if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
        return [f"rank matrix has shape {probs.shape}, expected m x m"]
    if not np.all(np.isfinite(probs)):
        return ["rank matrix has non-finite entries"]
    if probs.min() < 0 or probs.max() > 1 + tol:
        out.append(f"rank matrix entries span [{probs.min():.6g}, {probs.max():.6g}]")
    for axis, what in ((0, "column"), (1, "row")):
        dev = float(np.max(np.abs(probs.sum(axis=axis) - 1)))
        if dev > tol:
            out.append(f"rank matrix {what} sums deviate from 1 by {dev:.3g}")
    return out


def expected_rank_sum(expected, tol: float = DS_TOL) -> list[str]:
    """Expected ranks of all m entities sum to m(m+1)/2.

    A row-sum error e_k moves the total by k e_k, so the tolerance scales
    with the target; 1e-11 relative covers the 12-digit output format.
    """
    expected = np.asarray(expected, dtype=float)
    m = len(expected)
    target = m * (m + 1) / 2
    total = float(expected.sum())
    if not abs(total - target) <= target * (tol + 1e-11):
        return [f"expected ranks sum to {total!r}, expected {target}"]
    return []


def selection_count(K: int, S: int) -> list[str]:
    if not 1 <= K <= S:
        return [f"selection count K={K} outside [1, S={S}]"]
    return []


def posterior_means(means, oracle_means, rtol: float = MEAN_RTOL) -> list[str]:
    rel = np.abs(np.asarray(means, float) / np.asarray(oracle_means, float) - 1)
    worst = float(rel.max())
    if not worst <= rtol:
        return [f"posterior mean off the quadrature oracle by {worst:.3%} (> {rtol:.0%})"]
    return []


def identical_artifacts(first: dict, repeat: dict) -> list[str]:
    """Same artifact names, byte for byte the same contents."""
    if sorted(first) != sorted(repeat):
        return [f"same-seed repeat wrote {sorted(repeat)}, first run wrote {sorted(first)}"]
    return [f"same-seed repeat changed {k}" for k in first if first[k] != repeat[k]]


def fit_artifacts(out: Path) -> dict:
    """Parse the artifacts of one `rankcred fit` run."""
    with open(out / "rank_matrix.csv", newline="") as f:
        rows = list(csv.reader(f))
    ids = rows[0][1:]
    probs = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    with open(out / "rank_summary.csv", newline="") as f:
        summary = list(csv.DictReader(f))
    size = json.loads((out / "size_report.json").read_text())
    post = json.loads((out / "posterior_summary.json").read_text())
    return {
        "ids": ids,
        "probs": probs,
        "expected_rank": [float(r["expected_rank"]) for r in summary],
        "K": size["selected"],
        "S": size["samples"],
        "means": [post["mean"][i] for i in ids],
    }


def fit_output(art: dict, samples: int) -> list[str]:
    """Checks every fit op gets; the oracle check is applied separately."""
    out = rank_matrix(art["probs"]) + expected_rank_sum(art["expected_rank"])
    out += selection_count(art["K"], art["S"])
    if art["S"] != samples:
        out.append(f"fit reports S={art['S']} draws, {samples} requested")
    return out
