"""Core data model: datasets and ranking primitives."""

from __future__ import annotations

from collections import Counter

import numpy as np

MIDRANK = "midrank"
HIGHEST_OF_TIES = "highest"


class DomainError(ValueError):
    """Invalid input data or configuration."""


class Dataset:
    """m entities as read-only float columns: direct estimates y, their known
    sampling variances d, an m x p covariate matrix x (no intercept column;
    p = 0 when x is None) and gold-standard values (None, or one per entity).

    Each column is checked once, here; an error names the first entity at
    fault and its column.
    """

    def __init__(self, ids, y, d, x=None, gold=None):
        self.ids = list(ids)
        m = len(self.ids)
        if m < 2:
            raise DomainError(f"need at least 2 entities, got {m}")
        if len(set(self.ids)) != m:
            dup = next(i for i, n in Counter(self.ids).items() if n > 1)
            raise DomainError(f"duplicate entity id {dup!r}")
        self.y = self._column("y", y, 1)
        self.d = self._column("d", d, 1)
        if (self.d <= 0).any():
            i = np.argmax(self.d <= 0)
            raise DomainError(
                f"entity {self.ids[i]!r}: sampling variance d={self.d[i]} must be > 0"
            )
        self.x = self._column("x", np.empty((m, 0)) if x is None else x, 2)
        self.gold = None if gold is None else self._column("gold", gold, 1)

    def _column(self, name: str, values, ndim: int) -> np.ndarray:
        """`values` as a new read-only float array with `ndim` axes and m rows."""
        array = np.array(values, dtype=float)
        if array.ndim != ndim or len(array) != self.m:
            expected = f"({self.m},)" if ndim == 1 else f"({self.m}, p)"
            raise DomainError(f"column {name!r}: shape {array.shape}, expected {expected}")
        bad = np.argwhere(~np.isfinite(array))
        if len(bad):
            i, *k = bad[0]
            column = f"{name}{k[0] + 1}" if k else name
            value = array[tuple(bad[0])]
            raise DomainError(f"entity {self.ids[i]!r}: non-finite {column}={value}")
        array.flags.writeable = False
        return array

    def __eq__(self, other):
        """Same ids and equal columns."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in ("y", "d", "x", "gold")
        )

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def has_gold(self) -> bool:
        return self.gold is not None

    def gold_ranks(self) -> np.ndarray:
        """Midranks of the gold-standard values."""
        if self.gold is None:
            raise DomainError("dataset has no gold-standard values")
        return rank_of(self.gold, MIDRANK)


def rank_span(values) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest ascending rank in 1..m of each value: the places its
    tie run fills in a stable sort.  Ties are exact equality (-0.0 ties 0.0)."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    v = values[order]
    # tie run r fills the places runs[r]..runs[r+1]-1 of the sorted values
    runs = np.r_[0, np.flatnonzero(v[1:] != v[:-1]) + 1, len(v)]
    lo, hi = np.empty((2, len(v)), dtype=int)
    lo[order], hi[order] = np.repeat([runs[:-1] + 1, runs[1:]], np.diff(runs), axis=1)
    return lo, hi


def rank_of(values, tie_rule: str = MIDRANK) -> np.ndarray:
    """Ascending ranks of `values` in 1..m.

    Ties get the average position under `midrank` and the largest tied
    position under `highest`.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError("values to rank must be finite")
    if tie_rule not in (MIDRANK, HIGHEST_OF_TIES):
        raise DomainError(f"unknown tie rule {tie_rule!r}")
    lo, hi = rank_span(values)
    return (lo + hi) / 2 if tie_rule == MIDRANK else hi.astype(float)
