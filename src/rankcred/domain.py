"""Core data model: datasets and ranking primitives."""

from __future__ import annotations

from collections import Counter

import numpy as np

MIDRANK = "midrank"
HIGHEST_OF_TIES = "highest"

# cells (rows x columns) per block of rows that a row sort or the rank count
# handles at once: bounds its temporaries at a few MB whatever the shape
BLOCK_CELLS = 2**18


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


def row_blocks(n: int, m: int) -> list[slice]:
    """Consecutive slices of at most max(1, BLOCK_CELLS // m) rows covering 0..n-1."""
    step = max(1, BLOCK_CELLS // m)
    return [slice(start, start + step) for start in range(0, n, step)]


def sort_rows(values: np.ndarray, make_block=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stable argsort, in the smallest unsigned dtype that holds
    n - 1 for rows of n, and exact-tie flag (-0.0 ties 0.0).  When given,
    make_block(rows) is called for each of `row_blocks` before that block
    is read: the samplers make their draws there, block by block.

    Per block of rows, one sort of uint64 keys that preserve the order of the
    values and hold the column index in their low (n-1).bit_length() bits
    gives the order: exact ties sort by index.  Rows where two neighbouring
    keys agree above those bits (every exact tie and any near-tie the keys
    may misorder) are sorted again by value, which flags the exact ties.
    Every block's keys and masks reuse the buffers of the first."""
    n = values.shape[1]
    index_mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    order = np.empty(values.shape, dtype=np.min_scalar_type(n - 1))
    tied = np.zeros(len(values), dtype=bool)
    blocks = row_blocks(len(values), n)
    first = values[blocks[0]]
    key_buf, sign_buf = np.empty((2,) + first.shape, dtype=np.uint64)
    near_buf = np.empty((len(first), n - 1), dtype=bool)
    for rows in blocks:
        if make_block is not None:
            make_block(rows)
        block = values[rows]
        keys, sign = key_buf[: len(block)], sign_buf[: len(block)]
        np.add(block, 0.0, out=keys.view(np.float64))  # -0.0 and 0.0: one key
        # negative: flip every bit; otherwise set the sign bit
        np.right_shift(keys.view(np.int64), 63, out=sign.view(np.int64))
        sign |= np.uint64(1 << 63)
        keys ^= sign
        keys &= ~index_mask
        keys |= np.arange(n, dtype=np.uint64)
        keys.sort(axis=1)
        order[rows] = keys  # the cast keeps the low bits, the index among them
        order[rows] &= order.dtype.type(index_mask)
        keys |= index_mask  # what is left to compare: the bits above the index
        near = np.equal(keys[:, 1:], keys[:, :-1], out=near_buf[: len(block)]).any(axis=1)
        near = rows.start + np.flatnonzero(near)
        if len(near):  # no value argsort on tie-free blocks
            v = values[near]
            order[near] = near_order = np.argsort(v, axis=1, kind="stable")
            v = np.take_along_axis(v, near_order, axis=1)
            tied[near] = (v[:, 1:] == v[:, :-1]).any(axis=1)
    return order, tied


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
