"""Core data model: entities, datasets, and ranking primitives."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.stats import rankdata

MIDRANK = "midrank"
HIGHEST_OF_TIES = "highest"


class DomainError(ValueError):
    """Invalid input data or configuration."""


@dataclass(frozen=True)
class Entity:
    """One ranked unit: direct estimate y with known sampling variance d."""

    id: str
    y: float
    d: float
    x: tuple[float, ...] = ()
    gold: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.y):
            raise DomainError(f"entity {self.id!r}: non-finite y={self.y}")
        if not np.isfinite(self.d) or self.d <= 0:
            raise DomainError(f"entity {self.id!r}: sampling variance d={self.d} must be > 0")
        if any(not np.isfinite(v) for v in self.x):
            raise DomainError(f"entity {self.id!r}: non-finite covariate in {self.x}")
        if self.gold is not None and not np.isfinite(self.gold):
            raise DomainError(f"entity {self.id!r}: non-finite gold={self.gold}")


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of entities with a common covariate dimension."""

    entities: tuple[Entity, ...]

    def __post_init__(self):
        m = len(self.entities)
        if m < 2:
            raise DomainError(f"need at least 2 entities, got {m}")
        ids = [e.id for e in self.entities]
        if len(set(ids)) != m:
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise DomainError(f"duplicate entity ids: {dup}")
        p = len(self.entities[0].x)
        for e in self.entities:
            if len(e.x) != p:
                raise DomainError(
                    f"entity {e.id!r}: covariate length {len(e.x)} != dataset p={p}"
                )
        n_gold = sum(e.gold is not None for e in self.entities)
        if n_gold not in (0, m):
            raise DomainError(
                f"gold values must be present for all entities or none ({n_gold} of {m} set)"
            )

    @property
    def m(self) -> int:
        return len(self.entities)

    @property
    def p(self) -> int:
        return len(self.entities[0].x)

    @property
    def ids(self) -> list[str]:
        return [e.id for e in self.entities]

    @cached_property
    def y(self) -> np.ndarray:
        return _read_only([e.y for e in self.entities])

    @cached_property
    def d(self) -> np.ndarray:
        return _read_only([e.d for e in self.entities])

    @cached_property
    def x(self) -> np.ndarray:
        """m x p covariate matrix (no intercept column)."""
        return _read_only([e.x for e in self.entities]).reshape(self.m, self.p)

    @property
    def has_gold(self) -> bool:
        return self.entities[0].gold is not None

    @cached_property
    def gold(self) -> np.ndarray:
        if not self.has_gold:
            raise DomainError("dataset has no gold-standard values")
        return _read_only([e.gold for e in self.entities])

    def gold_ranks(self) -> np.ndarray:
        """Midranks of the gold-standard values."""
        return rank_of(self.gold, MIDRANK)


def _read_only(values) -> np.ndarray:
    """A new float array of `values` that raises on writes."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def rank_of(values, tie_rule: str = MIDRANK) -> np.ndarray:
    """Ascending ranks of `values` in 1..m.

    Ties get the average position under `midrank` and the largest tied
    position under `highest`.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError("values to rank must be finite")
    if tie_rule == MIDRANK:
        return rankdata(values, method="average")
    if tie_rule == HIGHEST_OF_TIES:
        return rankdata(values, method="max").astype(float)
    raise DomainError(f"unknown tie rule {tie_rule!r}")
