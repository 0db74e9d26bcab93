"""Which missing entries to buy next.

An entry's score is the spread of its recovered values across completion
rounds: the sum of squared deviations from the mean over the last ``m``
snapshots (all snapshots when the window is 0). Entries whose value keeps
moving are the ones the solver cannot pin down, so they are worth querying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PoolExhausted
from .matrix import _as_mask, _as_matrix


@dataclass
class CostModel:
    """Per-column acquisition prices."""

    column_costs: np.ndarray

    def __post_init__(self):
        self.column_costs = np.asarray(self.column_costs, dtype=float)
        if self.column_costs.ndim != 1:
            raise DimensionMismatchError("column_costs must be a 1-d vector")
        if not (self.column_costs > 0).all():
            raise ValueError("all column costs must be positive")


class InformativenessTracker:
    """Per-entry variance statistics over completion snapshots.

    window == 0 keeps running sums over every snapshot ever recorded;
    window == m > 0 keeps a ring of the last m snapshots and sums it when
    scored, so a large evicted value cannot swamp the small ones retained.
    Before any eviction the ring is summed in snapshot order, so both modes
    agree exactly.
    """

    def __init__(self, window: int = 0):
        if window < 0:
            raise ValueError("window must be 0 (unbounded) or positive")
        self.window = int(window)
        self.snapshots_seen = 0
        self._shape: tuple[int, int] | None = None
        self._sum: np.ndarray | None = None
        self._sumsq: np.ndarray | None = None
        self._ring: np.ndarray | None = None

    @property
    def retained(self) -> int:
        """Number of snapshots currently contributing to the statistics."""
        if self.window == 0:
            return self.snapshots_seen
        return min(self.snapshots_seen, self.window)

    def record_snapshot(self, x_hat) -> "InformativenessTracker":
        x = _as_matrix(x_hat)
        if self._shape is None:
            self._shape = x.shape
            if self.window > 0:
                self._ring = np.zeros((self.window,) + x.shape)
            else:
                self._sum = np.zeros(x.shape)
                self._sumsq = np.zeros(x.shape)
        elif x.shape != self._shape:
            raise DimensionMismatchError(
                f"snapshot shape {x.shape} changed from {self._shape}"
            )

        if self.window > 0:
            self._ring[self.snapshots_seen % self.window] = x
        else:
            self._sum += x
            self._sumsq += x * x
        self.snapshots_seen += 1
        return self

    def score_grid(self) -> np.ndarray:
        """Sum of squared deviations from the window mean, per entry."""
        if self.snapshots_seen == 0:
            raise ValueError("no snapshots recorded yet")
        count = self.retained
        if count < 2:
            return np.zeros(self._shape)
        if self.window > 0:
            kept = self._ring[:count]
            total, total_sq = kept.sum(axis=0), (kept * kept).sum(axis=0)
        else:
            total, total_sq = self._sum, self._sumsq
        scores = total_sq - (total * total) / count
        return np.maximum(scores, 0.0)


def informativeness(tracker: InformativenessTracker,
                    mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, scores)`` of every unobserved entry, in row-major order."""
    grid = tracker.score_grid()
    rows, cols = np.nonzero(~_as_mask(mask, grid.shape))
    return rows, cols, grid[rows, cols]


def rank_entries(rows, cols, keys, k: int) -> np.ndarray:
    """Positions of the k largest keys; ties broken by (row, col) order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(keys) == 0:
        raise PoolExhausted("no unobserved entries left to select from")
    return np.lexsort((cols, rows, -keys))[:k]


def _top_entries(rows, cols, keys, k: int) -> list[tuple[int, int]]:
    top = rank_entries(rows, cols, keys, k)
    return list(zip(rows[top].tolist(), cols[top].tolist()))


def select_top_k(scored, k: int) -> list[tuple[int, int]]:
    """The k highest-scoring entries of ``(rows, cols, scores)``."""
    return _top_entries(*scored, k)


def select_cost_ratio(scored, costs: CostModel, k: int) -> list[tuple[int, int]]:
    """Top k entries of ``(rows, cols, scores)`` by score over column cost."""
    rows, cols, scores = scored
    return _top_entries(rows, cols, scores / costs.column_costs[cols], k)
