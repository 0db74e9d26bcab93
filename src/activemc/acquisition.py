"""Which missing entries to buy next.

An entry's score is the spread of its recovered values across completion
rounds: the sum of squared deviations from the mean over the last ``m``
snapshots (all snapshots when the window is 0). Entries whose value keeps
moving are the ones the solver cannot pin down, so they are worth querying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, PoolExhausted
from .matrix import _as_mask, _as_matrix


class ScoredEntry(NamedTuple):
    row: int
    col: int
    score: float


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
    """Streaming per-entry variance statistics over completion snapshots.

    window == 0 keeps running sums over every snapshot ever recorded;
    window == m > 0 keeps a ring of the last m snapshots and subtracts
    evicted values from the sums, so both modes share one arithmetic path
    (they agree exactly while nothing has been evicted).
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
            self._sum = np.zeros(x.shape)
            self._sumsq = np.zeros(x.shape)
            if self.window > 0:
                self._ring = np.zeros((self.window,) + x.shape)
        elif x.shape != self._shape:
            raise DimensionMismatchError(
                f"snapshot shape {x.shape} changed from {self._shape}"
            )

        if self.window > 0 and self.snapshots_seen >= self.window:
            slot = self.snapshots_seen % self.window
            evicted = self._ring[slot]
            self._sum -= evicted
            self._sumsq -= evicted * evicted
        if self.window > 0:
            self._ring[self.snapshots_seen % self.window] = x

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
        scores = self._sumsq - (self._sum * self._sum) / count
        return np.maximum(scores, 0.0)


def informativeness(tracker: InformativenessTracker, mask) -> list[ScoredEntry]:
    """Scores for every currently unobserved entry."""
    grid = tracker.score_grid()
    msk = _as_mask(mask, grid.shape)
    rows, cols = np.nonzero(~msk)
    values = grid[rows, cols]
    return [
        ScoredEntry(int(r), int(c), float(s))
        for r, c, s in zip(rows.tolist(), cols.tolist(), values.tolist())
    ]


def _take_top(scored: list[tuple[float, int, int]], k: int) -> list[tuple[int, int]]:
    if k < 1:
        raise ValueError("k must be at least 1")
    if not scored:
        raise PoolExhausted("no unobserved entries left to select from")
    scored.sort(key=lambda e: (-e[0], e[1], e[2]))
    return [(r, c) for _, r, c in scored[:k]]


def select_top_k(scores: list[ScoredEntry], k: int) -> list[tuple[int, int]]:
    """The k highest-scoring entries; ties broken by (row, col) order."""
    return _take_top([(e.score, e.row, e.col) for e in scores], k)


def select_cost_ratio(scores: list[ScoredEntry], costs: CostModel, k: int) -> list[tuple[int, int]]:
    """Top k entries by score divided by the column's acquisition cost."""
    ranked = [(e.score / costs.column_costs[e.col], e.row, e.col) for e in scores]
    return _take_top(ranked, k)
