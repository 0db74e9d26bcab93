"""Which missing entries to buy next.

An entry's score is the spread of its recovered values across completion
rounds: the sum of squared deviations from the mean over the last ``m``
snapshots (all snapshots when the window is 0), taken in two passes over
copies of those snapshots. Entries whose value keeps moving are the ones
the solver cannot pin down, so they are worth querying.
"""

from __future__ import annotations

from collections import deque
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
    """Per-entry variance over completion snapshots.

    Keeps a copy of every recorded snapshot, or of the last ``window`` when
    the window is positive. ``score_grid`` takes two passes over the kept
    snapshots, the mean and then the squared deviations from it, so a large
    common offset cannot cancel the spread away.
    """

    def __init__(self, window: int = 0):
        if window < 0:
            raise ValueError("window must be 0 (unbounded) or positive")
        self.window = int(window)
        self._kept: deque[np.ndarray] = deque(maxlen=self.window or None)

    @property
    def retained(self) -> int:
        """Number of snapshots currently contributing to the statistics."""
        return len(self._kept)

    def record_snapshot(self, x_hat) -> "InformativenessTracker":
        x = _as_matrix(x_hat).copy()
        if self._kept and x.shape != self._kept[0].shape:
            raise DimensionMismatchError(
                f"snapshot shape {x.shape} changed from {self._kept[0].shape}"
            )
        self._kept.append(x)
        return self

    def score_grid(self) -> np.ndarray:
        """Sum of squared deviations from the window mean, per entry."""
        if not self._kept:
            raise ValueError("no snapshots recorded yet")
        deviations = np.stack(self._kept)
        deviations -= deviations.mean(axis=0)
        return np.square(deviations, out=deviations).sum(axis=0)


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
