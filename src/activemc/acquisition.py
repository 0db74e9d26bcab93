"""Which missing entries to buy next.

An entry's score is the spread of its recovered values across completion
rounds: the sum of squared deviations from the mean over the last ``m``
snapshots (all snapshots when the window is 0), taken in two passes over
copies of those snapshots. Entries whose value keeps moving are the ones
the solver cannot pin down, so they are worth querying.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DimensionMismatchError
from .matrix import _as_mask, _as_matrix, _check_finite, _is_int


class InformativenessTracker:
    """Per-entry variance over completion snapshots.

    Keeps a copy of every recorded snapshot, or of the last ``window`` when
    the window is at least 2; a window of 1 never holds the two snapshots a
    spread needs, so it is rejected. ``score_grid`` takes two passes over
    the kept snapshots, the mean and then the squared deviations from it,
    so a large common offset cannot cancel the spread away.
    """

    def __init__(self, window: int = 0):
        if not _is_int(window):  # int() would truncate 2.5; False would mean unbounded
            raise TypeError(f"window must be an integer, got {window!r}")
        self.window = int(window)
        if self.window < 0 or self.window == 1:
            raise ValueError("window must be 0 (unbounded) or at least 2")
        self._kept: deque[np.ndarray] = deque(maxlen=self.window or None)

    @property
    def retained(self) -> int:
        """Number of snapshots currently contributing to the statistics."""
        return len(self._kept)

    def record_snapshot(self, x_hat) -> "InformativenessTracker":
        x = _check_finite(_as_matrix(x_hat)).copy()
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


def select_top_k(scored, k: int) -> np.ndarray:
    """Positions of the k top scores in ``(rows, cols, scores)``, ties by row, then column."""
    if not _is_int(k):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    rows, cols, scores = scored
    return np.lexsort((cols, rows, -scores))[:k]


def select_cost_ratio(scored, column_costs, k: int) -> np.ndarray:
    """Positions of the top k entries of ``(rows, cols, scores)`` by score over column price.

    ``column_costs`` holds one price per column, each positive and finite;
    the first that is not is named, and so is the largest scored column
    when it has no price. None from an empty pool.
    """
    rows, cols, scores = scored
    prices = np.asarray(column_costs, dtype=float)
    bad = np.flatnonzero(~((0 < prices) & (prices < np.inf)))
    if bad.size:
        raise ValueError(f"column {bad[0]} price must be positive and finite, got {prices[bad[0]]}")
    if cols.size and cols.max() >= prices.size:
        raise DimensionMismatchError(f"column {cols.max()} has no price: {prices.size} prices given")
    return select_top_k((rows, cols, scores / prices[cols]), k)
