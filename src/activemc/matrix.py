"""A partially observed matrix and its trace norm.

Everything operates on float64 numpy arrays. Matrices at the scale this
package targets (up to a few tens of thousands of rows and ~100 columns)
are cheap to hold dense, so there is no sparse machinery anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericError


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself; raises naming its first non-finite entry, row-major."""
    finite = np.isfinite(a)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NumericError(f"non-finite value for entry ({row}, {col})")
    return a


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, a numpy one too; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_mask(mask, shape) -> np.ndarray:
    m = np.asarray(mask)
    if m.shape != shape:
        raise DimensionMismatchError(
            f"mask shape {m.shape} does not match value shape {shape}"
        )
    return m.astype(bool)


@dataclass
class PartialMatrix:
    """A dense value grid plus a boolean observation mask (True = observed).

    Unobserved cells of ``values`` are pinned to zero at construction, so
    the stored grid is always the masked projection of the data that
    produced it and unobserved ground truth can never leak through. An
    observed value must be finite, at construction as in ``observe``.
    Observation is one-way: a cell can be revealed once and never hidden.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = _as_matrix(self.values).copy()
        self.mask = _as_mask(self.mask, self.values.shape).copy()
        self.values[~self.mask] = 0.0
        _check_finite(self.values)  # only observed cells are left to fail

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def observe(self, row: int, col: int, value: float) -> None:
        """Reveal one cell. Raises if the cell is outside the grid or already observed."""
        if not (_is_int(row) and _is_int(col)):
            raise TypeError(f"row and col must be integers, got entry ({row!r}, {col!r})")
        n, d = self.values.shape
        # a negative index would reveal a cell counted from the end
        if not (0 <= row < n and 0 <= col < d):
            raise IndexError(f"entry ({row}, {col}) is outside the {n}x{d} grid")
        if self.mask[row, col]:
            raise ValueError(f"entry ({row}, {col}) is already observed")
        if not np.isfinite(value):
            raise NumericError(f"non-finite value for entry ({row}, {col})")
        self.values[row, col] = value
        self.mask[row, col] = True


def trace_norm(m) -> float:
    """Sum of singular values (nuclear norm)."""
    a = _check_finite(_as_matrix(m))
    return float(np.linalg.svd(a, compute_uv=False).sum())
