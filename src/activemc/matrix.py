"""Partially observed matrices and the dense linear algebra behind them.

Everything operates on float64 numpy arrays. Matrices at the scale this
package targets (up to a few tens of thousands of rows and ~100 columns)
are cheap to hold dense, so there is no sparse machinery anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericError, UndefinedCoherenceError

# Singular values below this fraction of the largest count as zero when
# deciding the numerical rank used by coherence().
RANK_RTOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericError("matrix has non-finite entries")
    return a


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
        finite = np.isfinite(self.values)
        if not finite.all():  # only observed cells are left to fail
            row, col = np.argwhere(~finite)[0]
            raise NumericError(f"non-finite value for entry ({row}, {col})")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def observe(self, row: int, col: int, value: float) -> None:
        """Reveal one cell. Raises if the cell is already observed."""
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


def coherence(m) -> float:
    """Largest row norm among the singular-vector factors of ``m``.

    The factors are truncated to the numerical rank (singular values above
    ``RANK_RTOL`` times the largest). Lives in (0, 1]; large values flag a
    matrix whose mass is concentrated in few rows or columns.
    """
    a = _check_finite(_as_matrix(m))
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise UndefinedCoherenceError("coherence is undefined for a zero matrix")
    r = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    u_rows = np.linalg.norm(u[:, :r], axis=1)
    v_rows = np.linalg.norm(vh[:r, :], axis=0)
    return float(max(u_rows.max(), v_rows.max()))
