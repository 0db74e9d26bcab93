"""Binary linear model with squared loss, plus the evaluation metrics.

The model is ``score(x) = x @ w + b``; training solves the ridge normal
equations in closed form with the intercept left unpenalized. Labels are
strictly -1/+1 throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, DimensionMismatchError, RankDeficiencyError
from .matrix import _as_matrix


def _as_labels(labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DimensionMismatchError("labels must be a 1-d vector")
    if not ((y == 1) | (y == -1)).all():
        raise ValueError("labels must take values in {-1, +1}")
    return y.astype(float)


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise DimensionMismatchError("weights must be a 1-d vector")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")


@dataclass
class LabeledSplit:
    """Feature rows with their labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = _as_matrix(self.features)
        self.labels = _as_labels(self.labels).astype(int)
        if self.features.shape[0] != self.labels.shape[0]:
            raise DimensionMismatchError("feature rows and labels disagree in length")

    def __len__(self) -> int:
        return self.labels.shape[0]


def train_ridge(x, labels, ridge: float = 0.0) -> LinearModel:
    """Exact minimizer of ``||x w + b 1 - y||^2 + ridge * ||w||^2``.

    Solved via the normal equations on the intercept-augmented system; the
    intercept is not penalized. With ``ridge == 0`` a singular system is an
    error rather than a silent minimum-norm answer.
    """
    a = _as_matrix(x)
    y = _as_labels(labels)
    n, d = a.shape
    if n < 1:
        raise ValueError("need at least one training row")
    if y.shape[0] != n:
        raise DimensionMismatchError("labels length does not match feature rows")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")

    # the Gram matrix and right-hand side of the system augmented with a
    # column of ones, built blockwise rather than from a stacked copy
    gram = np.empty((d + 1, d + 1))
    gram[:d, :d] = a.T @ a
    gram[:d, :d].flat[:: d + 1] += ridge
    gram[d, :d] = gram[:d, d] = a.sum(axis=0)
    gram[d, d] = n
    rhs = np.empty(d + 1)
    rhs[:d] = y @ a
    rhs[d] = y.sum()

    if ridge == 0.0:
        spectrum = np.linalg.svd(gram, compute_uv=False)
        if spectrum[0] == 0.0 or spectrum[-1] <= 1e-12 * spectrum[0]:
            raise RankDeficiencyError(
                "normal system is singular; pass ridge > 0 for rank-deficient data"
            )
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(str(exc)) from exc
    return LinearModel(weights=beta[:d], bias=float(beta[d]))


def decision_values(model: LinearModel, x) -> np.ndarray:
    a = _as_matrix(x)
    if a.shape[1] != model.weights.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {a.shape[1]} columns, model expects {model.weights.shape[0]}"
        )
    return a @ model.weights + model.bias


def accuracy(scores, labels) -> float:
    s = np.asarray(scores, dtype=float)
    y = _as_labels(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise DimensionMismatchError("scores and labels must be equal-length vectors")
    if s.size == 0:
        raise ValueError("accuracy of an empty set is undefined")
    predicted = np.where(s >= 0.0, 1.0, -1.0)
    return float(np.mean(predicted == y))


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Computed from rank sums with average ranks on tied scores, so it equals
    the normalized Mann-Whitney U statistic.
    """
    s = np.asarray(scores, dtype=float)
    y = _as_labels(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise DimensionMismatchError("scores and labels must be equal-length vectors")
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == -1))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("AUC needs at least one positive and one negative")

    order = np.argsort(s, kind="mergesort")
    _, group, counts = np.unique(s[order], return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    mean_rank = starts + (counts + 1) / 2.0  # 1-based average rank per tied group
    ranks = np.empty(s.size)
    ranks[order] = mean_rank[group]

    u_stat = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))
