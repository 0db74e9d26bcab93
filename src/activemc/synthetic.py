"""Synthetic low-rank families used by tests, benchmarks and the README examples."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateLabelsError

# labeled_lowrank gives up after this many one-class draws.
_MAX_TRIES = 50


def lowrank_matrix(n: int, d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly rank-``rank`` product of two Gaussian factors."""
    if not 1 <= rank <= min(n, d):
        raise ValueError("rank must lie in [1, min(n, d)]")
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))


def sign_labels(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hard labels from a linear score; exact zeros map to +1."""
    return np.where(x @ w >= 0.0, 1, -1).astype(int)


def margin_labeled_lowrank(n: int, d: int, rank: int, rng: np.random.Generator,
                           spectrum=None,
                           label_noise: float = 0.25) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A low-rank matrix whose weakest direction encodes the labels.

    The last left factor is the (normalized) label sign pattern plus
    ``label_noise`` Gaussian jitter, so rows score near +/- a constant
    margin along the last right singular vector. Labels are then true
    linear measurements of the matrix, the regime where coupling a
    squared-loss classifier into the completion genuinely pays off.
    """
    if not 1 <= rank <= min(n, d):
        raise ValueError("rank must lie in [1, min(n, d)]")
    if spectrum is None:
        spectrum = np.geomspace(6.0, 0.8, rank) * np.sqrt(n * d) / np.sqrt(rank)
    s = np.asarray(spectrum, dtype=float)
    if s.shape != (rank,):
        raise ValueError("spectrum length must equal the rank")

    signs = rng.choice([-1.0, 1.0], size=n)
    spike = (signs + label_noise * rng.standard_normal(n)) / np.sqrt(n)
    left = np.column_stack([rng.standard_normal((n, rank - 1)), spike])
    u, _ = np.linalg.qr(left)
    v, _ = np.linalg.qr(rng.standard_normal((d, rank)))
    x = (u * s) @ v.T
    w = v[:, rank - 1]
    return x, sign_labels(x, w), w


def labeled_lowrank(n: int, d: int, rank: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A low-rank matrix with labels from a random unit weight vector.

    Resamples the matrix and the weights until both classes appear.
    """
    for _ in range(_MAX_TRIES):
        x = lowrank_matrix(n, d, rank, rng)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        y = sign_labels(x, w)
        if y.min() == -1 and y.max() == 1:
            return x, y, w
    raise DegenerateLabelsError("could not draw a two-class synthetic instance")
