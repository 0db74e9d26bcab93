"""Numeric sanity checks tied to the recovery guarantees.

Two checks: an explicit error bound for low-coherence low-rank recovery,
evaluated as a number, and a trace-norm inequality for Hadamard products
used as a Monte-Carlo property (a violation beyond tolerance indicates a
bug in the norm or coherence primitives, not in the inequality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrix import _as_matrix, coherence, trace_norm

LEMMA_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BoundParams:
    beta: float
    r: int
    n: int
    d: int
    omega_size: int
    mu: float
    c0: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("matrix dimensions must be positive")
        if not 1 <= self.r <= min(self.n, self.d):
            raise ValueError("rank bound must lie in [1, min(n, d)]")
        if not 0 <= self.omega_size <= self.n * self.d:
            raise ValueError("omega_size must lie in [0, n*d]")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")


def theorem1_bound(p: BoundParams) -> float:
    """Upper bound on the mean squared recovery error per entry.

    Shrinks as the observation count grows and grows with coherence, the
    trace-norm scale, and the rank bound. Natural logarithm throughout.
    """
    if p.omega_size < 1:
        raise ValueError("the bound needs at least one observed entry")
    size = p.n + p.d
    lead = 2.0 * p.c0 * p.mu**2 * p.beta
    return float(
        lead
        * math.sqrt(p.r * size / p.omega_size)
        * math.sqrt(1.0 + size * math.log(size) / p.omega_size)
    )


class Lemma3Result(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def lemma3_check(a, b) -> Lemma3Result:
    """Trace norm of the entrywise product against its coherence bound.

    lhs = ||a ∘ b||_tr, rhs = coherence(a)^2 * ||a||_tr * ||b||_tr.
    """
    aa = _as_matrix(a)
    bb = _as_matrix(b)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    lhs = trace_norm(aa * bb)
    rhs = coherence(aa) ** 2 * trace_norm(aa) * trace_norm(bb)
    return Lemma3Result(lhs=lhs, rhs=rhs, holds=lhs <= rhs + LEMMA_TOLERANCE)


def lemma3_sweep(trials: int, rng: np.random.Generator, max_dim: int = 20) -> tuple[int, float]:
    """Random-pair sweep; returns (violations, worst lhs/rhs ratio)."""
    if trials < 1 or max_dim < 1:
        raise ValueError(f"trials and max_dim must be at least 1, got {trials} and {max_dim}")
    violations = 0
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, max_dim + 1))
        d = int(rng.integers(1, max_dim + 1))
        result = lemma3_check(rng.standard_normal((n, d)), rng.standard_normal((n, d)))
        if not result.holds:
            violations += 1
        if result.rhs > 0:
            worst = max(worst, result.lhs / result.rhs)
    return violations, worst
