"""The paper's bound checks and the exact references POSS is measured against.

Plain functions for the tests, without input validation: coherence and
Theorem 1's recovery bound (criterion 10), Lemma 3's Hadamard trace-norm
inequality (criterion 9), POSS's default iteration budget and the exact
0/1 knapsack optimum over whole-number costs (criterion 7). Not named
``test_*``, so pytest does not collect it; test files import it by name.
"""

import math

import numpy as np

from activemc.matrix import trace_norm

# Singular values below this fraction of the largest count as zero when
# deciding the numerical rank used by coherence().
RANK_RTOL = 1e-10

# Slack allowed on Lemma 3's right-hand side for rounding in the norms.
LEMMA_TOLERANCE = 1e-9


def coherence(m) -> float:
    """Largest row norm among the singular-vector factors of ``m``.

    The factors are truncated to the numerical rank (singular values above
    ``RANK_RTOL`` times the largest). Lives in (0, 1] for a nonzero matrix;
    large values flag a matrix whose mass is concentrated in few rows or
    columns.
    """
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
    r = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    u_rows = np.linalg.norm(u[:, :r], axis=1)
    v_rows = np.linalg.norm(vh[:r, :], axis=0)
    return float(max(u_rows.max(), v_rows.max()))


def theorem1_bound(beta, r, n, d, omega_size, mu, c0=1.0) -> float:
    """Theorem 1's upper bound on the mean squared recovery error per entry.

    Shrinks as the observation count grows and grows with coherence, the
    trace-norm scale and the rank bound. Natural logarithm throughout.
    """
    size = n + d
    return float(2.0 * c0 * mu**2 * beta
                 * math.sqrt(r * size / omega_size)
                 * math.sqrt(1.0 + size * math.log(size) / omega_size))


def lemma3_sides(a, b) -> tuple[float, float]:
    """Lemma 3's two sides: ||a ∘ b||_tr and coherence(a)^2 * ||a||_tr * ||b||_tr."""
    return trace_norm(a * b), coherence(a) ** 2 * trace_norm(a) * trace_norm(b)


def lemma3_sweep(trials: int, rng: np.random.Generator, max_dim: int = 20) -> tuple[int, float]:
    """Lemma 3 on random Gaussian pairs; returns (violations, worst lhs/rhs ratio)."""
    violations = 0
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, max_dim + 1))
        d = int(rng.integers(1, max_dim + 1))
        lhs, rhs = lemma3_sides(rng.standard_normal((n, d)), rng.standard_normal((n, d)))
        if lhs > rhs + LEMMA_TOLERANCE:
            violations += 1
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return violations, worst


def default_iterations(problem) -> int:
    """POSS's mutation budget 2e·k²·n for a pool of n, k the largest subset below the sentinel."""
    n = len(problem)
    k = min(n, math.ceil(2.0 * problem.budget / float(problem.costs.min())))
    return math.ceil(2.0 * math.e * k**2 * n)


def knapsack_optimum(gains, costs, budget) -> float:
    """Best total gain of a subset whose costs sum to at most ``budget``.

    Dynamic program over the whole-number capacities 0..floor(budget)
    (Martello & Toth 1990): ``best[c]`` is the best gain within capacity c
    using the candidates seen so far. Raises on a cost that is not a whole
    number.
    """
    costs = np.asarray(costs, dtype=float)
    if (costs != np.floor(costs)).any():
        raise ValueError("knapsack_optimum needs whole-number costs")
    best = np.zeros(math.floor(budget) + 1)
    for gain, cost in zip(np.asarray(gains, dtype=float), costs.astype(int)):
        if cost < best.size:
            best[cost:] = np.maximum(best[cost:], best[:best.size - cost] + gain)
    return float(best[-1])
