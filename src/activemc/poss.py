"""Budgeted batch selection as bi-objective Pareto subset optimization.

Candidates are the positions 0..n-1 of a pool, each with a score (to
maximize) and a cost (to minimize); the caller maps positions back to
entries. Subsets are bit vectors rated on two objectives:
j1 = minus the total score, with a +inf sentinel for the empty subset and
for subsets costing at least twice the budget; j2 = the total cost. An
evolutionary loop (POMC, after Qian, Yu & Zhou 2015 and Qian et al. 2017)
keeps an archive of mutually nondominated subsets sorted by cost, and the
final answer is the best-scoring archived subset within the budget.

The loop draws its randomness in chunks of children: one parent pick per
child, and standard bit mutation for the whole chunk at once, as one
binomial count of flipped bits among all its children's bits and a
uniform set of that many distinct bits. A child flipping nothing is
skipped; the rest are screened with objectives updated from the parent's
by the flipped entries, and only the children that pass are evaluated in
full and archived.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# Children drawn per batch of random numbers, bounding the memory of a long run.
_CHUNK = 1024


@dataclass
class BiObjectiveProblem:
    """A pool of candidates: per position a score and a cost, and one budget for their sum."""

    informativeness: np.ndarray
    costs: np.ndarray
    budget: float

    def __post_init__(self):
        self.informativeness = np.asarray(self.informativeness, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        if self.informativeness.ndim != 1 or self.costs.shape != self.informativeness.shape:
            raise DimensionMismatchError("scores and costs must be 1-d vectors of one length")
        if not ((0 < self.costs) & (self.costs < math.inf)).all():
            raise ValueError("all candidate costs must be positive and finite")
        if not ((0 <= self.informativeness) & (self.informativeness < math.inf)).all():
            raise ValueError("informativeness must be finite and nonnegative")
        if not 0 < self.budget < math.inf:  # NaN fails too
            raise ValueError("budget must be positive and finite")

    def __len__(self) -> int:
        return len(self.informativeness)


@dataclass
class Solution:
    bits: np.ndarray
    j1: float
    j2: float


def evaluate(problem: BiObjectiveProblem, bits) -> Solution:
    b = np.asarray(bits, dtype=bool)
    if b.shape != (len(problem),):
        raise DimensionMismatchError("bit vector length does not match candidate count")
    j2 = float(problem.costs[b].sum())
    if not b.any() or j2 >= 2.0 * problem.budget:
        j1 = math.inf
    else:
        j1 = -float(problem.informativeness[b].sum())
    return Solution(bits=b.copy(), j1=j1, j2=j2)


class SolutionArchive:
    """Mutually nondominated solutions, kept sorted by ascending j2.

    Starts from one member and grows only through ``insert``. No member is
    weakly dominated by another, so j2 strictly rises and j1 strictly falls
    along the list: a dominance test is one bisection, and the members a
    newcomer evicts form one contiguous slice.
    """

    def __init__(self, first: Solution):
        self.solutions = [first]
        self._j1 = [first.j1]
        self._j2 = [first.j2]

    def __len__(self) -> int:
        return len(self.solutions)

    def weakly_dominated(self, j1: float, j2: float) -> bool:
        """True when some archived solution is <= (j1, j2) in both objectives."""
        # the last member with j2 at most ``j2`` has the lowest j1 among them
        i = bisect_right(self._j2, j2)
        return i > 0 and self._j1[i - 1] <= j1

    def insert(self, candidate: Solution) -> None:
        """Add a candidate no member weakly dominates, evicting what it weakly dominates."""
        lo = hi = bisect_left(self._j2, candidate.j2)
        while hi < len(self._j1) and self._j1[hi] >= candidate.j1:
            hi += 1
        self.solutions[lo:hi] = [candidate]
        self._j1[lo:hi] = [candidate.j1]
        self._j2[lo:hi] = [candidate.j2]

    def best_within(self, budget: float) -> Solution | None:
        """The highest-scoring member costing at most ``budget``, if any is finite."""
        i = bisect_right(self._j2, budget) - 1
        if i < 0 or not math.isfinite(self._j1[i]):
            return None
        return self.solutions[i]


def _draw_flips(n: int, flip_prob: float, size: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Flipped positions of ``size`` children under standard bit mutation.

    Draws how many of the chunk's ``size * n`` bits flip, Binomial(size * n,
    flip_prob), then that many distinct bits uniformly: the law of flipping
    every bit independently with probability ``flip_prob``. Returns the
    per-child flip counts and the positions, concatenated child after child,
    each child's in ascending order.
    """
    flat = np.sort(rng.choice(size * n, rng.binomial(size * n, flip_prob), replace=False))
    return np.bincount(flat // n, minlength=size), flat % n


def _evolve(problem: BiObjectiveProblem, iterations: int, rng: np.random.Generator,
            flip_prob: float) -> SolutionArchive:
    """Run ``iterations`` mutations from the empty subset; return the final archive.

    Each child mutates a uniformly chosen archived parent. A child that
    flips no bit equals its parent and is skipped. The others are screened
    with objectives updated from the parent's by the flipped entries; only a
    child that passes is evaluated from scratch and re-checked before it is
    archived, so every archived (j1, j2) comes from a full sum. The screen
    differs from the full sums by rounding only, so the sole children it
    turns away wrongly lie within rounding of an archived pair or of the
    2 * budget sentinel.
    """
    n = len(problem)
    costs = problem.costs.tolist()
    gains = problem.informativeness.tolist()
    cap = 2.0 * problem.budget
    archive = SolutionArchive(evaluate(problem, np.zeros(n, dtype=bool)))
    for done in range(0, iterations, _CHUNK):
        size = min(_CHUNK, iterations - done)
        picks = rng.random(size).tolist()
        counts, positions = _draw_flips(n, flip_prob, size, rng)
        ends = np.cumsum(counts).tolist()
        positions = positions.tolist()
        begin = 0
        for pick, end in zip(picks, ends):
            flips = positions[begin:end]
            begin = end
            if not flips:
                continue
            parent = archive.solutions[int(pick * len(archive))]
            bits = parent.bits
            # the empty subset is the only archived one with the sentinel:
            # any other sentinel subset costs more and is dominated by it
            gain = 0.0 if parent.j1 == math.inf else -parent.j1
            cost = parent.j2
            for j in flips:
                if bits[j]:
                    cost -= costs[j]
                    gain -= gains[j]
                else:
                    cost += costs[j]
                    gain += gains[j]
            if cost >= cap or archive.weakly_dominated(-gain, cost):
                continue
            child_bits = bits.copy()
            child_bits[flips] ^= True
            child = evaluate(problem, child_bits)
            if not archive.weakly_dominated(child.j1, child.j2):
                archive.insert(child)
    return archive


def poss_optimize(problem: BiObjectiveProblem, iterations: int, *,
                  rng: np.random.Generator) -> np.ndarray:
    """Evolve the archive, then return the best in-budget subset's positions, ascending.

    Starts from the empty subset; each of the ``iterations`` mutates a
    uniformly chosen archived solution, flipping each bit with probability
    1/n, and keeps it only if nothing archived is at least as good in both
    objectives. None from an empty pool or when nothing fits the budget.
    Deterministic for a given seeded ``rng``.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    n = len(problem)
    if n == 0:
        return np.zeros(0, dtype=int)

    best = _evolve(problem, iterations, rng, 1.0 / n).best_within(problem.budget)
    if best is None:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(best.bits)
