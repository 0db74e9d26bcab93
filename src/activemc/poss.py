"""Budgeted batch selection as bi-objective Pareto subset optimization.

Candidates are missing entries with a score (to maximize) and a per-column
cost (to minimize). Subsets are bit vectors rated on two objectives:
j1 = minus the total score, with a +inf sentinel for the empty subset and
for subsets costing at least twice the budget; j2 = the total cost. An
evolutionary loop (POMC, after Qian, Yu & Zhou 2015 and Qian et al. 2017)
keeps an archive of mutually nondominated subsets sorted by cost, and the
final answer is the best-scoring archived subset within the budget.

The loop draws its randomness in batches: one parent pick per child and
standard bit mutation as a binomial flip count plus a uniform set of
positions. A child flipping nothing is skipped; the rest are screened with
objectives updated from the parent's by the flipped entries, and only the
children that pass are evaluated in full and archived.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

# Children drawn per batch of random numbers, bounding the memory of a long run.
_CHUNK = 1024


@dataclass
class BiObjectiveProblem:
    candidates: list[tuple[int, int]]
    informativeness: np.ndarray
    costs: np.ndarray
    budget: float

    def __post_init__(self):
        self.informativeness = np.asarray(self.informativeness, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        n = len(self.candidates)
        if len(set(self.candidates)) != n:
            raise ValueError("candidate entries must be distinct")
        if self.informativeness.shape != (n,) or self.costs.shape != (n,):
            raise DimensionMismatchError("scores and costs must match the candidate count")
        if n and not (self.costs > 0).all():
            raise ValueError("all candidate costs must be positive")
        if n and not (self.informativeness >= 0).all():
            raise ValueError("informativeness must be nonnegative")
        if not 0 < self.budget < math.inf:  # NaN fails too
            raise ValueError("budget must be positive and finite")

    def __len__(self) -> int:
        return len(self.candidates)


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


def dominates(a: Solution, b: Solution) -> bool:
    return (a.j1 <= b.j1 and a.j2 <= b.j2) and (a.j1 < b.j1 or a.j2 < b.j2)


@dataclass
class SolutionArchive:
    """Mutually nondominated solutions, kept sorted by ascending j2.

    No member is weakly dominated by another, so j2 strictly rises and j1
    strictly falls along the list: a dominance test is one bisection, and
    the members a newcomer evicts form one contiguous slice.
    """

    solutions: list[Solution] = field(default_factory=list)

    def __post_init__(self):
        self.solutions = sorted(self.solutions, key=lambda s: s.j2)
        self._j1 = [s.j1 for s in self.solutions]
        self._j2 = [s.j2 for s in self.solutions]
        if (any(a >= b for a, b in zip(self._j2, self._j2[1:]))
                or any(a <= b for a, b in zip(self._j1, self._j1[1:]))):
            raise ValueError("archived solutions must not weakly dominate each other")

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

    def mutually_nondominated(self) -> bool:
        """Full pairwise check; used by tests and debug assertions."""
        for i, a in enumerate(self.solutions):
            for j, b in enumerate(self.solutions):
                if i != j and dominates(a, b):
                    return False
        return True


def default_iterations(problem: BiObjectiveProblem) -> int:
    """Mutation budget scaled to the largest subset the sentinel lets through."""
    n = len(problem)
    if n == 0:
        return 1
    cardinality_cap = min(n, math.ceil(2.0 * problem.budget / float(problem.costs.min())))
    return max(1, math.ceil(2.0 * math.e * cardinality_cap**2 * n))


def _draw_flips(n: int, flip_prob: float, size: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Flipped positions of ``size`` children under standard bit mutation.

    Each child flips Binomial(n, flip_prob) bits at a uniformly drawn set of
    distinct positions, which is the law of flipping every bit independently
    with probability ``flip_prob``. Returns the per-child flip counts and the
    positions, concatenated child after child.
    """
    counts = rng.binomial(n, flip_prob, size)
    positions = rng.integers(n, size=int(counts.sum()))
    # A child whose independent draws repeat a position is rejected and
    # redrawn without replacement, which also ends when it flips all n bits.
    keys = np.sort(np.repeat(np.arange(size), counts) * n + positions)
    rejected = np.zeros(size, dtype=bool)
    rejected[keys[1:][np.diff(keys) == 0] // n] = True
    starts = np.cumsum(counts) - counts
    for c in np.flatnonzero(rejected):
        positions[starts[c]:starts[c] + counts[c]] = rng.choice(n, counts[c], replace=False)
    return counts, positions


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
    archive = SolutionArchive([evaluate(problem, np.zeros(n, dtype=bool))])
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


def poss_optimize(problem: BiObjectiveProblem, iterations: int | None = None, *,
                  rng: np.random.Generator) -> list[tuple[int, int]]:
    """Evolve the archive, then return the best in-budget subset's entries.

    Starts from the empty subset; each iteration mutates a uniformly chosen
    archived solution, flipping each bit with probability 1/n, and keeps it
    only if nothing archived is at least as good in both objectives.
    ``iterations`` defaults to ``default_iterations(problem)``.
    Deterministic for a given seeded ``rng``.
    """
    if iterations is not None and iterations < 1:
        raise ValueError("iterations must be at least 1")
    n = len(problem)
    if n == 0:
        return []
    if iterations is None:
        iterations = default_iterations(problem)

    best = _evolve(problem, iterations, rng, 1.0 / n).best_within(problem.budget)
    if best is None:
        return []
    return [problem.candidates[i] for i in np.nonzero(best.bits)[0]]


def exhaustive_optimum(problem: BiObjectiveProblem) -> tuple[float, np.ndarray]:
    """Brute-force best total score under the budget; small pools only."""
    n = len(problem)
    if n > 20:
        raise ValueError("exhaustive search is limited to 20 candidates")
    patterns = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    total_cost = patterns @ problem.costs
    total_gain = patterns @ problem.informativeness
    feasible = total_cost <= problem.budget
    total_gain[~feasible] = -np.inf
    best = int(np.argmax(total_gain))
    return float(total_gain[best]), patterns[best]
