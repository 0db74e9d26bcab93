"""Budgeted batch selection as bi-objective Pareto subset optimization.

Candidates are the positions 0..n-1 of a pool, each with a score (to
maximize) and a cost (to minimize); the caller maps positions back to
entries. A subset is held as its ascending positions, a tuple, and rated
on two objectives: j1 = minus the total score, with a +inf sentinel for
the empty subset and for subsets costing at least twice the budget; j2 =
the total cost. Both totals are ``math.fsum``'s, exactly rounded, so a
subset's rating does not depend on the order of its sum. A problem whose
scores or costs sum past the largest float is rejected: both are
nonnegative, so those totals bound every subset's. An evolutionary loop
(POMC, after Qian, Yu & Zhou 2015 and Qian et al. 2017) keeps an archive
of mutually nondominated subsets sorted by cost, and the final answer is
the best-scoring archived subset within the budget.

The loop draws its randomness in chunks of children: one parent pick per
child, and standard bit mutation for the whole chunk at once, as one
binomial count of flipped positions among all its children's and a
uniform set of that many distinct ones. A child flipping nothing is
skipped; the rest are screened with objectives updated from the parent's
by the flipped entries, each flip's membership found by bisecting the
parent's positions, and only the children that pass get their own
positions and are evaluated in full and archived.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# Children drawn per batch of random numbers, bounding the memory of a long run.
_CHUNK = 1024

# the types evaluate refuses as positions
_BOOLS = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class BiObjectiveProblem:
    """A pool of candidates: per position a score and a cost, and one budget for their sum.

    Frozen, and its vectors are read-only copies: the search reads the same
    values from Python lists made here, which must not drift from them.
    """

    informativeness: np.ndarray
    costs: np.ndarray
    budget: float

    def __post_init__(self):
        for name in ("informativeness", "costs"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.informativeness.ndim != 1 or self.costs.shape != self.informativeness.shape:
            raise DimensionMismatchError("scores and costs must be 1-d vectors of one length")
        if not ((0 < self.costs) & (self.costs < math.inf)).all():
            raise ValueError("all candidate costs must be positive and finite")
        if not ((0 <= self.informativeness) & (self.informativeness < math.inf)).all():
            raise ValueError("informativeness must be finite and nonnegative")
        if not 0 < self.budget < math.inf:  # NaN fails too
            raise ValueError("budget must be positive and finite")
        # read by evaluate and the search, as list indexing beats numpy's per entry
        object.__setattr__(self, "_costs", self.costs.tolist())
        object.__setattr__(self, "_gains", self.informativeness.tolist())
        # every subset sum is at most its total, as both are nonnegative
        for name, values in (("costs", self._costs), ("informativeness scores", self._gains)):
            try:
                math.fsum(values)
            except OverflowError:
                raise ValueError(f"the sum of all {name} overflows a float") from None

    def __len__(self) -> int:
        return len(self.informativeness)


@dataclass
class Solution:
    """A subset as its ascending positions, with its two objectives."""

    positions: tuple[int, ...]
    j1: float
    j2: float


def evaluate(problem: BiObjectiveProblem, positions) -> Solution:
    """Rate the subset of ``positions``, any iterable of positions in the pool.

    Both sums are ``math.fsum``'s, exactly rounded, so they do not depend on
    the order of the positions. A boolean is refused, as it would read as
    position 0 or 1.
    """
    members = tuple(sorted(set(positions)))
    if not _BOOLS.isdisjoint(map(type, members)):
        raise TypeError("positions must be integers, not booleans")
    if members and not (0 <= members[0] and members[-1] < len(problem.costs)):
        raise DimensionMismatchError("a position lies outside the pool")
    j2 = math.fsum(map(problem._costs.__getitem__, members))
    if not members or j2 >= 2.0 * problem.budget:
        j1 = math.inf
    else:
        j1 = -math.fsum(map(problem._gains.__getitem__, members))
    return Solution(members, j1, j2)


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
    flips no position equals its parent and is skipped. The others are
    screened with objectives updated from the parent's by the flipped
    entries, each one's membership found by bisecting the parent's
    positions; only a child that passes gets its own positions, is
    evaluated from scratch and re-checked before it is archived, so every
    archived (j1, j2) comes from a full sum. The screen differs from the
    full sums by rounding only, so the sole children it turns away wrongly
    lie within rounding of an archived pair or of the 2 * budget sentinel.
    """
    n = len(problem)
    costs, gains = problem._costs, problem._gains
    cap = 2.0 * problem.budget
    archive = SolutionArchive(evaluate(problem, ()))
    solutions, dominated = archive.solutions, archive.weakly_dominated
    for done in range(0, iterations, _CHUNK):
        size = min(_CHUNK, iterations - done)
        picks = rng.random(size).tolist()
        counts, positions = _draw_flips(n, flip_prob, size, rng)
        ends = np.cumsum(counts).tolist()
        positions = positions.tolist()
        begin = 0
        for pick, end in zip(picks, ends):
            if begin == end:
                continue
            flips = positions[begin:end]
            begin = end
            parent = solutions[int(pick * len(solutions))]
            members = parent.positions
            # the empty subset is the only archived one with the sentinel:
            # any other sentinel subset costs more and is dominated by it
            gain = 0.0 if parent.j1 == math.inf else -parent.j1
            cost = parent.j2
            for j in flips:
                i = bisect_left(members, j)
                if i < len(members) and members[i] == j:
                    cost -= costs[j]
                    gain -= gains[j]
                else:
                    cost += costs[j]
                    gain += gains[j]
            if cost >= cap or dominated(-gain, cost):
                continue
            child = evaluate(problem, set(members).symmetric_difference(flips))
            if not dominated(child.j1, child.j2):
                archive.insert(child)
    return archive


def poss_optimize(problem: BiObjectiveProblem, iterations: int, *,
                  rng: np.random.Generator) -> np.ndarray:
    """Evolve the archive, then return the best in-budget subset's positions, ascending.

    Starts from the empty subset; each of the ``iterations`` mutates a
    uniformly chosen archived solution, flipping each bit with probability
    1/n, and keeps it only if nothing archived is at least as good in both
    objectives. Empty from an empty pool or when nothing fits the budget.
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
    return np.array(best.positions)
