import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import (
    default_iterations,
    knapsack_optimum,
    loop_shaped_problem,
    reference_picks,
    reference_pomc,
)

from activemc import poss
from activemc.errors import DimensionMismatchError
from activemc.poss import (
    BiObjectiveProblem,
    Solution,
    SolutionArchive,
    _draw_flips,
    _evolve,
    evaluate,
    poss_optimize,
)


def small_problem(gains, costs, budget):
    return BiObjectiveProblem(np.asarray(gains, float), np.asarray(costs, float), budget)


def dominates(a: Solution, b: Solution) -> bool:
    return (a.j1 <= b.j1 and a.j2 <= b.j2) and (a.j1 < b.j1 or a.j2 < b.j2)


def mutually_nondominated(archive: SolutionArchive) -> bool:
    """The full pairwise check that the archive's bisections stand in for."""
    return not any(i != j and dominates(a, b)
                   for i, a in enumerate(archive.solutions)
                   for j, b in enumerate(archive.solutions))


class TestEvaluate:
    def test_empty_subset_is_sentinel(self):
        p = small_problem([1.0], [1.0], 2.0)
        s = evaluate(p, [])
        assert s.positions == () and s.j1 == math.inf and s.j2 == 0.0

    def test_single_candidate(self):
        p = small_problem([5.0], [1.0], 2.0)
        s = evaluate(p, [0])
        assert s.positions == (0,) and s.j1 == -5.0 and s.j2 == 1.0

    def test_cost_at_twice_budget_is_excluded(self):
        p = small_problem([5.0, 5.0], [2.0, 2.0], 2.0)
        s = evaluate(p, [0, 1])  # j2 = 4 = 2b exactly
        assert s.j1 == math.inf and s.j2 == 4.0

    def test_length_mismatch(self):
        # a position at or past the pool's length, or below 0
        for positions in ([0, 1], [-1]):
            with pytest.raises(DimensionMismatchError):
                evaluate(small_problem([1.0], [1.0], 1.0), positions)

    @pytest.mark.parametrize("positions", [[True, False], [False], np.array([True, False])])
    def test_booleans_rejected(self, positions):
        # a bit vector would read as positions 0 and 1
        with pytest.raises(TypeError, match="^positions must be integers, not booleans$"):
            evaluate(small_problem([1.0, 2.0], [1.0, 1.0], 2.0), positions)

    @pytest.mark.parametrize("positions", [[1.0], [np.float64(0)], [0, 0.5]],
                             ids=["float", "numpy-float", "half"])
    def test_non_integer_position_is_named(self, positions):
        # the list lookup would refuse a float without naming it
        message = f"positions must be integers, got {positions[-1]!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            evaluate(small_problem([1.0, 2.0], [1.0, 1.0], 2.0), positions)

    def test_positions_are_a_set(self):
        p = small_problem([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], 3.0)
        s = evaluate(p, np.array([2, 0, 2]))
        assert s.positions == (0, 2) and s.j1 == -5.0 and s.j2 == 2.0

    def test_sums_are_exactly_rounded(self):
        # summed left to right, 1.0 absorbs each 2**-53 and the sum stays 1.0
        p = small_problem([1.0, 2.0**-53, 2.0**-53], [1.0, 1.0, 1.0], 3.0)
        assert evaluate(p, [0, 1, 2]).j1 == -(1.0 + 2.0**-52)


class TestDominates:
    def test_strictly_better_in_both(self):
        assert dominates(Solution((0,), -5.0, 1.0), Solution((0,), -3.0, 2.0))

    def test_equal_does_not_dominate(self):
        a = Solution((0,), -5.0, 1.0)
        b = Solution((), -5.0, 1.0)
        assert not dominates(a, b) and not dominates(b, a)

    def test_incomparable_pair(self):
        a = Solution((0,), -5.0, 2.0)
        b = Solution((), -3.0, 1.0)
        assert not dominates(a, b) and not dominates(b, a)


def child_positions(counts, positions):
    return np.split(positions, np.cumsum(counts)[:-1])


class TestDrawFlips:
    def test_vanishing_flip_probability_is_identity(self):
        counts, positions = _draw_flips(4, 1e-300, 100, np.random.default_rng(0))
        assert not counts.any() and positions.size == 0

    def test_flip_probability_one_flips_all(self):
        # every child flips k = n bits, so drawing distinct positions must end there
        counts, positions = _draw_flips(5, 1.0, 3, np.random.default_rng(1))
        np.testing.assert_array_equal(counts, [5, 5, 5])
        for child in child_positions(counts, positions):
            np.testing.assert_array_equal(np.sort(child), np.arange(5))

    def test_deterministic_under_seed(self):
        a = _draw_flips(5, 0.4, 50, np.random.default_rng(7))
        b = _draw_flips(5, 0.4, 50, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_flip_probability_validated(self):
        with pytest.raises(ValueError):
            _draw_flips(3, 1.5, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("flip_prob", [0.3, 0.9])
    def test_each_bit_flips_with_the_flip_probability(self, flip_prob):
        # at 0.9 the chunk flips most of its bits
        counts, positions = _draw_flips(6, flip_prob, 20000, np.random.default_rng(8))
        frequency = np.bincount(positions, minlength=6) / 20000
        np.testing.assert_allclose(frequency, flip_prob, atol=0.02)

    def test_each_child_flips_a_binomial_count(self):
        # the chunk's total is one draw; each child's share must still be Binomial(n, p)
        n, p, size = 6, 0.3, 20000
        counts, _ = _draw_flips(n, p, size, np.random.default_rng(9))
        pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        np.testing.assert_allclose(np.bincount(counts, minlength=n + 1) / size, pmf, atol=0.015)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 30), flip_prob=st.floats(0.01, 1.0),
           size=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_counts_are_binomial_draws_and_positions_distinct(self, n, flip_prob, size, seed):
        counts, positions = _draw_flips(n, flip_prob, size, np.random.default_rng(seed))
        assert counts.shape == (size,)
        assert counts.sum() == np.random.default_rng(seed).binomial(size * n, flip_prob)
        for child in child_positions(counts, positions):
            assert (np.diff(child) > 0).all()  # distinct and sorted
            assert ((0 <= child) & (child < n)).all()


class TestArchive:
    def test_insert_evicts_weakly_dominated(self):
        archive = SolutionArchive(Solution((1,), -3.0, 2.0))
        archive.insert(Solution((0, 1), -4.0, 2.0))
        assert len(archive) == 1
        assert archive.solutions[0].j1 == -4.0

    def test_incomparable_members_coexist(self):
        archive = SolutionArchive(Solution((0,), -3.0, 1.0))
        assert not archive.weakly_dominated(-5.0, 2.0)
        archive.insert(Solution((1,), -5.0, 2.0))
        assert len(archive) == 2
        assert mutually_nondominated(archive)

    def test_duplicate_objectives_are_weakly_dominated(self):
        archive = SolutionArchive(Solution((0,), -3.0, 1.0))
        assert archive.weakly_dominated(-3.0, 1.0)

    def test_kept_sorted_by_cost(self):
        archive = SolutionArchive(Solution((0, 1), -6.0, 3.0))
        archive.insert(Solution((0,), -2.0, 1.0))
        archive.insert(Solution((1,), -4.0, 2.0))
        archive.insert(Solution((2,), -1.0, 0.5))
        assert [s.j2 for s in archive.solutions] == [0.5, 1.0, 2.0, 3.0]
        # (-4.5, 1.0) evicts the members costing 1 and 2, and only those
        archive.insert(Solution((0, 2), -4.5, 1.0))
        assert [(s.j1, s.j2) for s in archive.solutions] == [(-1.0, 0.5), (-4.5, 1.0), (-6.0, 3.0)]


class TestPossOptimize:
    def test_unique_feasible_candidate_selected(self):
        p = small_problem([1.0], [1.0], 1.0)
        assert poss_optimize(p, iterations=100, rng=np.random.default_rng(0)).tolist() == [0]

    def test_budget_below_every_cost_yields_empty(self):
        p = small_problem([5.0, 4.0], [3.0, 4.0], 1.0)
        assert poss_optimize(p, iterations=200, rng=np.random.default_rng(1)).size == 0

    def test_returned_subset_respects_budget(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            gains = rng.uniform(0, 10, size=8)
            costs = rng.integers(1, 11, size=8).astype(float)
            p = small_problem(gains, costs, 0.4 * costs.sum())
            chosen = poss_optimize(p, iterations=2000, rng=rng)
            assert costs[chosen].sum() <= p.budget + 1e-12

    def test_deterministic_given_seed(self):
        gains = [3.0, 1.0, 4.0, 1.0, 5.0]
        costs = [2.0, 1.0, 3.0, 1.0, 4.0]
        p = small_problem(gains, costs, 6.0)
        a = poss_optimize(p, iterations=500, rng=np.random.default_rng(9))
        b = poss_optimize(p, iterations=500, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_matches_exhaustive_search_on_small_pools(self):
        rng = np.random.default_rng(3)
        agree = 0
        for _ in range(20):
            gains = rng.uniform(0, 10, size=8)
            costs = rng.integers(1, 11, size=8).astype(float)
            p = small_problem(gains, costs, 0.5 * costs.sum())
            chosen = poss_optimize(p, default_iterations(p), rng=rng)
            achieved = sum(gains[j] for j in chosen)
            best = knapsack_optimum(gains, costs, p.budget)
            agree += int(abs(achieved - best) <= 1e-9)
        assert agree >= 18

    def test_archive_invariants_after_run(self):
        rng = np.random.default_rng(4)
        gains = rng.uniform(0, 10, size=8)
        costs = rng.integers(1, 11, size=8).astype(float)
        p = small_problem(gains, costs, 0.5 * costs.sum())

        archive = _evolve(p, 3000, rng, 1.0 / 8)

        assert mutually_nondominated(archive)
        # pareto-front cardinality bound: distinct feasible j2 values plus one
        patterns = ((np.arange(2**8)[:, None] >> np.arange(8)) & 1).astype(bool)
        j2 = patterns @ p.costs
        feasible = patterns.any(axis=1) & (j2 < 2 * p.budget)
        assert len(archive) <= len(set(j2[feasible])) + 1

    @pytest.mark.parametrize("kwargs", [{"iterations": 0}])
    def test_bad_settings_rejected(self, kwargs):
        p = small_problem([1.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            poss_optimize(p, rng=np.random.default_rng(0), **kwargs)

    @pytest.mark.parametrize("iterations", [True, 2.5])
    def test_non_integer_iterations_rejected(self, iterations):
        # a bool would run one iteration, and a float fail without naming iterations
        p = small_problem([1.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(TypeError, match=rf"^iterations must be an integer, got {iterations!r}$"):
            poss_optimize(p, iterations, rng=np.random.default_rng(0))
        assert poss_optimize(p, np.int64(50), rng=np.random.default_rng(0)).tolist() == [1]

    def test_empty_pool(self):
        p = BiObjectiveProblem(np.array([]), np.array([]), 1.0)
        chosen = poss_optimize(p, 100, rng=np.random.default_rng(0))
        assert chosen.size == 0 and chosen.dtype.kind == "i"


problems = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n),
    st.lists(st.one_of(st.integers(1, 10).map(float), st.floats(0.1, 10.0)),
             min_size=n, max_size=n),
    st.floats(0.05, 1.5),
)).map(lambda t: small_problem(t[0], t[1], t[2] * sum(t[1])))


class TestEvolveProperties:
    @settings(max_examples=60, deadline=None)
    @given(p=problems, iterations=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           flip_prob=st.one_of(st.none(), st.floats(0.05, 1.0)))
    def test_archive_and_answer(self, p, iterations, seed, flip_prob):
        archive = _evolve(p, iterations, np.random.default_rng(seed), flip_prob or 1.0 / len(p))

        assert mutually_nondominated(archive)
        j1 = [s.j1 for s in archive.solutions]
        j2 = [s.j2 for s in archive.solutions]
        assert j2 == sorted(set(j2)) and j1 == sorted(set(j1), reverse=True)
        for s in archive.solutions:
            assert s.positions == tuple(sorted(set(s.positions)))  # ascending, distinct
            exact = evaluate(p, s.positions)
            assert (s.j1, s.j2) == (exact.j1, exact.j2)

        best = archive.best_within(p.budget)
        if best is not None:
            assert p.costs[list(best.positions)].sum() <= p.budget

        # poss_optimize flips at 1/n, so it returns the best of that archive
        chosen = poss_optimize(p, iterations, rng=np.random.default_rng(seed))
        assert chosen.dtype.kind == "i" and (np.diff(chosen) > 0).all()  # ascending positions
        bits = np.zeros(len(p), bool)
        bits[chosen] = True
        assert p.costs[bits].sum() <= p.budget
        if flip_prob is None:
            expected = [] if best is None else list(best.positions)
            assert chosen.tolist() == expected


class TestLoopShapedReference:
    """The search on positions against the reference on bit vectors, at the loop's settings."""

    @pytest.mark.parametrize("seed", range(20))
    def test_same_archive_picks_and_calls(self, seed, monkeypatch):
        p = loop_shaped_problem(np.random.default_rng(seed))
        expected, screened, archived = reference_pomc(p, 5000, np.random.default_rng([seed, 1]),
                                                      1 / 200)
        calls = {"evaluate": 0, "insert": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(poss, "evaluate", counted("evaluate", poss.evaluate))
        monkeypatch.setattr(SolutionArchive, "insert", counted("insert", SolutionArchive.insert))
        archive = _evolve(p, 5000, np.random.default_rng([seed, 1]), 1 / 200)

        assert [(s.positions, s.j1, s.j2) for s in archive.solutions] == expected
        # once per screened survivor and once for the empty start; insert only when archived
        assert calls == {"evaluate": screened + 1, "insert": archived}
        chosen = poss_optimize(p, 5000, rng=np.random.default_rng([seed, 1]))
        assert chosen.tolist() == reference_picks(expected, p.budget) != []


class TestDefaults:
    """The helpers criterion 7 relies on: POSS's default budget and the exact reference."""

    def test_default_iterations_scales_with_pool(self):
        p5 = small_problem([1.0] * 5, [1.0] * 5, 2.0)
        p10 = small_problem([1.0] * 10, [1.0] * 10, 2.0)
        assert default_iterations(p10) > default_iterations(p5)

    def test_cardinality_cap_bounded_by_pool_size(self):
        # a huge budget must not blow up the iteration budget past 2e*n^3
        p = small_problem([1.0] * 10, [1.0] * 10, 1e6)
        assert default_iterations(p) <= math.ceil(2 * math.e * 10**2 * 10)

    def test_knapsack_matches_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            gains = rng.uniform(0.0, 10.0, size=n)
            costs = rng.integers(1, 11, size=n).astype(float)
            budget = float(rng.uniform(0.0, 1.2) * costs.sum())  # fractional
            patterns = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
            expected = (patterns @ gains)[patterns @ costs <= budget].max()
            assert knapsack_optimum(gains, costs, budget) == pytest.approx(expected, abs=1e-12)

    def test_knapsack_rejects_a_fractional_cost(self):
        with pytest.raises(ValueError, match="whole-number costs"):
            knapsack_optimum([1.0, 2.0], [1.0, 1.5], 3.0)


class TestProblemValidation:
    @pytest.mark.parametrize("gains, costs", [([1.0, 2.0], [1.0]), ([[1.0]], [[1.0]])])
    def test_scores_and_costs_must_be_one_length_vectors(self, gains, costs):
        with pytest.raises(DimensionMismatchError):
            small_problem(gains, costs, 1.0)

    def test_nonpositive_costs_rejected(self):
        with pytest.raises(ValueError):
            small_problem([1.0], [0.0], 1.0)

    def test_negative_informativeness_rejected(self):
        with pytest.raises(ValueError):
            small_problem([-1.0], [1.0], 1.0)

    @pytest.mark.parametrize("score", [math.inf, math.nan])
    def test_non_finite_informativeness_rejected(self, score):
        # an infinite score made j1 = -inf, which best_within reads as "nothing fits"
        with pytest.raises(ValueError, match="^informativeness must be finite and nonnegative$"):
            small_problem([1.0, score], [1.0, 1.0], 2.0)

    @pytest.mark.parametrize("cost", [math.inf, math.nan])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="^all candidate costs must be positive and finite$"):
            small_problem([1.0, 1.0], [1.0, cost], 2.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_non_finite_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="^budget must be positive and finite$"):
            small_problem([1.0], [1.0], budget)

    @pytest.mark.parametrize("gains, costs, name", [
        ([1e308] * 3, [1.0] * 3, "informativeness scores"),
        ([1.0] * 3, [1e308] * 3, "costs"),
    ])
    def test_totals_that_overflow_rejected(self, gains, costs, name):
        # every subset sum is at most the total; scores summing past the
        # largest float made j1 = -inf, read as "nothing fits"
        with pytest.raises(ValueError, match=f"^the sum of all {name} overflows a float$"):
            small_problem(gains, costs, 3.0)

    def test_scores_and_costs_cannot_change(self):
        # evaluate and the search read copies made at construction
        costs = np.array([1.0, 2.0])
        p = small_problem([1.0, 1.0], costs, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.costs = np.array([5.0, 5.0])
        with pytest.raises(ValueError, match="read-only"):
            p.informativeness[0] = 5.0
        costs[0] = 5.0  # the caller's array stays writable and is not read
        assert evaluate(p, [0]).j2 == 1.0
