import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activemc.errors import DimensionMismatchError
from activemc.poss import (
    BiObjectiveProblem,
    Solution,
    SolutionArchive,
    _draw_flips,
    _evolve,
    default_iterations,
    dominates,
    evaluate,
    exhaustive_optimum,
    poss_optimize,
)


def small_problem(gains, costs, budget):
    return BiObjectiveProblem(
        candidates=[(0, j) for j in range(len(gains))],
        informativeness=np.asarray(gains, float),
        costs=np.asarray(costs, float),
        budget=budget,
    )


class TestEvaluate:
    def test_empty_subset_is_sentinel(self):
        p = small_problem([1.0], [1.0], 2.0)
        s = evaluate(p, [False])
        assert s.j1 == math.inf and s.j2 == 0.0

    def test_single_candidate(self):
        p = small_problem([5.0], [1.0], 2.0)
        s = evaluate(p, [True])
        assert s.j1 == -5.0 and s.j2 == 1.0

    def test_cost_at_twice_budget_is_excluded(self):
        p = small_problem([5.0, 5.0], [2.0, 2.0], 2.0)
        s = evaluate(p, [True, True])  # j2 = 4 = 2b exactly
        assert s.j1 == math.inf and s.j2 == 4.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(small_problem([1.0], [1.0], 1.0), [True, False])


class TestDominates:
    def test_strictly_better_in_both(self):
        assert dominates(Solution(np.array([1]), -5.0, 1.0), Solution(np.array([1]), -3.0, 2.0))

    def test_equal_does_not_dominate(self):
        a = Solution(np.array([1]), -5.0, 1.0)
        b = Solution(np.array([0]), -5.0, 1.0)
        assert not dominates(a, b) and not dominates(b, a)

    def test_incomparable_pair(self):
        a = Solution(np.array([1]), -5.0, 2.0)
        b = Solution(np.array([0]), -3.0, 1.0)
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
        # at 0.9 most children repeat a position and are redrawn
        counts, positions = _draw_flips(6, flip_prob, 20000, np.random.default_rng(8))
        frequency = np.bincount(positions, minlength=6) / 20000
        np.testing.assert_allclose(frequency, flip_prob, atol=0.02)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 30), flip_prob=st.floats(0.01, 1.0),
           size=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_counts_are_binomial_draws_and_positions_distinct(self, n, flip_prob, size, seed):
        counts, positions = _draw_flips(n, flip_prob, size, np.random.default_rng(seed))
        np.testing.assert_array_equal(
            counts, np.random.default_rng(seed).binomial(n, flip_prob, size)
        )
        for child in child_positions(counts, positions):
            assert len(set(child.tolist())) == child.size
            assert ((0 <= child) & (child < n)).all()


class TestArchive:
    def test_insert_evicts_weakly_dominated(self):
        archive = SolutionArchive([Solution(np.array([0, 1]), -3.0, 2.0)])
        archive.insert(Solution(np.array([1, 1]), -4.0, 2.0))
        assert len(archive) == 1
        assert archive.solutions[0].j1 == -4.0

    def test_incomparable_members_coexist(self):
        archive = SolutionArchive([Solution(np.array([1, 0]), -3.0, 1.0)])
        assert not archive.weakly_dominated(-5.0, 2.0)
        archive.insert(Solution(np.array([0, 1]), -5.0, 2.0))
        assert len(archive) == 2
        assert archive.mutually_nondominated()

    def test_duplicate_objectives_are_weakly_dominated(self):
        archive = SolutionArchive([Solution(np.array([1, 0]), -3.0, 1.0)])
        assert archive.weakly_dominated(-3.0, 1.0)

    def test_kept_sorted_by_cost(self):
        archive = SolutionArchive([Solution(np.array([1, 1, 0]), -6.0, 3.0)])
        archive.insert(Solution(np.array([1, 0, 0]), -2.0, 1.0))
        archive.insert(Solution(np.array([0, 1, 0]), -4.0, 2.0))
        archive.insert(Solution(np.array([0, 0, 1]), -1.0, 0.5))
        assert [s.j2 for s in archive.solutions] == [0.5, 1.0, 2.0, 3.0]
        # (-4.5, 1.0) evicts the members costing 1 and 2, and only those
        archive.insert(Solution(np.array([1, 0, 1]), -4.5, 1.0))
        assert [(s.j1, s.j2) for s in archive.solutions] == [(-1.0, 0.5), (-4.5, 1.0), (-6.0, 3.0)]

    def test_dominated_members_rejected(self):
        with pytest.raises(ValueError):
            SolutionArchive([Solution(np.array([1, 0]), -3.0, 1.0),
                             Solution(np.array([0, 1]), -2.0, 2.0)])


class TestPossOptimize:
    def test_unique_feasible_candidate_selected(self):
        p = small_problem([1.0], [1.0], 1.0)
        assert poss_optimize(p, iterations=100, rng=np.random.default_rng(0)) == [(0, 0)]

    def test_budget_below_every_cost_yields_empty(self):
        p = small_problem([5.0, 4.0], [3.0, 4.0], 1.0)
        assert poss_optimize(p, iterations=200, rng=np.random.default_rng(1)) == []

    def test_returned_subset_respects_budget(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            gains = rng.uniform(0, 10, size=8)
            costs = rng.integers(1, 11, size=8).astype(float)
            p = small_problem(gains, costs, 0.4 * costs.sum())
            chosen = poss_optimize(p, iterations=2000, rng=rng)
            spent = sum(costs[j] for _, j in chosen)
            assert spent <= p.budget + 1e-12

    def test_deterministic_given_seed(self):
        gains = [3.0, 1.0, 4.0, 1.0, 5.0]
        costs = [2.0, 1.0, 3.0, 1.0, 4.0]
        p = small_problem(gains, costs, 6.0)
        a = poss_optimize(p, iterations=500, rng=np.random.default_rng(9))
        b = poss_optimize(p, iterations=500, rng=np.random.default_rng(9))
        assert a == b

    def test_matches_exhaustive_search_on_small_pools(self):
        rng = np.random.default_rng(3)
        agree = 0
        for _ in range(20):
            gains = rng.uniform(0, 10, size=8)
            costs = rng.integers(1, 11, size=8).astype(float)
            p = small_problem(gains, costs, 0.5 * costs.sum())
            chosen = poss_optimize(p, rng=rng)
            achieved = sum(gains[j] for _, j in chosen)
            best, _ = exhaustive_optimum(p)
            agree += int(abs(achieved - best) <= 1e-9)
        assert agree >= 18

    def test_archive_invariants_after_run(self):
        rng = np.random.default_rng(4)
        gains = rng.uniform(0, 10, size=8)
        costs = rng.integers(1, 11, size=8).astype(float)
        p = small_problem(gains, costs, 0.5 * costs.sum())

        archive = _evolve(p, 3000, rng, 1.0 / 8)

        assert archive.mutually_nondominated()
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

    def test_empty_pool(self):
        p = BiObjectiveProblem([], np.array([]), np.array([]), 1.0)
        assert poss_optimize(p, rng=np.random.default_rng(0)) == []


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

        assert archive.mutually_nondominated()
        j1 = [s.j1 for s in archive.solutions]
        j2 = [s.j2 for s in archive.solutions]
        assert j2 == sorted(set(j2)) and j1 == sorted(set(j1), reverse=True)
        for s in archive.solutions:
            exact = evaluate(p, s.bits)
            assert (s.j1, s.j2) == (exact.j1, exact.j2)

        best = archive.best_within(p.budget)
        if best is not None:
            assert p.costs[best.bits].sum() <= p.budget

        # poss_optimize flips at 1/n, so it returns the best of that archive
        chosen = poss_optimize(p, iterations, rng=np.random.default_rng(seed))
        bits = np.isin(np.arange(len(p)), [j for _, j in chosen])
        assert p.costs[bits].sum() <= p.budget
        if flip_prob is None:
            expected = np.zeros(len(p), bool) if best is None else best.bits
            np.testing.assert_array_equal(bits, expected)


class TestDefaults:
    def test_default_iterations_scales_with_pool(self):
        p5 = small_problem([1.0] * 5, [1.0] * 5, 2.0)
        p10 = small_problem([1.0] * 10, [1.0] * 10, 2.0)
        assert default_iterations(p10) > default_iterations(p5)

    def test_cardinality_cap_bounded_by_pool_size(self):
        # a huge budget must not blow up the iteration budget past 2e*n^3
        p = small_problem([1.0] * 10, [1.0] * 10, 1e6)
        assert default_iterations(p) <= math.ceil(2 * math.e * 10**2 * 10)

    def test_exhaustive_guard(self):
        p = small_problem([1.0] * 21, [1.0] * 21, 5.0)
        with pytest.raises(ValueError):
            exhaustive_optimum(p)


class TestProblemValidation:
    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError):
            BiObjectiveProblem([(0, 0), (0, 0)], np.ones(2), np.ones(2), 1.0)

    def test_nonpositive_costs_rejected(self):
        with pytest.raises(ValueError):
            small_problem([1.0], [0.0], 1.0)

    def test_negative_informativeness_rejected(self):
        with pytest.raises(ValueError):
            small_problem([-1.0], [1.0], 1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_non_finite_budget_rejected(self, budget):
        # a NaN or infinite budget used to reach default_iterations' int()
        with pytest.raises(ValueError, match="^budget must be positive and finite$"):
            small_problem([1.0], [1.0], budget)
