import numpy as np
import pytest

from activemc.acquisition import (
    CostModel,
    InformativenessTracker,
    ScoredEntry,
    informativeness,
    select_cost_ratio,
    select_top_k,
)
from activemc.errors import DimensionMismatchError, PoolExhausted


def snapshots(tracker, values):
    for v in values:
        tracker.record_snapshot(np.array([[float(v)]]))
    return tracker


class TestTracker:
    def test_identical_snapshots_score_zero(self):
        t = InformativenessTracker()
        grid = np.arange(6.0).reshape(2, 3)
        t.record_snapshot(grid)
        t.record_snapshot(grid.copy())
        np.testing.assert_array_equal(t.score_grid(), np.zeros((2, 3)))

    def test_unbounded_sum_of_squared_deviations(self):
        t = snapshots(InformativenessTracker(window=0), [1, 2, 3])
        assert t.score_grid()[0, 0] == pytest.approx(2.0)

    def test_window_restricts_to_recent(self):
        t = snapshots(InformativenessTracker(window=2), [1, 2, 3])
        assert t.score_grid()[0, 0] == pytest.approx(0.5)

    def test_example_with_skewed_values(self):
        t = snapshots(InformativenessTracker(), [0, 0, 4])
        assert t.score_grid()[0, 0] == pytest.approx(32.0 / 3.0)

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(5)
        t1 = snapshots(InformativenessTracker(), vals)
        t3 = snapshots(InformativenessTracker(), 3.0 * vals)
        assert t3.score_grid()[0, 0] == pytest.approx(9.0 * t1.score_grid()[0, 0])

    def test_streaming_matches_two_pass(self):
        rng = np.random.default_rng(1)
        for window in (0, 3, 5):
            vals = rng.uniform(-5, 5, size=9)
            t = snapshots(InformativenessTracker(window=window), vals)
            kept = vals if window == 0 else vals[-window:]
            expected = np.sum((kept - kept.mean()) ** 2)
            assert abs(t.score_grid()[0, 0] - expected) < 1e-9

    def test_wide_window_equals_unbounded_exactly(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(-2, 2, size=6)
        bounded = snapshots(InformativenessTracker(window=10), vals)
        unbounded = snapshots(InformativenessTracker(window=0), vals)
        assert bounded.score_grid()[0, 0] == unbounded.score_grid()[0, 0]

    def test_fewer_than_two_snapshots_score_zero(self):
        t = InformativenessTracker()
        t.record_snapshot(np.ones((2, 2)))
        np.testing.assert_array_equal(t.score_grid(), np.zeros((2, 2)))
        assert t.snapshots_seen == 1 and t.retained == 1

    def test_shape_change_rejected(self):
        t = InformativenessTracker()
        t.record_snapshot(np.ones((2, 2)))
        with pytest.raises(DimensionMismatchError):
            t.record_snapshot(np.ones((3, 2)))

    def test_no_snapshots_rejected(self):
        with pytest.raises(ValueError):
            InformativenessTracker().score_grid()

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(3)
        t = InformativenessTracker(window=4)
        for _ in range(12):
            t.record_snapshot(rng.standard_normal((3, 3)))
        assert (t.score_grid() >= 0).all()


class TestInformativeness:
    def test_all_observed_yields_empty(self):
        t = InformativenessTracker()
        t.record_snapshot(np.ones((2, 2)))
        t.record_snapshot(np.zeros((2, 2)))
        assert informativeness(t, np.ones((2, 2), bool)) == []

    def test_excludes_observed_entries(self):
        t = InformativenessTracker()
        t.record_snapshot(np.array([[0.0, 0.0]]))
        t.record_snapshot(np.array([[2.0, 2.0]]))
        mask = np.array([[True, False]])
        scored = informativeness(t, mask)
        assert scored == [ScoredEntry(0, 1, 2.0)]


class TestSelection:
    def scores(self):
        return [ScoredEntry(0, 0, 5.0), ScoredEntry(1, 1, 9.0), ScoredEntry(2, 0, 7.0)]

    def test_unique_maximum(self):
        assert select_top_k(self.scores(), 1) == [(1, 1)]

    def test_sorted_selection(self):
        assert select_top_k(self.scores(), 2) == [(1, 1), (2, 0)]

    def test_ties_break_lexicographically(self):
        tied = [ScoredEntry(1, 1, 3.0), ScoredEntry(0, 1, 3.0), ScoredEntry(0, 0, 3.0)]
        assert select_top_k(tied, 2) == [(0, 0), (0, 1)]

    def test_short_pool_returns_all(self):
        assert select_top_k(self.scores(), 10) == [(1, 1), (2, 0), (0, 0)]

    def test_empty_pool_signals_exhaustion(self):
        with pytest.raises(PoolExhausted):
            select_top_k([], 1)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            select_top_k(self.scores(), 0)

    def test_uniform_costs_match_plain_selection(self):
        costs = CostModel(np.ones(2))
        assert select_cost_ratio(self.scores(), costs, 2) == select_top_k(self.scores(), 2)

    def test_ratio_prefers_cheap_information(self):
        scored = [ScoredEntry(0, 0, 4.0), ScoredEntry(0, 1, 3.0)]
        costs = CostModel(np.array([4.0, 1.0]))
        assert select_cost_ratio(scored, costs, 1) == [(0, 1)]

    def test_cost_doubling_leaves_selection_unchanged(self):
        rng = np.random.default_rng(4)
        scored = [ScoredEntry(i, j, float(rng.uniform(0, 5))) for i in range(4) for j in range(3)]
        base = CostModel(rng.integers(1, 10, size=3).astype(float))
        doubled = CostModel(2.0 * base.column_costs)
        assert select_cost_ratio(scored, base, 5) == select_cost_ratio(scored, doubled, 5)


class TestCostModel:
    def test_rejects_nonpositive_costs(self):
        with pytest.raises(ValueError):
            CostModel(np.array([1.0, 0.0]))
