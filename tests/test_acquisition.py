import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activemc.acquisition import (
    InformativenessTracker,
    informativeness,
    select_cost_ratio,
    select_top_k,
)
from activemc.errors import DimensionMismatchError, NumericError


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
        assert t.retained == 1

    def test_shape_change_rejected(self):
        t = InformativenessTracker()
        t.record_snapshot(np.ones((2, 2)))
        with pytest.raises(DimensionMismatchError):
            t.record_snapshot(np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_snapshot_is_named(self, bad):
        # a nan snapshot would give a nan score, which select_top_k ranks last
        t = InformativenessTracker()
        t.record_snapshot(np.ones((2, 2)))
        snapshot = np.ones((2, 2))
        snapshot[1, 0] = bad
        with pytest.raises(NumericError, match=r"^non-finite value for entry \(1, 0\)$"):
            t.record_snapshot(snapshot)
        assert t.retained == 1

    def test_no_snapshots_rejected(self):
        with pytest.raises(ValueError):
            InformativenessTracker().score_grid()

    @pytest.mark.parametrize("window", [-1, 1])
    def test_window_without_two_snapshots_rejected(self, window):
        # a window of 1 would score every entry 0
        with pytest.raises(ValueError, match=r"^window must be 0 \(unbounded\) or at least 2$"):
            InformativenessTracker(window=window)

    @pytest.mark.parametrize("window", [2.5, 3.0, False, True])
    def test_non_integer_window_rejected(self, window):
        # int() used to truncate 2.5 to a 2-snapshot window, and False meant unbounded
        with pytest.raises(TypeError, match=rf"^window must be an integer, got {window!r}$"):
            InformativenessTracker(window=window)

    @pytest.mark.parametrize("window", [0, 8])
    def test_large_offset_matches_two_pass_reference(self, window):
        # unit spread on a 1e6 offset: one-pass sums x^2 - (sum x)^2 / k
        # cancel to about 2e-3 relative here
        spread = np.random.default_rng(5).standard_normal((40, 5, 4))
        values = 1e6 + spread
        t = InformativenessTracker(window=window)
        for snapshot in values:
            t.record_snapshot(snapshot)
        kept = (values if window == 0 else values[-window:]).astype(np.longdouble)
        expected = ((kept - kept.mean(axis=0)) ** 2).sum(axis=0)
        np.testing.assert_allclose(t.score_grid(), expected.astype(float), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("window", [0, 2])
    def test_recorded_snapshot_is_copied(self, window):
        first, second = np.zeros((2, 2)), np.ones((2, 2))
        t = InformativenessTracker(window=window)
        t.record_snapshot(first).record_snapshot(second)
        first += 5.0
        second[0, 0] = -3.0
        np.testing.assert_array_equal(t.score_grid(), np.full((2, 2), 0.5))

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(3)
        t = InformativenessTracker(window=4)
        for _ in range(12):
            t.record_snapshot(rng.standard_normal((3, 3)))
        assert (t.score_grid() >= 0).all()


class TestTrackerProperties:
    @settings(max_examples=200, deadline=None)
    @given(window=st.sampled_from([0, 2, 3, 4, 5]),
           values=st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
                           min_size=1, max_size=12))
    # a tiny retained value under a large evicted one
    @example(window=2, values=[[1.0, 0.0], [6.5196366863856086e-46, 0.0], [0.0, 0.0]])
    # a variance whose square underflows to a subnormal
    @example(window=0, values=[[0.0, 0.0], [0.0, 1.3837e-160]])
    # a spread small next to the mean, where one-pass sums cancel
    @example(window=0, values=[[0.0, 0.484375], [0.0, 0.4921875], [0.0, 0.490234375]])
    def test_window_arithmetic_matches_two_pass(self, window, values):
        t = InformativenessTracker(window=window)
        for v in values:
            t.record_snapshot(np.array([v]))
        seen = len(values)
        assert t.retained == min(seen, window or seen)
        kept = np.array(values[-t.retained:])
        expected = ((kept - kept.mean(axis=0)) ** 2).sum(axis=0)
        # a sum of non-negative terms in any order is within k roundings;
        # squares of tiny values are subnormal, where one rounding is a
        # whole subnormal step
        floor = 4 * t.retained * np.finfo(float).smallest_subnormal
        np.testing.assert_allclose(t.score_grid()[0], expected, rtol=1e-12, atol=floor)


class TestInformativeness:
    def test_all_observed_yields_empty(self):
        t = InformativenessTracker()
        t.record_snapshot(np.ones((2, 2)))
        t.record_snapshot(np.zeros((2, 2)))
        rows, cols, scores = informativeness(t, np.ones((2, 2), bool))
        assert rows.size == cols.size == scores.size == 0

    def test_excludes_observed_entries(self):
        t = InformativenessTracker()
        t.record_snapshot(np.array([[0.0, 0.0]]))
        t.record_snapshot(np.array([[2.0, 2.0]]))
        mask = np.array([[True, False]])
        rows, cols, scores = informativeness(t, mask)
        assert (rows.tolist(), cols.tolist(), scores.tolist()) == ([0], [1], [2.0])

    def test_row_major_order(self):
        t = InformativenessTracker()
        t.record_snapshot(np.zeros((2, 3)))
        t.record_snapshot(np.arange(6.0).reshape(2, 3))
        mask = np.array([[True, False, False], [False, True, False]])
        rows, cols, _ = informativeness(t, mask)
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (0, 2), (1, 0), (1, 2)]


def entries(*triples):
    """``(rows, cols, scores)`` arrays from (row, col, score) triples."""
    rows, cols, scores = zip(*triples) if triples else ((), (), ())
    return np.array(rows, int), np.array(cols, int), np.array(scores, float)


def entries_at(scored, positions):
    """The (row, col) entries at ``positions`` of the ``(rows, cols, scores)`` arrays."""
    rows, cols, _ = scored
    return list(zip(rows[positions].tolist(), cols[positions].tolist()))


class TestSelection:
    def scores(self):
        return entries((0, 0, 5.0), (1, 1, 9.0), (2, 0, 7.0))

    def test_unique_maximum(self):
        assert select_top_k(self.scores(), 1).tolist() == [1]

    def test_sorted_selection(self):
        assert entries_at(self.scores(), select_top_k(self.scores(), 2)) == [(1, 1), (2, 0)]

    def test_ties_break_lexicographically(self):
        tied = entries((1, 1, 3.0), (0, 1, 3.0), (0, 0, 3.0))
        assert entries_at(tied, select_top_k(tied, 2)) == [(0, 0), (0, 1)]

    def test_short_pool_returns_all(self):
        assert select_top_k(self.scores(), 10).tolist() == [1, 2, 0]

    def test_empty_pool_signals_exhaustion(self):
        # an empty selection is how the loop learns nothing is left to buy
        assert select_top_k(entries(), 1).size == 0
        assert select_cost_ratio(entries(), np.ones(2), 1).size == 0

    def test_k_validated(self):
        with pytest.raises(ValueError):
            select_top_k(self.scores(), 0)

    @pytest.mark.parametrize("k", [1.5, True])
    def test_non_integer_k_rejected(self, k):
        # a bool would be read as 1, and a float fail in slicing without naming k
        with pytest.raises(TypeError, match=rf"^k must be an integer, got {k!r}$"):
            select_top_k(self.scores(), k)
        assert select_top_k(self.scores(), np.int64(2)).tolist() == [1, 2]

    def test_uniform_costs_match_plain_selection(self):
        np.testing.assert_array_equal(select_cost_ratio(self.scores(), np.ones(2), 2),
                                      select_top_k(self.scores(), 2))

    def test_ratio_prefers_cheap_information(self):
        scored = entries((0, 0, 4.0), (0, 1, 3.0))
        assert select_cost_ratio(scored, np.array([4.0, 1.0]), 1).tolist() == [1]

    @pytest.mark.parametrize("price", [0.0, -1.0, np.nan, np.inf])
    def test_price_not_positive_and_finite_is_named(self, price):
        # a free column used to rank first, a negative one last, NaN silently
        with pytest.raises(ValueError, match=r"^column 1 price must be positive and finite, got "):
            select_cost_ratio(self.scores(), np.array([1.0, price]), 2)

    def test_column_without_a_price_is_named(self):
        # numpy's fancy index would refuse it without naming the prices
        with pytest.raises(DimensionMismatchError, match=r"^column 3 has no price: 2 prices given$"):
            select_cost_ratio(entries((0, 1, 1.0), (1, 3, 2.0)), np.ones(2), 1)

    def test_cost_doubling_leaves_selection_unchanged(self):
        rng = np.random.default_rng(4)
        scored = entries(*[(i, j, float(rng.uniform(0, 5))) for i in range(4) for j in range(3)])
        base = rng.integers(1, 10, size=3).astype(float)
        np.testing.assert_array_equal(select_cost_ratio(scored, base, 5),
                                      select_cost_ratio(scored, 2.0 * base, 5))

    def test_selected_positions_are_integer_arrays(self):
        # the harness indexes the pool arrays with them, an empty pool included
        for scored in (self.scores(), entries()):
            for picked in (select_top_k(scored, 3), select_cost_ratio(scored, np.ones(2), 3)):
                assert picked.dtype.kind == "i" and picked.ndim == 1


def reference_top(triples, keys, k):
    """The ranking rule spelled out: descending key, then row, then column."""
    ranked = sorted(zip(keys, triples), key=lambda e: (-e[0], e[1][0], e[1][1]))
    return [(r, c) for _, (r, c, _) in ranked[:k]]


@st.composite
def scored_grids(draw):
    """Distinct (row, col, score) triples on a small grid, in shuffled order.

    Scores come from a handful of values so that ties are common.
    """
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                          min_size=1, max_size=n_rows * n_cols, unique=True))
    levels = draw(st.lists(st.floats(0, 10), min_size=1, max_size=3))
    scores = draw(st.lists(st.sampled_from(levels), min_size=len(cells), max_size=len(cells)))
    triples = [(r, c, s) for (r, c), s in zip(cells, scores)]
    return draw(st.permutations(triples)), n_cols


class TestRankingProperties:
    @settings(max_examples=200, deadline=None)
    @given(grid=scored_grids(), k=st.integers(1, 25))
    def test_top_k_matches_reference(self, grid, k):
        triples, _ = grid
        expected = reference_top(triples, [s for _, _, s in triples], k)
        scored = entries(*triples)
        assert entries_at(scored, select_top_k(scored, k)) == expected

    @settings(max_examples=200, deadline=None)
    @given(grid=scored_grids(), k=st.integers(1, 25), data=st.data())
    def test_cost_ratio_matches_reference(self, grid, k, data):
        triples, n_cols = grid
        prices = data.draw(st.lists(st.sampled_from([1.0, 2.0, 4.0, 0.5]),
                                    min_size=n_cols, max_size=n_cols))
        keys = [s / prices[c] for _, c, s in triples]
        expected = reference_top(triples, keys, k)
        scored = entries(*triples)
        assert entries_at(scored, select_cost_ratio(scored, np.array(prices), k)) == expected

