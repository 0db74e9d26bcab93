import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activemc.errors import DegenerateLabelsError, DimensionMismatchError, RankDeficiencyError
from activemc.linear_model import (
    LabeledSplit,
    LinearModel,
    _as_labels,
    accuracy,
    auc,
    decision_values,
    train_ridge,
)


def stacked_ridge(x, y, ridge):
    """Ridge solution from the normal equations of ``[x, 1]``, stacked explicitly."""
    n, d = x.shape
    aug = np.hstack([x, np.ones((n, 1))])
    gram = aug.T @ aug
    gram[:d, :d] += ridge * np.eye(d)
    return np.linalg.solve(gram, aug.T @ y)


class TestTrainRidge:
    def test_aligned_one_dimensional(self):
        model = train_ridge(np.array([[1.0], [-1.0]]), np.array([1, -1]), ridge=0.0)
        np.testing.assert_allclose(model.weights, [1.0], atol=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)

    def test_heavy_ridge_leaves_intercept(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        y = np.ones(20, dtype=int)
        model = train_ridge(x, y, ridge=1e9)
        np.testing.assert_allclose(model.weights, np.zeros(3), atol=1e-6)
        assert model.bias == pytest.approx(1.0, abs=1e-6)

    def test_stationarity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 5))
        y = np.where(rng.random(30) < 0.5, 1, -1)
        model = train_ridge(x, y, ridge=0.1)
        residual = x @ model.weights + model.bias - y
        assert np.linalg.norm(x.T @ residual + 0.1 * model.weights) < 1e-8
        assert abs(residual.sum()) < 1e-8

    def test_singular_without_ridge(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
        with pytest.raises(RankDeficiencyError):
            train_ridge(x, np.array([1, -1, 1]), ridge=0.0)
        train_ridge(x, np.array([1, -1, 1]), ridge=1e-3)  # regularized is fine

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            train_ridge(np.eye(2), np.array([1, 0]))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 12),
           ridge=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_stacked_normal_equations(self, seed, n, d, ridge):
        # the Gram blocks are built without the n x (d + 1) stacked copy;
        # on well-conditioned systems only rounding separates the two
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        model = train_ridge(x, y, ridge)
        expected = stacked_ridge(x, y.astype(float), ridge)
        actual = np.append(model.weights, model.bias)
        assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), d=st.integers(1, 6),
           defect=st.sampled_from(["few_rows", "duplicate", "constant"]))
    @settings(max_examples=100, deadline=None)
    def test_rank_deficient_without_ridge_raises(self, seed, n, d, defect):
        rng = np.random.default_rng(seed)
        if defect == "few_rows":  # at most d rows for d + 1 unknowns
            x = rng.standard_normal((min(n, d), d))
        else:
            x = rng.standard_normal((n, d + 1))
            # a repeated column, or one collinear with the intercept
            x[:, -1] = x[:, 0] if defect == "duplicate" else 2.5
        y = np.where(rng.random(x.shape[0]) < 0.5, 1, -1)
        with pytest.raises(RankDeficiencyError):
            train_ridge(x, y, ridge=0.0)


class TestAsLabels:
    @pytest.mark.parametrize("bad", [0, 2, -1.5, np.nan, np.inf])
    def test_rejects_values_outside_plus_minus_one(self, bad):
        with pytest.raises(ValueError):
            _as_labels(np.array([1.0, -1.0, bad]))

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatchError):
            _as_labels(np.array([[1, -1], [-1, 1]]))

    def test_accepts_plus_minus_one_of_any_dtype(self):
        for labels in ([1, -1], np.array([1.0, -1.0]), np.array([1, -1], dtype=np.int8), []):
            y = _as_labels(labels)
            assert y.dtype == float
            np.testing.assert_array_equal(y, labels)


class TestDecisionValues:
    def test_constant_model(self):
        model = LinearModel(weights=np.zeros(3), bias=0.5)
        np.testing.assert_array_equal(decision_values(model, np.eye(3)), [0.5, 0.5, 0.5])

    def test_identity_copies_weights(self):
        model = LinearModel(weights=np.array([2.0, -1.0, 0.5]), bias=0.0)
        np.testing.assert_array_equal(decision_values(model, np.eye(3)), model.weights)

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            decision_values(model, np.eye(2))


class TestAccuracy:
    def test_perfect(self):
        labels = np.array([1, -1, 1])
        assert accuracy(labels.astype(float), labels) == 1.0

    def test_inverted(self):
        labels = np.array([1, -1, 1])
        assert accuracy(-labels.astype(float), labels) == 0.0

    def test_hand_count(self):
        assert accuracy(np.array([0.3, -0.2, 0.1]), np.array([1, 1, -1])) == pytest.approx(1 / 3)

    def test_zero_score_counts_as_positive(self):
        assert accuracy(np.array([0.0, 0.0]), np.array([1, -1])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(40)
        labels = np.where(rng.random(40) < 0.5, 1, -1)
        perm = rng.permutation(40)
        assert accuracy(scores, labels) == accuracy(scores[perm], labels[perm])


class TestAuc:
    def test_separated(self):
        assert auc(np.array([3.0, 2.0, -1.0, -2.0]), np.array([1, 1, -1, -1])) == 1.0

    def test_all_ties(self):
        assert auc(np.ones(6), np.array([1, 1, 1, -1, -1, -1])) == 0.5

    def test_enumerated_pairs(self):
        assert auc(np.array([0.9, 0.4, 0.6, 0.1]), np.array([1, -1, 1, -1])) == 1.0

    def test_partial_tie(self):
        # one tied positive-negative pair counts 1/2
        assert auc(np.array([1.0, 1.0]), np.array([1, -1])) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(50)
        labels = np.where(rng.random(50) < 0.4, 1, -1)
        assert auc(np.exp(scores), labels) == pytest.approx(auc(scores, labels))
        assert auc(3 * scores + 7, labels) == pytest.approx(auc(scores, labels))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(30)
        labels = np.where(rng.random(30) < 0.5, 1, -1)
        perm = rng.permutation(30)
        assert auc(scores, labels) == pytest.approx(auc(scores[perm], labels[perm]))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            auc(np.array([1.0, 2.0]), np.array([1, 1]))

    def test_agrees_with_pair_enumeration(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 5, size=25).astype(float)  # force ties
        labels = np.where(rng.random(25) < 0.5, 1, -1)
        if labels.min() == labels.max():
            labels[0] = -labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == -1]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)))


class TestLabeledSplit:
    def test_valid(self):
        split = LabeledSplit(np.zeros((3, 2)), np.array([1, -1, 1]))
        assert len(split) == 3

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledSplit(np.zeros((2, 2)), np.array([1, 2]))
        with pytest.raises(ValueError):  # not truncated to +-1
            LabeledSplit(np.zeros((2, 2)), np.array([1.5, -1.5]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LabeledSplit(np.zeros((3, 2)), np.array([1, -1]))
