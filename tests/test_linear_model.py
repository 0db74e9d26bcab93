import numpy as np
import pytest

from activemc.errors import DegenerateLabelsError, DimensionMismatchError, RankDeficiencyError
from activemc.linear_model import (
    LabeledSplit,
    LinearModel,
    accuracy,
    auc,
    decision_values,
    predict,
    train_ridge,
)


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


class TestDecisionValues:
    def test_constant_model(self):
        model = LinearModel(weights=np.zeros(3), bias=0.5)
        np.testing.assert_array_equal(decision_values(model, np.eye(3)), [0.5, 0.5, 0.5])

    def test_identity_copies_weights(self):
        model = LinearModel(weights=np.array([2.0, -1.0, 0.5]), bias=0.0)
        np.testing.assert_array_equal(decision_values(model, np.eye(3)), model.weights)

    def test_predict_is_sign_with_positive_ties(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0)
        x = np.array([[2.0], [-3.0], [0.0]])
        np.testing.assert_array_equal(predict(model, x), [1, -1, 1])
        np.testing.assert_array_equal(
            predict(model, x), np.where(decision_values(model, x) >= 0, 1, -1)
        )

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

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LabeledSplit(np.zeros((3, 2)), np.array([1, -1]))
