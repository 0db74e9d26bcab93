import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activemc.errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    NumericError,
    RankDeficiencyError,
)
from activemc.linear_model import (
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

    def test_singular_solve_with_a_vanishing_ridge(self):
        # a ridge of 1e-30 rounds away against Gram entries of 3, so the
        # solve meets an exactly singular system the ridge == 0 check never sees
        with pytest.raises(RankDeficiencyError, match="^Singular matrix$"):
            train_ridge(np.ones((3, 2)), np.array([1, -1, 1]), ridge=1e-30)

    @pytest.mark.parametrize("x, labels, ridge, error, message", [
        (np.empty((0, 2)), np.array([], dtype=int), 0.0, ValueError,
         "need at least one training row"),
        (np.eye(2), np.array([1, -1, 1]), 0.0, DimensionMismatchError,
         "labels length does not match feature rows"),
        (np.eye(2), np.array([1, -1]), -0.5, ValueError, "ridge must be nonnegative"),
        # not the features: a NaN ridge makes the Gram non-finite
        (11 * np.eye(2), np.array([1, -1]), float("nan"), ValueError, "ridge must be nonnegative"),
        # and an infinite one makes it overflow
        (11 * np.eye(2), np.array([1, -1]), float("inf"), ValueError, "ridge must be finite, got inf"),
    ], ids=["no-rows", "length-mismatch", "negative-ridge", "nan-ridge", "inf-ridge"])
    def test_inputs_checked(self, x, labels, ridge, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            train_ridge(x, labels, ridge)

    @pytest.mark.parametrize("ridge", [0.0, 1.0])
    def test_gram_overflow_is_named(self, ridge, capfd):
        # finite features whose squares overflow: the Gram is checked before
        # LAPACK, which would print an illegal-parameter line to stderr
        x = 1e154 * np.random.default_rng(0).standard_normal((6, 4))
        with pytest.raises(NumericError,
                           match=r"^normal equations overflow: largest \|feature\| is 2\.33e\+154$"):
            train_ridge(x, np.array([1, -1, 1, -1, 1, -1]), ridge)
        assert capfd.readouterr().err == ""

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


class TestLinearModel:
    def test_weights_must_be_a_vector(self):
        with pytest.raises(DimensionMismatchError, match="^weights must be a 1-d vector$"):
            LinearModel(weights=np.ones((2, 2)))

    @pytest.mark.parametrize("weights, bias", [([1.0, np.nan], 0.0), ([1.0, 2.0], np.inf)],
                             ids=["weight", "bias"])
    def test_parameters_must_be_finite(self, weights, bias):
        with pytest.raises(ValueError, match="^model parameters must be finite$"):
            LinearModel(weights=weights, bias=bias)


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

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="equal-length vectors"):
            accuracy(np.array([0.5, -0.5]), np.array([1, -1, 1]))

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

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="equal-length vectors"):
            auc(np.array([0.5, -0.5]), np.array([1, -1, 1]))

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 4), st.sampled_from([1, -1])),
                          min_size=2, max_size=40)
           .filter(lambda ps: len({label for _, label in ps}) == 2))
    def test_agrees_with_pair_enumeration(self, pairs):
        # few distinct integer scores force ties; the average ranks are
        # half-integers and the pair count is a sum of halves, so both are exact
        scores = np.array([float(s) for s, _ in pairs])
        labels = np.array([label for _, label in pairs])
        pos = scores[labels == 1]
        neg = scores[labels == -1]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc(scores, labels) == wins / (len(pos) * len(neg))

