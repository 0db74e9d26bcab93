import numpy as np
import pytest

from activemc.errors import DimensionMismatchError, NumericError, UndefinedCoherenceError
from activemc.matrix import PartialMatrix, coherence, trace_norm


class TestNorms:
    def test_diagonal_case(self):
        m = np.diag([3.0, 2.0, 1.0])
        assert trace_norm(m) == pytest.approx(6.0)
        assert np.linalg.norm(m, "fro") == pytest.approx(np.sqrt(14.0))

    def test_zero(self):
        z = np.zeros((3, 4))
        assert trace_norm(z) == 0.0
        assert np.linalg.norm(z, "fro") == 0.0

    def test_rank_one_identity(self):
        # for a b^T the lone singular value is ||a|| ||b||
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal(5), rng.standard_normal(3)
        m = np.outer(a, b)
        expected = np.linalg.norm(a) * np.linalg.norm(b)
        assert trace_norm(m) == pytest.approx(expected, rel=1e-10)
        assert np.linalg.norm(m, "fro") == pytest.approx(expected, rel=1e-10)

    def test_trace_dominates_frobenius(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = rng.standard_normal((rng.integers(1, 13), rng.integers(1, 10)))
            assert trace_norm(m) >= np.linalg.norm(m, "fro") - 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            trace_norm(np.array([[np.inf, 0.0]]))


class TestCoherence:
    def test_identity(self):
        assert coherence(np.eye(4)) == pytest.approx(1.0)

    def test_single_spike(self):
        m = np.zeros((5, 5))
        m[0, 0] = 1.0
        assert coherence(m) == pytest.approx(1.0)

    def test_all_ones(self):
        assert coherence(np.ones((4, 4))) == pytest.approx(0.5)

    def test_range_and_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = rng.standard_normal((6, 5))
            c = coherence(m)
            assert 0.0 < c <= 1.0 + 1e-12
            p = np.eye(6)[rng.permutation(6)]
            q = np.eye(5)[rng.permutation(5)]
            assert coherence(p @ m @ q) == pytest.approx(c, rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(UndefinedCoherenceError):
            coherence(np.zeros((3, 3)))


class TestPartialMatrix:
    def test_unobserved_values_zeroed(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        pm = PartialMatrix(values, mask)
        np.testing.assert_array_equal(pm.values, [[1.0, 0.0], [0.0, 4.0]])
        assert pm.n_rows == 2 and pm.n_cols == 2

    def test_observe_is_one_way(self):
        pm = PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        pm.observe(0, 1, 5.0)
        assert pm.values[0, 1] == 5.0
        assert pm.mask[0, 1]
        with pytest.raises(ValueError):
            pm.observe(0, 1, 6.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_value_rejected(self, bad):
        # the same error observe() raises; unobserved cells may hold anything
        values = np.array([[1.0, bad, 2.0], [bad, 3.0, bad]])
        mask = np.array([[True, False, True], [False, True, True]])
        with pytest.raises(NumericError, match=r"^non-finite value for entry \(1, 2\)$"):
            PartialMatrix(values, mask)
        pm = PartialMatrix(values, mask & np.isfinite(values))
        np.testing.assert_array_equal(pm.values, [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PartialMatrix(np.ones((2, 2)), np.ones((2, 3), bool))
