import re

import numpy as np
import pytest
from paper_checks import coherence

from activemc.errors import DimensionMismatchError, NumericError
from activemc.matrix import PartialMatrix, trace_norm


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

    @pytest.mark.parametrize("norm", [trace_norm])
    def test_nonfinite_entry_is_named(self, norm):
        # the first bad entry in row-major order, as PartialMatrix names it
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan], [np.inf, 0.0, 0.0]])
        with pytest.raises(NumericError, match=r"^non-finite value for entry \(1, 2\)$"):
            norm(m)


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


class TestPartialMatrix:
    def test_unobserved_values_zeroed(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        pm = PartialMatrix(values, mask)
        np.testing.assert_array_equal(pm.values, [[1.0, 0.0], [0.0, 4.0]])
        assert pm.shape == (2, 2)

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

    def test_values_must_be_a_matrix(self):
        with pytest.raises(DimensionMismatchError, match=r"^expected a 2-d matrix, got shape \(3,\)$"):
            PartialMatrix(np.ones(3), np.ones(3, bool))

    @pytest.mark.parametrize(
        "row, col", [(-1, 0), (0, -1), (2, 0), (0, 3), (np.int64(-2), np.int64(1))],
        ids=["row-1", "col-1", "row-past", "col-past", "numpy-row-2"])
    def test_observe_rejects_a_cell_outside_the_grid(self, row, col):
        # a negative index would otherwise reveal a cell counted from the end
        pm = PartialMatrix(np.zeros((2, 3)), np.zeros((2, 3), bool))
        with pytest.raises(IndexError, match=rf"^entry \({row}, {col}\) is outside the 2x3 grid$"):
            pm.observe(row, col, 1.0)
        assert not pm.mask.any() and not pm.values.any()

    @pytest.mark.parametrize("row, col", [(True, 2), (1.0, 2), (0, np.float64(2))],
                             ids=["bool-row", "float-row", "numpy-float-col"])
    def test_observe_rejects_a_non_integer_index(self, row, col):
        # numpy would read a bool as a mask and refuse a float without naming the entry
        pm = PartialMatrix(np.zeros((3, 3)), np.zeros((3, 3), bool))
        message = f"row and col must be integers, got entry ({row!r}, {col!r})"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            pm.observe(row, col, 1.0)
        assert not pm.mask.any() and not pm.values.any()

    @pytest.mark.parametrize("bad", ["x", None, True, np.bool_(True), 1j],
                             ids=["string", "none", "bool", "numpy-bool", "complex"])
    def test_observe_rejects_a_non_number(self, bad):
        pm = PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        message = f"value for entry (0, 1) must be a number, got {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            pm.observe(0, 1, bad)
        assert not pm.mask[0, 1] and pm.values[0, 1] == 0.0

    @pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), np.float64(2.0)])
    def test_observe_takes_a_numpy_number(self, value):
        pm = PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        pm.observe(0, 1, value)
        assert pm.mask[0, 1] and pm.values[0, 1] == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_observe_rejects_a_non_finite_value(self, bad):
        pm = PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        with pytest.raises(NumericError, match=r"^non-finite value for entry \(0, 1\)$"):
            pm.observe(0, 1, bad)
        assert not pm.mask[0, 1] and pm.values[0, 1] == 0.0
