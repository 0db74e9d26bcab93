import hashlib

import numpy as np
import pytest

from activemc.errors import DegenerateLabelsError
from activemc.synthetic import (
    labeled_lowrank,
    lowrank_matrix,
    margin_labeled_lowrank,
    sign_labels,
)


class TestLowrankMatrix:
    @pytest.mark.parametrize("n, d, rank", [(20, 8, 1), (20, 8, 3), (6, 15, 6), (10, 10, 10)])
    def test_exact_rank(self, n, d, rank):
        x = lowrank_matrix(n, d, rank, np.random.default_rng(rank))
        assert x.shape == (n, d)
        assert np.linalg.matrix_rank(x) == rank

    @pytest.mark.parametrize("rank", [0, 9])
    def test_rank_out_of_range_rejected(self, rank):
        with pytest.raises(ValueError):
            lowrank_matrix(10, 8, rank, np.random.default_rng(0))


class TestLabeledLowrank:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_classes_from_the_returned_weights(self, seed):
        x, y, w = labeled_lowrank(30, 7, 2, np.random.default_rng(seed))
        assert set(y.tolist()) == {-1, 1}
        np.testing.assert_array_equal(y, sign_labels(x, w))
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.linalg.matrix_rank(x) == 2

    def test_draws_pinned(self):
        # the instance a fixed seed gives; the CLI's bound command and the
        # benchmark's 2000x100 instances are drawn by this function
        x, y, w = labeled_lowrank(40, 6, 2, np.random.default_rng(5))
        digest = hashlib.sha256(x.tobytes() + y.astype(np.int64).tobytes() + w.tobytes())
        assert digest.hexdigest() == (
            "b22b36bcfdffe2f72599bddc491c9f18bf01016e1b6adf9437977720a244de28"
        )

    def test_one_class_every_draw_gives_up(self):
        # a single row carries one label, however often it is redrawn
        with pytest.raises(DegenerateLabelsError, match="^could not draw a two-class"):
            labeled_lowrank(1, 3, 1, np.random.default_rng(0))


class TestMarginLabeledLowrank:
    @pytest.mark.parametrize("spectrum", [[60.0, 40.0, 2.0], [5.0, 5.0, 1.0]])
    def test_singular_values_equal_spectrum(self, spectrum):
        x, _, _ = margin_labeled_lowrank(50, 9, 3, np.random.default_rng(1), spectrum=spectrum)
        s = np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(s[:3], spectrum, rtol=1e-12)
        assert s[3:].max() <= 1e-12 * spectrum[0]

    def test_labels_follow_the_weakest_direction(self):
        x, y, w = margin_labeled_lowrank(50, 9, 3, np.random.default_rng(2))
        np.testing.assert_array_equal(y, sign_labels(x, w))
        assert set(y.tolist()) == {-1, 1}

    @pytest.mark.parametrize("rank", [0, 6])
    def test_rank_out_of_range_rejected(self, rank):
        with pytest.raises(ValueError, match=r"^rank must lie in \[1, min\(n, d\)\]$"):
            margin_labeled_lowrank(20, 5, rank, np.random.default_rng(0))

    def test_spectrum_length_checked(self):
        with pytest.raises(ValueError):
            margin_labeled_lowrank(20, 5, 3, np.random.default_rng(0), spectrum=[1.0, 2.0])
