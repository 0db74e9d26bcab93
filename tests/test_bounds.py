"""Theorem 1's recovery bound and Lemma 3's inequality, as ``paper_checks`` evaluates them."""

import math

import numpy as np
import pytest
from paper_checks import LEMMA_TOLERANCE, lemma3_sides, lemma3_sweep, theorem1_bound


class TestTheorem1Bound:
    def bound(self, omega, beta=1.0, r=5, mu=1.0, c0=1.0, n=100, d=100):
        return theorem1_bound(beta=beta, r=r, n=n, d=d, omega_size=omega, mu=mu, c0=c0)

    def test_more_observations_shrink_the_bound(self):
        assert self.bound(6000) > self.bound(9000)
        assert self.bound(3000) > self.bound(6000)

    def test_zero_beta_gives_zero(self):
        assert self.bound(6000, beta=0.0) == 0.0

    def test_monotone_in_mu_beta_rank(self):
        base = self.bound(6000)
        assert self.bound(6000, mu=2.0) > base
        assert self.bound(6000, beta=2.0) > base
        assert self.bound(6000, r=10) > base

    def test_against_independent_evaluation(self):
        # same quantity assembled step by step from scratch
        n, d, r, omega, mu, beta, c0 = 100, 100, 5, 6000, 1.0, 1.0, 1.0
        size = n + d
        ratio = r * size / omega
        log_term = 1.0 + size * math.log(size) / omega
        expected = 2.0 * c0 * (mu**2) * beta * math.sqrt(ratio) * math.sqrt(log_term)
        assert self.bound(omega) == pytest.approx(expected, rel=1e-12)


class TestLemma3:
    def test_all_ones_partner(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            lhs, rhs = lemma3_sides(rng.standard_normal((5, 4)), np.ones((5, 4)))
            assert lhs <= rhs + LEMMA_TOLERANCE

    def test_random_sweep_has_no_violations(self):
        violations, worst = lemma3_sweep(200, np.random.default_rng(1), max_dim=20)
        assert violations == 0
        assert worst <= 1.0 + 1e-9
