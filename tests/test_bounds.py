import math

import numpy as np
import pytest

from activemc.bounds import BoundParams, lemma3_check, lemma3_sweep, theorem1_bound
from activemc.errors import UndefinedCoherenceError


class TestBoundParams:
    def test_rank_must_fit(self):
        with pytest.raises(ValueError):
            BoundParams(beta=1.0, r=5, n=4, d=4, omega_size=10, mu=1.0)

    def test_omega_bounded_by_size(self):
        with pytest.raises(ValueError):
            BoundParams(beta=1.0, r=1, n=2, d=2, omega_size=5, mu=1.0)

    def test_mu_positive(self):
        with pytest.raises(ValueError):
            BoundParams(beta=1.0, r=1, n=2, d=2, omega_size=2, mu=0.0)


class TestTheorem1Bound:
    def params(self, omega, beta=1.0, r=5, mu=1.0, c0=1.0, n=100, d=100):
        return BoundParams(beta=beta, r=r, n=n, d=d, omega_size=omega, mu=mu, c0=c0)

    def test_more_observations_shrink_the_bound(self):
        assert theorem1_bound(self.params(6000)) > theorem1_bound(self.params(9000))
        assert theorem1_bound(self.params(3000)) > theorem1_bound(self.params(6000))

    def test_zero_beta_gives_zero(self):
        assert theorem1_bound(self.params(6000, beta=0.0)) == 0.0

    def test_monotone_in_mu_beta_rank(self):
        base = theorem1_bound(self.params(6000))
        assert theorem1_bound(self.params(6000, mu=2.0)) > base
        assert theorem1_bound(self.params(6000, beta=2.0)) > base
        assert theorem1_bound(self.params(6000, r=10)) > base

    def test_against_independent_evaluation(self):
        # same quantity assembled step by step from scratch
        p = self.params(6000)
        size = p.n + p.d
        ratio = p.r * size / p.omega_size
        log_term = 1.0 + size * math.log(size) / p.omega_size
        expected = 2.0 * p.c0 * (p.mu**2) * p.beta * math.sqrt(ratio) * math.sqrt(log_term)
        assert theorem1_bound(p) == pytest.approx(expected, rel=1e-12)

    def test_requires_observations(self):
        with pytest.raises(ValueError):
            theorem1_bound(self.params(0))


class TestLemma3:
    def test_all_ones_partner(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((5, 4))
            result = lemma3_check(a, np.ones((5, 4)))
            assert result.holds

    def test_zero_second_argument(self):
        result = lemma3_check(np.eye(3), np.zeros((3, 3)))
        assert result.lhs == 0.0 and result.holds

    def test_zero_first_argument_rejected(self):
        with pytest.raises(UndefinedCoherenceError):
            lemma3_check(np.zeros((3, 3)), np.eye(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lemma3_check(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("trials,max_dim", [(0, 20), (-1, 20), (10, 0)])
    def test_sweep_needs_a_trial_and_a_dimension(self, trials, max_dim):
        with pytest.raises(ValueError, match="^trials and max_dim must be at least 1"):
            lemma3_sweep(trials, np.random.default_rng(0), max_dim=max_dim)

    def test_random_sweep_has_no_violations(self):
        violations, worst = lemma3_sweep(200, np.random.default_rng(1), max_dim=20)
        assert violations == 0
        assert worst <= 1.0 + 1e-9
