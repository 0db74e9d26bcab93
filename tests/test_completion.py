import dataclasses
import multiprocessing
import os
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from activemc import completion
from activemc.completion import (
    CompletionConfig,
    _svt_with_sigma,
    fit,
    grad_g,
    objective,
    svt,
)
from activemc.errors import DimensionMismatchError, DivergenceError, NumericError
from activemc.harness import init_mask, masked_problem, reconstruction_errors
from activemc.linear_model import LinearModel, _as_labels, train_ridge
from activemc.matrix import PartialMatrix, trace_norm
from activemc.synthetic import labeled_lowrank, lowrank_matrix


def zero_model(d):
    return LinearModel(weights=np.zeros(d), bias=0.0)


def random_instance(rng, n=6, d=4, observed=0.6):
    x = rng.standard_normal((n, d))
    mask = rng.random((n, d)) < observed
    obs = PartialMatrix(np.where(mask, x, 0.0), mask)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    model = LinearModel(weights=rng.standard_normal(d), bias=rng.standard_normal())
    return x, obs, y, model


def svt_reference(m, tau):
    """SVT and its shrunk spectrum from a full SVD, the textbook definition."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk) @ vh, shrunk


def assert_rel_close(actual, desired, rtol):
    scale = np.linalg.norm(desired)
    assert np.linalg.norm(np.asarray(actual) - desired) <= rtol * scale


def solve(obs, model, y, cfg, warm):
    """One inner solve at ``cfg.tol``: (best x, objective without the ridge term, steps)."""
    warm = np.asarray(warm, dtype=float)
    tr_warm = trace_norm(warm) if cfg.lambda1 else 0.0
    state = completion._State(obs, _as_labels(y), cfg.lambda2, warm)
    state.add_apg_arrays()
    best_x, _, best_f, _, steps = completion._apg(state, model, cfg, tr_warm, cfg.tol)
    return best_x, best_f, steps


def reference_apg(obs, model, y, cfg, warm, tr_warm, tol):
    """``completion._apg`` from the textbook recursion: the momentum point
    formed, the public ``grad_g``, a full-SVD SVT and every objective from
    scratch, with the same stop rule and the same return values."""
    lip = 1.0 + 2.0 * cfg.lambda2 * float(model.weights @ model.weights)
    ridge = completion._ridge_term(model, cfg)
    x_prev = x_curr = best_x = warm
    f_curr = best_f = start_f = objective(warm, obs, model, y, cfg) - ridge
    theta_prev = theta = 1.0
    for k in range(cfg.max_inner):
        beta = theta * (1.0 / theta_prev - 1.0)
        z = x_curr + beta * (x_curr - x_prev)
        step = z - grad_g(z, obs, model, y, cfg.lambda2) / lip
        x_prev, x_curr = x_curr, svt_reference(step, cfg.lambda1 / lip)[0]
        theta_prev, theta = theta, 0.5 * (np.sqrt(theta**4 + 4 * theta**2) - theta**2)
        f_next = objective(x_curr, obs, model, y, cfg) - ridge
        if f_next < best_f:
            best_x, best_f = x_curr, f_next
        rel = abs(f_curr - f_next) / max(abs(f_curr), 1e-12)
        f_curr = f_next
        if rel < tol and (beta == 0.0 or k + 1 >= completion._MIN_INNER_STEPS):
            break
    return best_x, trace_norm(best_x) if cfg.lambda1 else 0.0, best_f, start_f, k + 1


def use_reference_apg(monkeypatch, obs):
    """Make ``fit`` solve each round's matrix block on ``obs`` with
    ``reference_apg``, whose answer goes into the state's other buffer and
    becomes its current matrix, as ``completion._apg`` leaves it."""
    def apg(state, model, cfg, tr_warm, tol):
        best_x, *rest = reference_apg(obs, model, state.y, cfg, state.x_hat(), tr_warm, tol)
        state.current = 1 - state.current
        np.copyto(state.x_hat(), best_x)
        return (state.x_hat(), *rest)

    monkeypatch.setattr(completion, "_apg", apg)


class TestConfig:
    def test_defaults_valid(self):
        cfg = CompletionConfig()
        assert cfg.lambda1 == 1.0 and cfg.lambda2 == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda1": -0.1},
            {"lambda2": -1.0},
            {"tol": 0.0},
            {"max_inner": 0},
            {"ridge": -1.0},
            {"max_outer": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CompletionConfig(**kwargs)

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "tol", "ridge"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, name, value):
        # a NaN tol would disable every stop: any comparison with NaN is false
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            CompletionConfig(**{name: value})

    @pytest.mark.parametrize("name", ["max_outer", "max_inner"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["2.5", "3.0", "True"])
    def test_non_integer_limit_rejected(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            CompletionConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "tol", "ridge"])
    @pytest.mark.parametrize("value", ["1", None, True], ids=["str", "None", "True"])
    def test_non_number_rejected(self, name, value):
        # the message names the field; a bool is not a number here
        with pytest.raises(TypeError, match=f"^{name} must be a number, got {value!r}$"):
            CompletionConfig(**{name: value})


class TestObjective:
    def test_zero_at_truth_without_penalties(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        obs = PartialMatrix(x, np.ones_like(x, dtype=bool))
        cfg = CompletionConfig(lambda1=0.0, lambda2=0.0)
        y = np.array([1, -1, 1, -1])
        assert objective(x, obs, zero_model(3), y, cfg) == 0.0

    def test_all_terms_vanish(self):
        obs = PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        cfg = CompletionConfig(lambda1=1.0, lambda2=0.0)
        y = np.array([1, -1])
        assert objective(np.zeros((2, 2)), obs, zero_model(2), y, cfg) == 0.0

    def test_hand_computed_value(self):
        # one observed cell with value 2, candidate identity, lambda1=1:
        # 0.5*(1-2)^2 + (1+1) = 2.5
        mask = np.array([[True, False], [False, False]])
        values = np.array([[2.0, 0.0], [0.0, 0.0]])
        obs = PartialMatrix(values, mask)
        cfg = CompletionConfig(lambda1=1.0, lambda2=0.0)
        y = np.array([1, -1])
        assert objective(np.eye(2), obs, zero_model(2), y, cfg) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        obs = PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        with pytest.raises(DimensionMismatchError):
            objective(np.zeros((3, 2)), obs, zero_model(2), np.array([1, -1]), CompletionConfig())

    def test_model_width_mismatch(self):
        obs = PartialMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        with pytest.raises(DimensionMismatchError,
                           match="^model width does not match column count$"):
            objective(np.zeros((2, 2)), obs, zero_model(3), np.array([1, -1]), CompletionConfig())


class TestGradG:
    def test_zero_at_data(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3))
        mask = rng.random((4, 3)) < 0.5
        obs = PartialMatrix(np.where(mask, x, 0.0), mask)
        y = np.array([1, -1, 1, -1])
        g = grad_g(np.where(mask, x, 0.0), obs, zero_model(3), y, 0.0)
        np.testing.assert_array_equal(g, np.zeros((4, 3)))

    def test_masked_residual(self):
        mask = np.zeros((2, 2), bool)
        mask[0, 0] = True
        obs = PartialMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), mask)
        z = np.array([[4.0, 9.0], [9.0, 9.0]])
        g = grad_g(z, obs, zero_model(2), np.array([1, -1]), 0.0)
        np.testing.assert_array_equal(g, [[3.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("lambda2", [0.0, 1.0])
    def test_matches_finite_differences(self, lambda2):
        # central differences of the smooth part, step 1e-6
        rng = np.random.default_rng(42)
        x, obs, y, model = random_instance(rng, n=6, d=4)
        z = rng.standard_normal((6, 4))

        def g_value(zz):
            diff = np.where(obs.mask, zz - obs.values, 0.0)
            value = 0.5 * np.sum(diff * diff)
            if lambda2:
                res = zz @ model.weights + model.bias - y
                value += lambda2 * res @ res
            return value

        eps = 1e-6
        fd = np.zeros_like(z)
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += eps
                zm[i, j] -= eps
                fd[i, j] = (g_value(zp) - g_value(zm)) / (2 * eps)

        g = grad_g(z, obs, model, y, lambda2)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


# (rows, cols, rank, seed); rank below min(rows, cols) makes it rank-deficient
# and rank 0 the zero matrix
matrices = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(st.just(shape[0]), st.just(shape[1]),
                            st.integers(0, min(shape)), st.integers(0, 2**32 - 1)))


def build_matrix(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    return scale * rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


class TestSvt:
    @settings(max_examples=50, deadline=None)
    @given(m=matrices)
    def test_tau_zero_is_identity(self, m):
        a = build_matrix(*m)
        np.testing.assert_array_equal(svt(a, 0.0), a)

    def test_full_shrinkage(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 5))
        sigma_max = np.linalg.svd(m, compute_uv=False)[0]
        np.testing.assert_allclose(svt(m, sigma_max + 1.0), np.zeros((4, 5)), atol=1e-12)

    def test_diagonal_shrinkage(self):
        np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.5)

    def test_prox_optimality_under_perturbation(self):
        # svt minimizes tau*||W||_tr + 0.5*||W - m||_F^2
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.standard_normal((rng.integers(2, 7), rng.integers(2, 7)))
            tau = rng.uniform(0.0, 1.2) * np.linalg.svd(m, compute_uv=False)[0]
            w = svt(m, tau)
            base = tau * trace_norm(w) + 0.5 * np.linalg.norm(w - m, "fro") ** 2
            for _ in range(20):
                delta = rng.standard_normal(m.shape)
                delta *= 1e-3 / np.linalg.norm(delta)
                perturbed = w + delta
                value = tau * trace_norm(perturbed) + 0.5 * np.linalg.norm(perturbed - m, "fro") ** 2
                assert base <= value + 1e-12


class TestSvtProperties:
    """The Gram-eigendecomposition SVT against the full-SVD definition.

    Errors are measured against ``||m||_F``: both kernels round at the scale
    of the largest singular value, and the Gram kernel's error grows like
    ``eps * sigma_1 / tau``, so thresholds run from 1e-3 * sigma_1 up.
    """

    @settings(max_examples=200, deadline=None)
    @given(m=matrices, frac=st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 3.0)))
    def test_matches_full_svd(self, m, frac):
        a = build_matrix(*m)
        sigma_1 = np.linalg.svd(a, compute_uv=False).max(initial=0.0)
        tau = frac * sigma_1
        size = np.linalg.norm(a)
        ref, ref_shrunk = svt_reference(a, tau)
        out, shrunk = _svt_with_sigma(a, tau)
        assert out.shape == a.shape
        assert np.linalg.norm(out - ref) <= 1e-9 * size
        assert np.linalg.norm(svt(a, tau) - ref) <= 1e-9 * size
        np.testing.assert_allclose(shrunk, ref_shrunk, rtol=0, atol=1e-9 * size)
        assert abs(shrunk.sum() - trace_norm(out)) <= 1e-9 * size
        if frac >= 1.001:  # tau clear above sigma_1 leaves nothing
            np.testing.assert_array_equal(out, np.zeros_like(a))

    @pytest.mark.parametrize("scale", [1.0, 1.3, 1.9])
    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    @settings(max_examples=50, deadline=None)
    @given(m=matrices, frac=st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 3.0)))
    def test_scale_matches_full_svd_of_scaled_matrix(self, m, frac, wide, scale):
        a = build_matrix(*m)
        a = a.T if (a.shape[0] < a.shape[1]) != wide else a
        b = scale * a
        tau = frac * np.linalg.svd(b, compute_uv=False).max(initial=0.0)
        size = np.linalg.norm(b)
        ref, ref_shrunk = svt_reference(b, tau)
        # the seam the inner step uses: SVT of scale * a from the Gram matrix of a
        tall = a.T if wide else a
        v_k, coef, shrunk = completion._svt_basis(tall.T @ tall, tau, scale)
        out = ((tall @ v_k) * coef) @ v_k.T
        out = out.T if wide else out
        assert out.shape == a.shape
        assert np.linalg.norm(out - ref) <= 1e-9 * size
        np.testing.assert_allclose(shrunk, ref_shrunk, rtol=0, atol=1e-9 * size)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_threshold_a_millionth_of_sigma_1(self, transpose):
        rng = np.random.default_rng(14)
        u, _ = np.linalg.qr(rng.standard_normal((300, 40)))
        v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = (u * np.logspace(0, -9, 40)) @ v.T
        a = a.T if transpose else a
        tau = 1e-6
        out, shrunk = _svt_with_sigma(a, tau)
        ref, ref_shrunk = svt_reference(a, tau)
        assert_rel_close(out, ref, 1e-9)
        np.testing.assert_allclose(shrunk, ref_shrunk, rtol=0, atol=1e-9)


class TestApgMinimize:
    """One accelerated proximal gradient solve of the matrix block, model fixed."""

    def test_fully_observed_unpenalized_recovers_data(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 4))
        obs = PartialMatrix(x, np.ones_like(x, dtype=bool))
        cfg = CompletionConfig(lambda1=0.0, lambda2=0.0)
        y = np.where(rng.random(6) < 0.5, 1, -1)
        out, _, _ = solve(obs, zero_model(4), y, cfg, np.zeros_like(x))
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_huge_lambda1_shrinks_to_zero(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 4))
        mask = rng.random((5, 4)) < 0.7
        obs = PartialMatrix(np.where(mask, x, 0.0), mask)
        lam = np.linalg.norm(obs.values, "fro") ** 2 + 10.0
        cfg = CompletionConfig(lambda1=lam, lambda2=0.0)
        y = np.where(rng.random(5) < 0.5, 1, -1)
        out, _, _ = solve(obs, zero_model(4), y, cfg, obs.values)
        assert np.linalg.norm(out, "fro") < 1e-8

    def test_synthetic_recovery_beats_zero_and_descends(self):
        rng = np.random.default_rng(7)
        x = lowrank_matrix(20, 10, 2, rng)
        mask = rng.random((20, 10)) < 0.8
        obs = PartialMatrix(np.where(mask, x, 0.0), mask)
        cfg = CompletionConfig(lambda1=1.0, lambda2=0.0)
        y = np.where(rng.random(20) < 0.5, 1, -1)
        warm = obs.values.copy()
        out, _, _ = solve(obs, zero_model(10), y, cfg, warm)

        err = np.linalg.norm(out - x, "fro") / np.linalg.norm(x, "fro")
        assert err < 1.0  # better than the all-zero recovery
        start = objective(warm, obs, zero_model(10), y, cfg)
        final = objective(out, obs, zero_model(10), y, cfg)
        assert final <= start

    def test_one_step_is_svt_of_the_gradient_point(self):
        # from a warm start the momentum is zero, so the first step is the
        # textbook proximal gradient step at the closed-form constant L
        rng = np.random.default_rng(8)
        x, obs, y, model = random_instance(rng, n=8, d=5)
        cfg = CompletionConfig(lambda1=0.5, lambda2=1.0, max_inner=1)
        warm = obs.values.copy()
        out, _, steps = solve(obs, model, y, cfg, warm)
        assert steps == 1
        assert objective(out, obs, model, y, cfg) < objective(warm, obs, model, y, cfg)

        lip = 1.0 + 2.0 * cfg.lambda2 * float(model.weights @ model.weights)
        step = warm - grad_g(warm, obs, model, y, cfg.lambda2) / lip
        assert_rel_close(out, svt(step, cfg.lambda1 / lip), 1e-12)

    @pytest.mark.parametrize("shape, lambda1, lambda2", [
        ((9, 6), 0.5, 1.0), ((6, 9), 0.5, 1.0), ((9, 6), 0.5, 0.0), ((6, 9), 0.5, 0.0),
        ((9, 6), 0.0, 1.0), ((6, 9), 0.0, 1.0),
    ], ids=["tall", "wide", "tall-unsupervised", "wide-unsupervised",
            "tall-lambda1-0", "wide-lambda1-0"])
    def test_steps_follow_the_fista_recursion(self, monkeypatch, shape, lambda1, lambda2):
        # the fused step carries each iterate's gradient step G(x) and takes
        # the momentum point's as (1 + beta) * G(x) - beta * G(x_prev); the
        # reference builds every step from the public grad_g and svt
        rng = np.random.default_rng(9)
        x, obs, y, model = random_instance(rng, *shape)
        cfg = CompletionConfig(lambda1=lambda1, lambda2=lambda2, ridge=0.0, max_inner=8)
        warm = obs.values.copy()
        seen = []  # (Gram matrix of the gradient point, threshold, shrunk spectrum) of every step
        real = completion._svt_basis

        def recorded(gram, tau, scale):
            out = real(gram, tau, scale)
            seen.append((scale**2 * gram, tau, out[2]))
            return out

        # the reference's svt must not run through the recorder
        with monkeypatch.context() as patch:
            patch.setattr(completion, "_svt_basis", recorded)
            best_x, best_f, steps = solve(obs, model, y, cfg, warm)
        assert steps == cfg.max_inner
        assert len(seen) == (steps if lambda1 else 0)  # lambda1 = 0 runs no SVT

        lip = 1.0 + 2.0 * cfg.lambda2 * float(model.weights @ model.weights)
        x_prev = x_curr = warm
        theta_prev = theta = 1.0
        iterates, values = [warm], [objective(warm, obs, model, y, cfg)]
        for k in range(steps):
            z = x_curr + theta * (1.0 / theta_prev - 1.0) * (x_curr - x_prev)
            step = z - grad_g(z, obs, model, y, cfg.lambda2) / lip
            x_prev, x_curr = x_curr, svt(step, cfg.lambda1 / lip)
            theta_prev, theta = theta, 0.5 * (np.sqrt(theta**4 + 4 * theta**2) - theta**2)
            if lambda1:
                gram, tau, shrunk = seen[k]
                tall = step.T if shape[0] < shape[1] else step
                assert tau == cfg.lambda1 / lip
                assert_rel_close(gram, tall.T @ tall, 1e-10)
                assert_rel_close(shrunk, svt_reference(step, tau)[1], 1e-10)
            iterates.append(x_curr)
            values.append(objective(x_curr, obs, model, y, cfg))
        # the best iterate is returned with its objective (ridge = 0 here)
        best = int(np.argmin(values))
        assert best_f == pytest.approx(values[best], rel=1e-10, abs=0)
        if best == 0:
            np.testing.assert_array_equal(best_x, warm)
        assert_rel_close(best_x, iterates[best], 1e-10)
        # every shorter solve returns the best of its own prefix of the steps
        for limit in range(1, steps + 1):
            out_x, out_f, _ = solve(obs, model, y, dataclasses.replace(cfg, max_inner=limit), warm)
            best = int(np.argmin(values[:limit + 1]))
            assert out_f == pytest.approx(values[best], rel=1e-10, abs=0)
            assert_rel_close(out_x, iterates[best], 1e-10)

    def test_value_of_a_point_agrees_with_the_outer_objective(self):
        # fit weighs the inner loop's values against the outer objective's;
        # one point under one model must give the same value in both
        # the threshold zeroes every step, so no step improves on the warm zeros
        cfg = CompletionConfig(lambda1=1e6, lambda2=1.0, max_inner=3)
        # one block, then two
        for n, d in [(30, 8), (800, 100)]:
            for seed in range(10):
                _, obs, y, model = random_instance(np.random.default_rng(seed), n=n, d=d)
                warm = np.zeros(obs.shape)
                state = completion._State(obs, _as_labels(y), cfg.lambda2, warm)
                state.add_apg_arrays()
                best_x, _, best_f, _, _ = completion._apg(state, model, cfg, 0.0, cfg.tol)
                np.testing.assert_array_equal(best_x, warm)
                # the refit's value, on the state the inner loop left
                outer = completion._solver_objective(state, 0.0, model, cfg)
                assert best_f + completion._ridge_term(model, cfg) == outer, (n, d, seed)

    def test_public_objective_is_the_solver_value(self):
        # fit's state, with _apg's arrays; objective builds it without them
        cfg = CompletionConfig(lambda1=0.5, lambda2=1.0)
        # one block, wide, then two
        for n, d in [(30, 8), (8, 30), (800, 100)]:
            for seed in range(3):
                x, obs, y, model = random_instance(np.random.default_rng(seed), n=n, d=d)
                state = completion._State(obs, _as_labels(y), cfg.lambda2, x)
                state.add_apg_arrays()
                expected = completion._solver_objective(state, trace_norm(x), model, cfg)
                assert objective(x, obs, model, y, cfg) == expected, (n, d, seed)

    @pytest.mark.parametrize("shape", [(1000, 80), (2000, 100)])
    def test_public_objective_peak_is_three_matrices(self, shape):
        # the mask over L, the copy of the point and one scratch array
        rng = np.random.default_rng(11)
        x, y, _ = labeled_lowrank(*shape, 5, rng)
        obs, _ = masked_problem(x, init_mask(x.shape, 0.6, 11), True)
        cfg = CompletionConfig(lambda1=0.0)
        model = train_ridge(obs.values, y, cfg.ridge)
        tracemalloc.start()
        try:
            objective(x, obs, model, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the matrix"

    @pytest.mark.parametrize("lambda2", [1.0, 0.0])
    def test_traced_peak_is_a_few_matrices(self, lambda2):
        # the mask over L, two carried gradient steps (one also holds SVT's
        # n x k product), the momentum point and residual scratch, and two
        # iterate buffers, the last and the best iterate
        rng = np.random.default_rng(10)
        x, y, _ = labeled_lowrank(2000, 100, 5, rng)
        obs, _ = masked_problem(x, init_mask(x.shape, 0.6, 10), True)
        cfg = CompletionConfig(lambda2=lambda2, max_inner=20)
        model = train_ridge(obs.values, y, cfg.ridge)
        tr_warm = trace_norm(obs.values)
        tracemalloc.start()
        try:
            # the state copies the start into one of its buffers
            state = completion._State(obs, _as_labels(y), cfg.lambda2, obs.values)
            state.add_apg_arrays()
            *_, steps = completion._apg(state, model, cfg, tr_warm, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == cfg.max_inner
        assert peak <= 7.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the matrix"


@st.composite
def smooth_points(draw):
    """A point z, a move dz, and a smooth part: observations, model, labels, lambda2."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = st.floats(-100, 100, allow_subnormal=False)

    def array(shape):
        return draw(hnp.arrays(float, shape, elements=values))

    mask = draw(hnp.arrays(bool, (n, d)))
    data = np.where(mask, array((n, d)), 0.0)
    model = LinearModel(weights=array(d), bias=draw(values))
    y = np.where(draw(hnp.arrays(bool, n)), 1, -1)
    lambda2 = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 10.0]))
    return array((n, d)), array((n, d)), PartialMatrix(data, mask), model, y, lambda2


# one fully observed row moved along w: both terms of the quadratic bound
# are attained, 0.5 * ||dz||^2 by the mask and lambda2 * ||dz w||^2 by the model
_tight = (np.zeros((1, 2)), np.array([[1.0, 2.0]]),
          PartialMatrix(np.array([[3.0, -1.0]]), np.ones((1, 2), bool)),
          LinearModel(weights=np.array([1.0, 2.0]), bias=0.5), np.array([1]), 1.0)


# z + dz rounds back to one ulp above z, a move larger than dz itself
_sub_ulp = (np.array([[32.0]]), np.array([[4.2456276e-15]]),
            PartialMatrix(np.array([[32.0]]), np.ones((1, 1), bool)),
            LinearModel(weights=np.array([0.0]), bias=0.0), np.array([-1]), 0.0)


class TestLipschitzConstant:
    @given(smooth_points())
    @example(_tight)
    @example(_sub_ulp)
    @settings(max_examples=200, deadline=None)
    def test_quadratic_upper_bound(self, case):
        # g(z + dz) <= g(z) + <grad g(z), dz> + (L / 2) ||dz||^2 at every z
        z, dz, obs, model, y, lambda2 = case
        dz = (z + dz) - z  # the move z + dz makes once rounded
        cfg = CompletionConfig(lambda1=0.0, lambda2=lambda2, ridge=0.0)
        lip = 1.0 + 2.0 * lambda2 * float(model.weights @ model.weights)
        g_z = objective(z, obs, model, y, cfg)
        slope = float(np.vdot(grad_g(z, obs, model, y, lambda2), dz))
        curvature = 0.5 * lip * float(np.vdot(dz, dz))
        g_moved = objective(z + dz, obs, model, y, cfg)
        scale = abs(g_z) + abs(slope) + curvature + abs(g_moved)
        assert g_moved <= g_z + slope + curvature + 1e-12 * scale


@st.composite
def prox_points(draw):
    """A point x, observations, model, labels, lambda1 and lambda2.

    Entries and weights stay moderate, so L stays below ~250 and the
    Gram-based SVT error (about eps * sigma_1 / tau) far below the tolerance.
    """
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = st.floats(-10, 10, allow_subnormal=False)
    mask = draw(hnp.arrays(bool, (n, d)))
    data = np.where(mask, draw(hnp.arrays(float, (n, d), elements=values)), 0.0)
    x = draw(hnp.arrays(float, (n, d), elements=values))
    weights = draw(hnp.arrays(float, d, elements=st.floats(-3, 3, allow_subnormal=False)))
    model = LinearModel(weights=weights, bias=draw(values))
    y = np.where(draw(hnp.arrays(bool, n)), 1, -1)
    lambda1 = draw(st.sampled_from([0.0, 0.1, 1.0, 5.0]))
    lambda2 = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    return x, PartialMatrix(data, mask), model, y, lambda1, lambda2


# lambda1 = 0 with the gradient along w: the smooth part has curvature
# exactly L in the step's direction, so the bound holds with equality
_tight_step = (np.array([[4.0, 1.0]]),
               PartialMatrix(np.array([[3.0, -1.0]]), np.ones((1, 2), bool)),
               LinearModel(weights=np.array([1.0, 2.0]), bias=0.5), np.array([1]), 0.0, 1.0)


class TestSufficientDecrease:
    @given(prox_points())
    @example(_tight_step)
    @settings(max_examples=200, deadline=None)
    def test_prox_step_decrease_bounds_its_length(self, case):
        # what the stop rule relies on: a momentum-free step at 1 / L lowers
        # the objective by at least (L / 2) ||x+ - x||^2 (Beck & Teboulle 2009)
        x, obs, model, y, lambda1, lambda2 = case
        cfg = CompletionConfig(lambda1=lambda1, lambda2=lambda2, ridge=0.0)
        lip = 1.0 + 2.0 * lambda2 * float(model.weights @ model.weights)
        x_next = svt(x - grad_g(x, obs, model, y, lambda2) / lip, lambda1 / lip)
        f_x = objective(x, obs, model, y, cfg)
        f_next = objective(x_next, obs, model, y, cfg)
        decrease = 0.5 * lip * float(np.vdot(x_next - x, x_next - x))
        scale = abs(f_x) + abs(f_next) + decrease
        assert f_next <= f_x - decrease + 1e-10 * scale


class TestStopRule:
    def test_restart_from_a_converged_result_stops_at_once(self):
        # the first two steps from any warm start carry no momentum, so a
        # solve restarted at its own answer settles there
        rng = np.random.default_rng(10)
        _, obs, y, model = random_instance(rng, n=8, d=5)
        cfg = CompletionConfig(lambda1=0.5)
        tight = CompletionConfig(lambda1=0.5, tol=1e-12, max_inner=2000)
        out, _, _ = solve(obs, model, y, tight, obs.values)
        _, _, steps = solve(obs, model, y, cfg, out)
        assert steps <= 2

    @given(seed=st.integers(0, 2**32 - 1), lambda1=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
           lambda2=st.sampled_from([0.0, 1.0]), max_inner=st.integers(1, 25),
           tol=st.sampled_from([1e-2, 1e-4, 1e-6]), restart=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_stops_on_a_momentum_free_step_or_after_the_minimum(
            self, seed, lambda1, lambda2, max_inner, tol, restart):
        rng = np.random.default_rng(seed)
        _, obs, y, model = random_instance(rng)
        cfg = CompletionConfig(lambda1=lambda1, lambda2=lambda2, max_inner=max_inner, tol=tol)
        warm = obs.values
        if restart:
            warm, _, _ = solve(obs, model, y, cfg, warm)
        _, _, steps = solve(obs, model, y, cfg, warm)
        # step indices 0 and 1, the minimum, or max_inner (never below the minimum)
        assert steps <= 2 or steps >= min(completion._MIN_INNER_STEPS, max_inner)
        if steps >= 2 and max_inner > 2:
            # step 1 stops the loop exactly when its relative change is below tol.
            # Steps 0 and 1 carry no momentum, so they descend, and solves capped
            # at one and two steps return their objectives as the best seen.
            f0 = solve(obs, model, y, dataclasses.replace(cfg, max_inner=1), warm)[1]
            f1 = solve(obs, model, y, dataclasses.replace(cfg, max_inner=2), warm)[1]
            assert (steps == 2) == (abs(f0 - f1) / max(abs(f0), 1e-12) < tol)


class TestFit:
    def test_non_finite_warm_start_is_named(self):
        rng = np.random.default_rng(12)
        _, obs, y, _ = random_instance(rng)
        warm = obs.values.copy()
        warm[2, 1] = np.inf
        with pytest.raises(NumericError, match=r"^non-finite value for entry \(2, 1\)$"):
            fit(obs, y, warm_start=warm)

    def test_overflowing_step_is_a_divergence(self):
        # finite data whose 50-term Gram sums overflow: the ridge refit of a
        # 2-row matrix still fits, the first SVT step does not
        x = 3e153 * np.random.default_rng(0).standard_normal((2, 50))
        mask = np.ones(x.shape, dtype=bool)
        mask[0, 0] = False
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError, match="^solver diverged: non-finite objective at inner step 0$"):
            fit(PartialMatrix(x, mask), np.array([1, -1]))

    def test_overflowing_gram_is_named(self, capfd):
        # finite data whose squares overflow fail at the first ridge fit,
        # before LAPACK or the solver sees a non-finite Gram
        x = 1e154 * np.random.default_rng(0).standard_normal((6, 4))
        mask = np.ones(x.shape, dtype=bool)
        mask[0, 0] = False
        with pytest.raises(NumericError, match=r"^normal equations overflow: largest \|feature\|"):
            fit(PartialMatrix(x, mask), np.array([1, -1, 1, -1, 1, -1]))
        assert capfd.readouterr().err == ""

    def test_fully_observed_returns_data_and_direct_model(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 4))
        obs = PartialMatrix(x, np.ones_like(x, dtype=bool))
        y = np.where(x @ np.ones(4) >= 0, 1, -1)
        cfg = CompletionConfig(lambda1=0.0, lambda2=0.0)
        result = fit(obs, y, cfg)
        np.testing.assert_allclose(result.x_hat, x, atol=1e-5)
        direct = train_ridge(result.x_hat, y, cfg.ridge)
        np.testing.assert_allclose(result.model.weights, direct.weights, atol=1e-10)

    def test_lambda2_zero_single_round_matches_apg(self):
        rng = np.random.default_rng(10)
        x = lowrank_matrix(12, 6, 2, rng)
        mask = rng.random((12, 6)) < 0.7
        obs = PartialMatrix(np.where(mask, x, 0.0), mask)
        y = np.where(rng.random(12) < 0.5, 1, -1)
        cfg = CompletionConfig(lambda2=0.0, max_outer=1)

        result = fit(obs, y, cfg)
        warm = obs.values.copy()
        model0 = train_ridge(warm, y, cfg.ridge)
        np.testing.assert_array_equal(result.x_hat, solve(obs, model0, y, cfg, warm)[0])

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x, obs, y, _ = random_instance(rng, n=15, d=6, observed=0.6)
            result = fit(obs, y, CompletionConfig(max_outer=6))
            trace = result.objective_trace
            assert len(trace) >= 1
            assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
            assert np.isfinite(result.x_hat).all()

    def test_refit_from_own_answer_never_regresses(self):
        # restarting from a fit's terminal point reproduces its terminal
        # objective exactly, then can only descend
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = lowrank_matrix(15, 8, 2, rng)
            mask = rng.random((15, 8)) < 0.6
            obs = PartialMatrix(np.where(mask, x, 0.0), mask)
            y = np.where(x @ rng.standard_normal(8) >= 0, 1, -1)
            if y.min() == y.max():
                continue
            first = fit(obs, y)
            again = fit(obs, y, warm_start=first.x_hat)
            assert again.objective_trace[-1] <= first.objective_trace[-1]

    def test_warm_start_on_grown_mask_decoupled(self):
        # with the supervised term off the problem is convex: warm and cold
        # runs land on the same optimum up to the stopping tolerance
        rng = np.random.default_rng(12)
        cfg = CompletionConfig(lambda2=0.0)
        for _ in range(5):
            x = lowrank_matrix(15, 8, 2, rng)
            mask = rng.random((15, 8)) < 0.6
            obs = PartialMatrix(np.where(mask, x, 0.0), mask)
            y = np.where(x @ rng.standard_normal(8) >= 0, 1, -1)
            if y.min() == y.max():
                continue
            first = fit(obs, y, cfg)

            grown = PartialMatrix(obs.values, obs.mask)
            hidden = np.argwhere(~grown.mask)
            for idx in rng.choice(len(hidden), size=min(10, len(hidden)), replace=False):
                i, j = hidden[idx]
                grown.observe(i, j, x[i, j])
            warm = fit(grown, y, cfg, warm_start=first.x_hat)
            cold = fit(grown, y, cfg)
            slack = cfg.tol * max(abs(cold.objective_trace[-1]), 1.0)
            assert warm.objective_trace[-1] <= cold.objective_trace[-1] + slack

    def test_converged_flag_on_easy_instance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 4))
        obs = PartialMatrix(x, np.ones_like(x, dtype=bool))
        y = np.where(rng.random(8) < 0.5, 1, -1)
        result = fit(obs, y, CompletionConfig(lambda1=0.0, lambda2=0.0))
        assert result.converged

    @staticmethod
    def supervised_instance(seed, n=300, d=30):
        rng = np.random.default_rng(seed)
        x = lowrank_matrix(n, d, 3, rng)
        mask = rng.random((n, d)) < 0.6
        y = np.where(x @ rng.standard_normal(d) >= 0, 1, -1)
        return PartialMatrix(x, mask), y

    @pytest.mark.parametrize("ridge", [1.0, 3.0])
    def test_objective_equals_recorded_value(self, ridge):
        obs, y = self.supervised_instance(17, n=60, d=8)
        cfg = CompletionConfig(lambda2=1.0, ridge=ridge)
        result = fit(obs, y, cfg)
        assert np.linalg.norm(result.model.weights) > 0
        value = objective(result.x_hat, obs, result.model, y, cfg)
        assert value == pytest.approx(result.objective_trace[-1], rel=1e-10, abs=0)

    def test_carried_trace_norm_matches_recomputed_objective(self, monkeypatch):
        obs, y = self.supervised_instance(15)
        cfg = CompletionConfig()
        result = fit(obs, y, cfg)
        fresh = objective(result.x_hat, obs, result.model, y, cfg)
        assert result.objective_trace[-1] == pytest.approx(fresh, rel=1e-10, abs=0)

        # the reference recomputes every SVT by full SVD and every outer
        # objective from scratch instead of carrying trace norms
        solver_objective = completion._solver_objective

        def fresh_objective(state, tr_hat, model, cfg):
            return solver_objective(state, trace_norm(state.x_hat()), model, cfg)

        use_reference_apg(monkeypatch, obs)
        monkeypatch.setattr(completion, "_solver_objective", fresh_objective)
        ref = fit(obs, y, cfg)
        assert len(ref.objective_trace) == len(result.objective_trace)
        np.testing.assert_allclose(result.objective_trace, ref.objective_trace, rtol=1e-9, atol=0)
        assert_rel_close(result.x_hat, ref.x_hat, 1e-9)

    def test_wide_instance_over_several_rounds(self, monkeypatch):
        # SVT hands a wide matrix back transposed (F-ordered); each round
        # after the first starts from it
        x, obs, y, _ = random_instance(np.random.default_rng(0), 6, 9)
        cfg = CompletionConfig(lambda1=0.5, lambda2=1.0, max_outer=5)
        result = fit(obs, y, cfg)
        assert len(result.objective_trace) >= 2
        assert not result.x_hat.flags.c_contiguous

        use_reference_apg(monkeypatch, obs)
        ref = fit(obs, y, cfg)
        np.testing.assert_allclose(result.objective_trace, ref.objective_trace, rtol=1e-9, atol=0)
        assert_rel_close(result.x_hat, ref.x_hat, 1e-9)

    def test_one_svt_per_inner_step(self, monkeypatch):
        # the constant step is never retried, so no SVT goes to waste
        obs, y = self.supervised_instance(18, n=60, d=8)
        calls = []
        real = completion._svt_basis

        def counted(gram, tau, scale):
            calls.append(gram.shape)
            return real(gram, tau, scale)

        monkeypatch.setattr(completion, "_svt_basis", counted)
        result = fit(obs, y)
        assert result.inner_iterations > 0
        assert len(calls) == result.inner_iterations

    def test_one_objective_evaluation_per_round(self, monkeypatch):
        # each round's start value is the inner loop's, so the outer
        # objective values only the refit
        obs, y = self.supervised_instance(18, n=60, d=8)
        calls = []
        real = completion._solver_objective

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(completion, "_solver_objective", counted)
        result = fit(obs, y)
        assert len(result.objective_trace) > 1
        assert len(calls) == len(result.objective_trace)

    @pytest.mark.parametrize("shape", [(60, 8), (8, 60), (800, 100)], ids=["tall", "wide", "two-block"])
    def test_every_round_reuses_two_buffers(self, monkeypatch, shape):
        # fit keeps one state for all rounds: the matrix every ridge fit
        # sees is a view of one of its two iterate buffers
        obs, y = self.supervised_instance(19, *shape)
        seen = []  # held, so no array's address is reused
        real = completion.train_ridge

        def recorded(x, labels, ridge):
            seen.append(x)
            return real(x, labels, ridge)

        monkeypatch.setattr(completion, "train_ridge", recorded)
        result = fit(obs, y)
        assert len(result.objective_trace) >= 4
        bases = set()
        for x in seen + [result.x_hat]:
            while x.base is not None:
                x = x.base
            bases.add(id(x))
        assert len(bases) <= 2

    def test_start_trace_norm_comes_before_the_state(self, monkeypatch):
        # the SVD copies its matrix where tracemalloc does not see it; taken
        # before the state's six matrices exist, that copy is not held beside them
        obs, y = self.supervised_instance(19, 400, 50)
        in_use = []
        real = completion.trace_norm

        def recorded(m):
            in_use.append(tracemalloc.get_traced_memory()[0])
            return real(m)

        monkeypatch.setattr(completion, "trace_norm", recorded)
        tracemalloc.start()
        try:
            fit(obs, y, CompletionConfig(max_outer=1, max_inner=2))
        finally:
            tracemalloc.stop()
        assert len(in_use) == 1 and in_use[0] < 0.5 * obs.values.nbytes

    def test_lambda1_zero_runs_no_decomposition(self, monkeypatch):
        obs, y = self.supervised_instance(16, n=60, d=8)
        calls = []
        inside_apg = [False]
        real_apg = completion._apg

        def apg(*args, **kwargs):
            inside_apg[0] = True
            try:
                return real_apg(*args, **kwargs)
            finally:
                inside_apg[0] = False

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                if inside_apg[0]:
                    calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(completion, "_apg", apg)
            for name in ("eigh", "svd"):
                patch.setattr(np.linalg, name, counted(name))
            result = fit(obs, y, CompletionConfig(lambda1=0.0))
        assert calls == []

        # reference: a full-SVD SVT at a threshold too small to move any
        # singular value, with a penalty too small to change the objective
        use_reference_apg(monkeypatch, obs)
        ref = fit(obs, y, CompletionConfig(lambda1=1e-300))
        np.testing.assert_allclose(result.objective_trace, ref.objective_trace, rtol=1e-9, atol=0)
        assert_rel_close(result.x_hat, ref.x_hat, 1e-9)
        np.testing.assert_allclose(result.model.weights, ref.model.weights, rtol=1e-9, atol=0)

    def test_labels_validated(self):
        obs = PartialMatrix(np.zeros((3, 2)), np.ones((3, 2), bool))
        with pytest.raises(ValueError):
            fit(obs, np.array([1, 0, -1]))
        with pytest.raises(DimensionMismatchError):
            fit(obs, np.array([1, -1]))


class TestRecovery:
    def test_fit_beats_zero_fill_on_criterion_10_masks(self):
        # criterion 10 holds for any estimator within its bound's slack, the
        # zero-filled observations included; this check needs a solver
        ratios = []
        for trial in range(50):
            rng = np.random.default_rng(np.random.SeedSequence([91, trial]))
            x, y, _ = labeled_lowrank(60, 30, 3, rng)
            obs = PartialMatrix(x, init_mask(x.shape, 0.6, rng))
            fitted = reconstruction_errors(fit(obs, y).x_hat, x)[1]
            ratios.append(fitted / reconstruction_errors(obs.values, x)[1])
        assert max(ratios) <= 0.1, f"worst trial {int(np.argmax(ratios))}: {max(ratios):.4f}"


class TestInnerTolerance:
    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        x, y, _ = labeled_lowrank(600, 40, 5, rng)
        mask = init_mask(x.shape, 0.6, seed)
        obs, x_true = masked_problem(x, mask, True)
        return obs, x_true, y

    def test_round_zero_matches_a_lone_solve(self, monkeypatch):
        # the first round has no previous change to loosen its tolerance
        obs, _, y = self.instance(0)
        cfg = CompletionConfig()
        model0 = train_ridge(obs.values, y, cfg.ridge)
        _, _, lone = solve(obs, model0, y, cfg, obs.values)
        steps = []
        real = completion._apg

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            steps.append(out[4])
            return out

        monkeypatch.setattr(completion, "_apg", counted)
        fit(obs, y, cfg)
        assert len(steps) > 1 and 2 < lone < cfg.max_inner
        assert steps[0] == lone

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_inner_steps_at_about_the_same_answer(self, monkeypatch, seed):
        obs, x_true, y = self.instance(seed)
        inexact = fit(obs, y)
        monkeypatch.setattr(completion, "_KAPPA", 0.0)  # every round solved to tol
        exact = fit(obs, y)
        assert inexact.inner_iterations <= 0.8 * exact.inner_iterations
        assert inexact.objective_trace[-1] == pytest.approx(exact.objective_trace[-1], rel=0.005)
        recon = reconstruction_errors(inexact.x_hat, x_true)[0]
        assert recon == pytest.approx(reconstruction_errors(exact.x_hat, x_true)[0], rel=0.05)


class TestTwoBlocks:
    """The inner step's row-separable passes on two halves of the long side."""

    @staticmethod
    def instance(n, d, seed=0):
        rng = np.random.default_rng(seed)
        x, y, _ = labeled_lowrank(n, d, 5, rng)
        obs, _ = masked_problem(x, init_mask(x.shape, 0.6, seed), True)
        return obs, y

    @pytest.mark.parametrize("shape", [(800, 100), (100, 800)], ids=["tall", "wide"])
    def test_two_blocks_agree_with_one(self, monkeypatch, shape):
        obs, y = self.instance(*shape)
        assert len(completion._blocks(shape)) == 2
        two = fit(obs, y)
        monkeypatch.setattr(completion, "_SPLIT_CELLS", obs.values.size + 1)
        assert len(completion._blocks(shape)) == 1
        one = fit(obs, y)
        assert two.inner_iterations == one.inner_iterations
        assert len(two.objective_trace) == len(one.objective_trace) > 1
        np.testing.assert_allclose(two.objective_trace, one.objective_trace, rtol=1e-12, atol=0)
        assert_rel_close(two.x_hat, one.x_hat, 1e-10)
        # SVT hands a wide matrix back transposed, and each round after the
        # first starts from it
        assert two.x_hat.flags.c_contiguous == (shape[0] > shape[1])

    def test_two_block_fits_are_bitwise_equal(self):
        obs, y = self.instance(800, 100, seed=1)
        first, second = fit(obs, y), fit(obs, y)
        np.testing.assert_array_equal(first.x_hat, second.x_hat)
        assert first.objective_trace == second.objective_trace

    def test_worker_starts_only_at_the_split_size(self, monkeypatch):
        monkeypatch.setattr(completion, "_worker", None)
        cfg = CompletionConfig(max_outer=1, max_inner=5)
        fit(*self.instance(100, 20), cfg)
        assert completion._worker is None
        fit(*self.instance(800, 100), cfg)
        assert completion._worker[0] == os.getpid()

    def test_overflowing_step_is_a_divergence(self, capfd):
        # TestFit's case at the split size: both halves' Gram sums overflow,
        # one on the worker thread, under the caller's np.errstate
        x = 8e152 * np.random.default_rng(0).standard_normal((100, 800))
        mask = np.ones(x.shape, dtype=bool)
        mask[0, 0] = False
        assert len(completion._blocks(x.shape)) == 2
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError, match="^solver diverged: non-finite objective at inner step 0$"):
            fit(PartialMatrix(x, mask), np.where(np.arange(100) % 2, -1, 1))
        assert capfd.readouterr().err == ""

    def test_worker_runs_under_the_callers_error_state(self):
        seen = {}

        def block(i):
            seen[i] = np.geterr()

        with np.errstate(divide="raise", over="ignore", under="warn", invalid="print"):
            expected = np.geterr()
            completion._each_block(block, 2)
        assert expected != np.geterr()  # a state other than the default
        assert seen == {0: expected, 1: expected}

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_an_error_in_either_block_is_raised_once_both_end(self, failing):
        # a block writes into the caller's arrays, so neither may outlive the call
        ended = []

        def block(i):
            if i == 1:
                time.sleep(0.1)  # the caller's block ends first
            ended.append(i)
            if i == failing:
                raise ValueError(f"block {i}")

        with pytest.raises(ValueError, match=f"^block {failing}$"):
            completion._each_block(block, 2)
        assert sorted(ended) == [0, 1]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_fits_after_the_parent(self):
        # the parent's worker thread is not copied into a forked child
        obs, y = self.instance(800, 100)
        cfg = CompletionConfig(max_outer=1, max_inner=5)
        fit(obs, y, cfg)
        child = multiprocessing.get_context("fork").Process(target=fit, args=(obs, y, cfg))
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a process with threads may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung, "the forked child's fit did not finish within 60 s"
        assert child.exitcode == 0

    def test_concurrent_callers_share_the_worker(self):
        # more calling threads than cores, switching often; each fit's
        # halves write only their own arrays
        obs, y = self.instance(800, 100)
        cfg = CompletionConfig(max_outer=2, max_inner=20)
        expected = fit(obs, y, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(fit, obs, y, cfg) for _ in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            np.testing.assert_array_equal(result.x_hat, expected.x_hat)
            assert result.objective_trace == expected.objective_trace
