"""Supervised low-rank recovery of a partially observed matrix.

The solver minimizes

    0.5 * ||P_obs(Xhat - X)||_F^2  +  lambda1 * ||Xhat||_tr
                                   +  lambda2 * ||Xhat @ w + b - y||^2

jointly over the recovered matrix ``Xhat`` and the linear model ``(w, b)``
by block alternation: an accelerated proximal gradient pass updates the
matrix with the model fixed (singular value thresholding as the proximal
step, backtracked Lipschitz estimate), then the model is refit in closed
form on the current ``Xhat``. Every accepted update is guarded so the
recorded objective can never increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .linear_model import LinearModel, _as_labels, train_ridge
from .matrix import PartialMatrix, _as_matrix, trace_norm

# Momentum needs a few steps before the objective-change signal means
# anything; the inner loop never stops on tolerance before this many.
_MIN_INNER_STEPS = 10


@dataclass(frozen=True)
class CompletionConfig:
    """Solver hyperparameters.

    lambda1 weights the trace-norm penalty, lambda2 the supervised loss.
    l_init/gamma drive the backtracked Lipschitz estimate, theta0 seeds the
    momentum sequence, and ridge regularizes the inner model refit. Keep
    ridge well above zero: recovered matrices carry a small-singular-value
    tail, and a near-unregularized refit will interpolate the labels
    through it, inflating the weights and degrading the completion.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    l_init: float = 1.1
    gamma: float = 2.0
    theta0: float = 1.0
    max_outer: int = 10
    max_inner: int = 300
    tol: float = 1e-6
    ridge: float = 1.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if self.l_init <= 1.0:
            raise ValueError("l_init must exceed 1")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if not 0.0 < self.theta0 <= 1.0:
            raise ValueError("theta0 must lie in (0, 1]")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration limits must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")


@dataclass
class CompletionResult:
    x_hat: np.ndarray
    model: LinearModel
    objective_trace: list[float] = field(default_factory=list)
    inner_iterations: int = 0
    converged: bool = False


def _check_shapes(x_hat: np.ndarray, obs: PartialMatrix, model, labels):
    if x_hat.shape != obs.shape:
        raise DimensionMismatchError(
            f"candidate shape {x_hat.shape} does not match observations {obs.shape}"
        )
    if labels is not None and len(labels) != obs.n_rows:
        raise DimensionMismatchError("labels length does not match row count")
    if model is not None and model.weights.shape[0] != obs.n_cols:
        raise DimensionMismatchError("model width does not match column count")


def _supervised_residual(x: np.ndarray, model: LinearModel, y: np.ndarray) -> np.ndarray:
    return x @ model.weights + model.bias - y


def _g_value(x, obs, model, y, lambda2) -> float:
    diff = np.where(obs.mask, x - obs.values, 0.0)
    value = 0.5 * float(np.vdot(diff, diff))
    if lambda2:
        res = _supervised_residual(x, model, y)
        value += lambda2 * float(res @ res)
    return value


def objective(x_hat, obs: PartialMatrix, model: LinearModel, labels, cfg: CompletionConfig) -> float:
    """Full objective value at ``(x_hat, model)``."""
    x = _as_matrix(x_hat)
    y = _as_labels(labels)
    _check_shapes(x, obs, model, y)
    value = _g_value(x, obs, model, y, cfg.lambda2)
    if cfg.lambda1:
        value += cfg.lambda1 * trace_norm(x)
    return value


def grad_g(z, obs: PartialMatrix, model: LinearModel, labels, lambda2: float) -> np.ndarray:
    """Gradient of the smooth part at ``z``.

    The data term contributes the masked residual against the observed
    entries; the supervised squared loss contributes a rank-one
    ``2 * lambda2 * residual @ w.T`` correction.
    """
    zz = _as_matrix(z)
    y = _as_labels(labels)
    _check_shapes(zz, obs, model, y)
    grad = np.where(obs.mask, zz - obs.values, 0.0)
    if lambda2:
        res = _supervised_residual(zz, model, y)
        grad += (2.0 * lambda2) * np.outer(res, model.weights)
    return grad


def _svt_with_sigma(m: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk) @ vh, shrunk


def svt(m, tau: float) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by ``tau``.

    This is the exact proximal map of ``tau * ||.||_tr`` at ``m``.
    """
    a = _as_matrix(m)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return a.copy()
    out, _ = _svt_with_sigma(a, tau)
    return out


def _apg(obs, model, y, cfg, warm, callback=None):
    """Accelerated proximal gradient on the matrix block, model fixed.

    Returns the best iterate seen (the momentum sequence itself is not
    monotone), its objective value, and the accepted-step count.
    """
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    # iterates are rebound, never written in place, so one copy keeps the
    # caller's array out of the result
    x_curr = x_prev = warm.copy()
    theta_curr = theta_prev = cfg.theta0
    l = cfg.l_init

    f_curr = _g_value(x_curr, obs, model, y, lam2)
    f_curr += lam1 * trace_norm(x_curr) if lam1 else 0.0
    best_x, best_f = x_curr, f_curr
    iterations = 0

    for k in range(cfg.max_inner):
        beta = theta_curr * (1.0 / theta_prev - 1.0)
        z = x_curr + beta * (x_curr - x_prev)
        gz = grad_g(z, obs, model, y, lam2)
        g_at_z = _g_value(z, obs, model, y, lam2)

        while True:
            x_next, sig = _svt_with_sigma(z - gz / l, lam1 / l)
            tr_next = float(sig.sum())
            g_next = _g_value(x_next, obs, model, y, lam2)
            diff = x_next - z
            lhs = g_next + lam1 * tr_next
            rhs = (
                g_at_z
                + float(np.vdot(gz, diff))
                + lam1 * tr_next
                + 0.5 * l * float(np.vdot(diff, diff))
            )
            if not (np.isfinite(lhs) and np.isfinite(rhs)):
                raise DivergenceError(
                    f"non-finite objective during backtracking at inner step {k}", k
                )
            if lhs <= rhs:
                break
            l *= cfg.gamma

        f_next = g_next + lam1 * tr_next
        if not np.isfinite(f_next):
            raise DivergenceError(f"non-finite objective at inner step {k}", k)
        iterations += 1

        if callback is not None:
            callback(
                {
                    "iteration": k,
                    "l": l,
                    "majorization_lhs": lhs,
                    "majorization_rhs": rhs,
                    "objective": f_next,
                }
            )

        th = theta_curr
        theta_prev, theta_curr = th, 0.5 * (math.sqrt(th**4 + 4 * th**2) - th**2)
        x_prev, x_curr = x_curr, x_next

        if f_next < best_f:
            best_f, best_x = f_next, x_next
        rel = abs(f_curr - f_next) / max(abs(f_curr), 1e-12)
        f_curr = f_next
        if rel < cfg.tol and iterations >= min(_MIN_INNER_STEPS, cfg.max_inner):
            break

    return best_x, best_f, iterations


def apg_minimize(obs: PartialMatrix, model: LinearModel, labels, cfg: CompletionConfig,
                 warm_start, callback=None) -> np.ndarray:
    """Minimize the objective over the matrix with the model held fixed.

    ``callback``, when given, is invoked once per accepted inner step with a
    dict of diagnostics (backtracking certificate sides, the current
    Lipschitz estimate, the objective value).
    """
    warm = _as_matrix(warm_start)
    y = _as_labels(labels)
    _check_shapes(warm, obs, model, y)
    best_x, _, _ = _apg(obs, model, y, cfg, warm, callback=callback)
    return best_x


def _solver_objective(x_hat, obs, model, y, cfg) -> float:
    """What the alternation actually minimizes.

    The model refit solves a ridge problem, so the joint objective carries
    the matching lambda2 * ridge * ||w||^2 term; without it the refit is
    not an exact block minimizer and the trace could tick upward.
    """
    value = objective(x_hat, obs, model, y, cfg)
    if cfg.lambda2:
        value += cfg.lambda2 * cfg.ridge * float(model.weights @ model.weights)
    return value


def fit(obs: PartialMatrix, labels, cfg: CompletionConfig | None = None,
        warm_start=None) -> CompletionResult:
    """Alternate matrix recovery and model refits until the objective settles.

    Each outer round runs the accelerated inner loop from the current
    matrix, then refits the model on the recovered matrix. Both half-steps
    are kept only when they do not increase the joint objective, so the
    recorded trace is non-increasing by construction.
    """
    if cfg is None:
        cfg = CompletionConfig()
    y = _as_labels(labels)
    if y.shape[0] != obs.n_rows:
        raise DimensionMismatchError("labels length does not match row count")

    x_hat = obs.values.copy() if warm_start is None else _as_matrix(warm_start).copy()
    if x_hat.shape != obs.shape:
        raise DimensionMismatchError("warm start shape does not match observations")

    model = train_ridge(x_hat, y, cfg.ridge)
    current = _solver_objective(x_hat, obs, model, y, cfg)

    trace: list[float] = []
    inner_total = 0
    converged = False

    for _ in range(cfg.max_outer):
        previous = current

        candidate, _, iters = _apg(obs, model, y, cfg, x_hat)
        inner_total += iters
        cand_obj = _solver_objective(candidate, obs, model, y, cfg)
        if cand_obj <= current:
            x_hat, current = candidate, cand_obj

        refit = train_ridge(x_hat, y, cfg.ridge)
        refit_obj = _solver_objective(x_hat, obs, refit, y, cfg)
        if refit_obj <= current:
            model, current = refit, refit_obj

        trace.append(current)
        if abs(previous - current) / max(abs(previous), 1e-12) < cfg.tol:
            converged = True
            break

    return CompletionResult(
        x_hat=x_hat,
        model=model,
        objective_trace=trace,
        inner_iterations=inner_total,
        converged=converged,
    )
