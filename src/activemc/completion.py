"""Supervised low-rank recovery of a partially observed matrix.

The solver minimizes

    0.5 * ||P_obs(Xhat - X)||_F^2  +  lambda1 * ||Xhat||_tr
        +  lambda2 * (||Xhat @ w + b - y||^2  +  ridge * ||w||^2)

jointly over the recovered matrix ``Xhat`` and the linear model ``(w, b)``
by block alternation: an accelerated proximal gradient pass updates the
matrix with the model fixed (singular value thresholding as the proximal
step, constant step ``1 / L``), then the model is refit in closed form on
the current ``Xhat``. With the model fixed, the smooth part's gradient is
Lipschitz with ``L = 1 + 2 * lambda2 * ||w||^2``: the masked data term
contributes at most 1, and the supervised term ``2 * lambda2 * (dX w) w.T``
at most ``2 * lambda2 * ||w||^2 * ||dX||_F``. So each inner step makes one
SVT and no step is ever retried. Every accepted update is guarded so the
recorded objective can never increase.

``fit`` is the solver's one entry point; ``objective``, ``grad_g`` and
``svt`` (the trace norm's proximal map) are the public references its
fused inner loop is checked against.

The inner loop stops once the objective's relative change falls below its
tolerance. The first round's tolerance is ``tol``; each later round's is
``max(tol, _KAPPA * change)``, where ``change`` is the previous round's
relative objective change, the value the outer stop tests. So a block
subproblem is solved no more finely than the alternation is moving
(inexact block minimization: Xu & Yin 2013; Bolte, Sabach & Teboulle
2014), and once rounds creep the tolerance is back at ``tol``. The first
two steps from each warm start carry no momentum: each is a plain
proximal step at ``1 / L``, which lowers the objective ``F`` by at least
``(L / 2) * ||x+ - x||^2`` (Beck & Teboulle 2009). A relative change
below a tolerance ``t`` there bounds the gradient mapping,
``||L * (x - x+)|| <= sqrt(2 * L * t * |F|)``, so either step may stop
the loop. Momentum steps do not decrease ``F`` monotonically, and stop
only after ``_MIN_INNER_STEPS``.

SVT works on the small side of the matrix: for an ``n x d`` matrix with
``n >= d`` (a wide one is transposed in and out) it takes the
eigendecomposition of the ``d x d`` Gram matrix ``m.T @ m``, keeps the
right singular vectors whose singular value ``sqrt(eigenvalue)`` exceeds
the threshold ``tau``, and rebuilds the shrunk matrix from those alone.
The result is exact up to rounding: squaring the matrix costs precision in
the small singular values, which are the ones thresholded away, so the
error against an SVT built from a full SVD is about ``eps * sigma_1 / tau``
relative. Each kept singular value comes back with the result, so the
solver carries the trace norm of every iterate instead of recomputing it.
SVT takes a positive ``scale`` and thresholds ``scale * m``; the factor
multiplies only the spectrum and the ``k`` rebuilt columns.

The inner step carries each iterate's gradient step ``G(x) = x - grad_g(x)
/ L`` too, computed once in the same passes that give its objective. ``G``
is affine, so the momentum point ``z = (1 + beta) * x - beta * x_prev`` has
``G(z) = (1 + beta) * (G(x) - beta / (1 + beta) * G(x_prev))``: two passes
over the carried steps, with the factor ``1 + beta`` handed to SVT as its
scale, and none on the two momentum-free steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .linear_model import LinearModel, _as_labels, train_ridge
from .matrix import PartialMatrix, _as_matrix, trace_norm

# The two momentum-free steps from each warm start may stop the inner loop
# on tolerance: a plain proximal step's decrease bounds the gradient mapping.
# Momentum steps are not monotone and need a few steps before the
# objective-change signal means anything, so past those two the loop never
# stops on tolerance before this many steps.
_MIN_INNER_STEPS = 10
# each round after the first solves its matrix block to within this fraction
# of the previous round's relative objective change (never below cfg.tol)
_KAPPA = 1e-3
# momentum starts at theta = _THETA0
_THETA0 = 1.0


# field annotation text -> (accepted types, noun for the error); a bool
# passes only where bool is listed, although it is an int
_FIELD_TYPES = {
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "str | int": ((str, int, np.integer), "a string or an integer"),
    "str | int | None": ((str, int, np.integer, type(None)), "a string, an integer or null"),
    "bool": ((bool,), "true or false"),
    "int": ((int, np.integer), "an integer"),
    "float": ((float, int, np.floating, np.integer), "a number"),
}


@dataclass(frozen=True)
class CompletionConfig:
    """Solver hyperparameters.

    lambda1 weights the trace-norm penalty, lambda2 the supervised loss,
    and ridge regularizes the inner model refit. Keep ridge well above
    zero: recovered matrices carry a small-singular-value tail, and a
    near-unregularized refit will interpolate the labels through it,
    inflating the weights and degrading the completion.

    tol is the outer stop (a round's relative objective change) and the
    floor of each round's inner tolerance; max_outer and max_inner cap the
    rounds and the inner steps per round.

    Every field, a subclass's too (``harness.ExperimentPlan`` is one), is
    type-checked against its annotation, and a number must be finite.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    max_outer: int = 10
    max_inner: int = 300
    tol: float = 1e-6
    ridge: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text
            value = getattr(self, f.name)
            accepted, noun = _FIELD_TYPES[f.type]
            wrong_bool = isinstance(value, bool) and bool not in accepted
            if wrong_bool or not isinstance(value, accepted):
                raise TypeError(f"{f.name} must be {noun}, got {value!r}")
            # a comparison, not math.isfinite: an int too large for a float is finite
            if f.type == "float" and not -math.inf < value < math.inf:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
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


def _lipschitz(model, lambda2) -> float:
    """``L`` of the module docstring for the model ``model``."""
    return 1.0 + 2.0 * lambda2 * float(model.weights @ model.weights)


def _g_value(x, obs, mask_l, l, model, offset, lambda2, out):
    """Smooth value at ``x`` and the label residual ``x @ w + offset``.

    ``mask_l`` is ``obs.mask / l``, so the masked data residual over ``l``
    is left in ``out``; the label residual is None when lambda2 is 0. The
    inner step and the outer objective both take the value from here, so
    two values of one ``x`` under one model round alike wherever ``fit``
    compares them.
    """
    # the mask zeroes the residual off the observed cells
    np.subtract(x, obs.values, out=out)
    out *= mask_l
    value = 0.5 * l * l * float(np.vdot(out, out))
    res = None
    if lambda2:
        res = x @ model.weights + offset
        value += lambda2 * float(res @ res)
    return value, res


def objective(x_hat, obs: PartialMatrix, model: LinearModel, labels, cfg: CompletionConfig) -> float:
    """Full objective value at ``(x_hat, model)``, the value ``fit`` records."""
    x = _as_matrix(x_hat)
    y = _as_labels(labels)
    _check_shapes(x, obs, model, y)
    tr = trace_norm(x) if cfg.lambda1 else 0.0
    return _solver_objective(x, tr, obs, model, y, cfg)


def grad_g(z, obs: PartialMatrix, model: LinearModel, labels, lambda2: float) -> np.ndarray:
    """Gradient of the smooth part at ``z``.

    The data term contributes the masked residual against the observed
    entries; the supervised squared loss contributes a rank-one
    ``2 * lambda2 * residual @ w.T`` correction.
    """
    zz = _as_matrix(z)
    y = _as_labels(labels)
    _check_shapes(zz, obs, model, y)
    grad = zz - obs.values
    grad *= obs.mask
    if lambda2:
        res = zz @ model.weights + model.bias - y
        grad += (2.0 * lambda2) * np.outer(res, model.weights)
    return grad


def _svt_with_sigma(m: np.ndarray, tau: float,
                    scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """SVT of ``scale * m`` and its shrunk singular values, largest first.

    Only the ``k`` singular values above ``tau`` survive, so the result is
    ``m @ V_k @ diag(scale * (sigma_k - tau) / sigma_k) @ V_k.T`` with
    ``V_k`` and ``sigma_k`` (the singular values of ``scale * m``) read off
    the eigendecomposition of the small Gram matrix. ``scale`` is positive;
    it touches only the spectrum and the ``k`` rebuilt columns, never a
    full-size array.
    """
    wide = m.shape[0] < m.shape[1]
    a = m.T if wide else m  # the tall side
    w, v = np.linalg.eigh(a.T @ a)  # ascending eigenvalues
    sigma = scale * np.sqrt(np.maximum(w, 0.0))
    k = int(np.count_nonzero(sigma > tau))
    # the surviving values are the last k; k == 0 gives the zero matrix
    sigma_k, v_k = sigma[sigma.size - k:], v[:, v.shape[1] - k:]
    out = ((a @ v_k) * (scale * (sigma_k - tau) / sigma_k)) @ v_k.T
    return (out.T if wide else out), np.maximum(sigma[::-1] - tau, 0.0)


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


def _apg(obs, model, y, cfg, warm, tr_warm, tol):
    """Accelerated proximal gradient on the matrix block, model fixed.

    ``tr_warm`` is the trace norm of ``warm`` (0.0 when lambda1 is 0,
    where no trace norm is computed).
    ``tol`` is the relative objective change that stops the loop.
    Every step is ``x_next = svt(G(z), lambda1 / L)`` at the momentum point
    ``z``, with ``G`` and ``L`` of the module docstring; ``G(z)`` comes from
    the carried steps of the last two iterates, so ``z`` is never formed.
    Returns the best iterate seen (the momentum sequence itself is not
    monotone; ``warm`` itself when no step improves on it), its trace norm
    and its objective on the same terms, and the step count.
    """
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    l = _lipschitz(model, lam2)
    mask_l, offset = obs.mask / l, model.bias - y
    w_row = (2.0 * lam2 / l) * model.weights[None, :]
    # G of the current and the previous iterate; point is the momentum
    # point's G over (1 + beta) and the residual scratch. All three are
    # C-ordered whatever the layout of warm (SVT hands a wide matrix back
    # transposed), as np.dot writes only into a C-ordered out.
    g_curr, g_prev, point = np.empty(warm.shape), np.empty(warm.shape), np.empty(warm.shape)

    def gradient_step(x, out):
        """Write ``G(x)`` into ``out`` and return the smooth value at ``x``."""
        # G(x) is x minus the masked data residual over L (left in point)
        # minus outer(x @ w + offset, w_row)
        value, res = _g_value(x, obs, mask_l, l, model, offset, lam2, point)
        if lam2:
            # a BLAS rank-one product writes the outer product about twice
            # as fast as np.multiply.outer
            np.dot(res[:, None], w_row, out=out)
            out += point
            np.subtract(x, out, out=out)
        else:
            np.subtract(x, point, out=out)
        return value

    f_curr = gradient_step(warm, g_curr) + lam1 * tr_warm
    best_x, best_f, best_tr = warm, f_curr, tr_warm
    theta_curr = theta_prev = _THETA0
    iterations = 0

    for k in range(cfg.max_inner):
        beta = theta_curr * (1.0 / theta_prev - 1.0)
        if beta:
            # G(z) == (1 + beta) * (G(x) - beta / (1 + beta) * G(x_prev))
            np.multiply(g_prev, beta / (1.0 + beta), out=point)
            np.subtract(g_curr, point, out=point)
            step = point
        else:
            step = g_curr

        if lam1:
            x_next, sig = _svt_with_sigma(step, lam1 / l, 1.0 + beta)
            tr_next = float(sig.sum())
        else:  # the proximal map of a zero penalty is the identity
            x_next, tr_next = step * (1.0 + beta), 0.0
        f_next = gradient_step(x_next, g_prev) + lam1 * tr_next
        if not math.isfinite(f_next):
            raise DivergenceError(f"non-finite objective at inner step {k}", k)
        iterations += 1
        g_prev, g_curr = g_curr, g_prev

        th = theta_curr
        theta_prev, theta_curr = th, 0.5 * (math.sqrt(th**4 + 4 * th**2) - th**2)

        if f_next < best_f:
            best_f, best_x, best_tr = f_next, x_next, tr_next
        del x_next  # only the best iterate outlives its step
        rel = abs(f_curr - f_next) / max(abs(f_curr), 1e-12)
        f_curr = f_next
        # beta == 0 on steps 0 and 1: see _MIN_INNER_STEPS
        if rel < tol and (beta == 0.0 or iterations >= _MIN_INNER_STEPS):
            break

    return best_x, best_tr, best_f, iterations


def _ridge_term(model, cfg) -> float:
    return cfg.lambda2 * cfg.ridge * float(model.weights @ model.weights)


def _solver_objective(x_hat, tr_hat, obs, model, y, cfg) -> float:
    """What the alternation actually minimizes, given ``tr_hat = ||x_hat||_tr``.

    The model refit solves a ridge problem, so the joint objective carries
    the matching lambda2 * ridge * ||w||^2 term; without it the refit is
    not an exact block minimizer and the trace could tick upward.
    """
    l = _lipschitz(model, cfg.lambda2)
    g, _ = _g_value(x_hat, obs, obs.mask / l, l, model, model.bias - y, cfg.lambda2,
                    np.empty(x_hat.shape))
    return g + cfg.lambda1 * tr_hat + _ridge_term(model, cfg)


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
    x_hat = obs.values.copy() if warm_start is None else _as_matrix(warm_start).copy()
    _check_shapes(x_hat, obs, None, y)

    model = train_ridge(x_hat, y, cfg.ridge)
    # the trace norm of x_hat is carried from here on: SVT returns it for
    # every candidate, and a model refit leaves x_hat unchanged
    tr_hat = trace_norm(x_hat) if cfg.lambda1 else 0.0
    current = _solver_objective(x_hat, tr_hat, obs, model, y, cfg)

    trace: list[float] = []
    inner_total = 0
    converged = False
    inner_tol = cfg.tol

    for _ in range(cfg.max_outer):
        previous = current

        # _apg's value leaves out the ridge term, constant while the model is fixed
        candidate, cand_tr, cand_f, iters = _apg(obs, model, y, cfg, x_hat, tr_hat, inner_tol)
        inner_total += iters
        cand_obj = cand_f + _ridge_term(model, cfg)
        if cand_obj <= current:
            x_hat, tr_hat, current = candidate, cand_tr, cand_obj

        refit = train_ridge(x_hat, y, cfg.ridge)
        refit_obj = _solver_objective(x_hat, tr_hat, obs, refit, y, cfg)
        if refit_obj <= current:
            model, current = refit, refit_obj

        trace.append(current)
        change = abs(previous - current) / max(abs(previous), 1e-12)
        if change < cfg.tol:
            converged = True
            break
        inner_tol = max(cfg.tol, _KAPPA * change)

    return CompletionResult(
        x_hat=x_hat,
        model=model,
        objective_trace=trace,
        inner_iterations=inner_total,
        converged=converged,
    )
