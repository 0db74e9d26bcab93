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
SVT and no step is ever retried. The inner loop returns its best iterate,
never worse than its warm start, and a model refit is kept only when it
does not raise the objective, so the recorded objective can never increase.

``fit`` is the solver's one entry point; ``objective``, ``grad_g`` and
``svt`` (the trace norm's proximal map) are the public references its
fused inner loop is checked against, each computed from its formula.

The inner loop stops at the first step whose relative objective change
falls below its tolerance, or after ``max_inner`` steps. The first round's
tolerance is ``tol``; each later round's is ``max(tol, _KAPPA * change)``,
where ``change`` is the previous round's relative objective change, the
value the outer stop tests. So a block subproblem is solved no more finely
than the alternation is moving (inexact block minimization: Xu & Yin 2013;
Bolte, Sabach & Teboulle 2014), and once rounds creep the tolerance is back
at ``tol``. The FISTA sequence ``theta`` starts at 1 from each warm start,
so the first two steps carry no momentum.

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
scale, and none on the two momentum-free steps. ``fit`` builds the solver's
state once for all rounds: the row blocks, the split values and mask, the
mask over ``L`` (rewritten in place when the model changes), the carried
steps, the momentum point's scratch and two iterate buffers. The start
is copied into one buffer, so the current matrix is always one of the
two; a new iterate goes into the one not holding the best iterate.

A matrix of at least ``_SPLIT_CELLS`` cells runs the inner step's
row-separable passes on two fixed halves of its long side (the rows, or a
wide matrix's columns): the momentum point's two passes with the half's
partial Gram matrix, summed for SVT, then the rank-``k`` rebuild with the
half's share of the next value. Such a state starts one worker thread at
its first step, to run the second half while the caller runs the first;
``fit`` ends it. The small eigendecomposition, the sums of the
partial results and the best-iterate and stop logic stay with the caller,
so a step synchronises twice. The split depends on the shape alone, never
on the CPU count, and below the crossover the same code runs one block
inline and starts no thread. The worker sets the caller's ``np.errstate``,
read with ``np.geterr()``, around its half, as neither numpy 2's context
variable nor numpy 1's per-thread state crosses to another thread. Every
value of the smooth part, the inner loop's and the refit's, is summed from
the same blocks in the same order, so the two agree bit for bit. An
iterate's ``G`` is completed at the start of the next step, once the label
residual ``x @ w`` is summed: a column half of a wide matrix holds only
part of it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .linear_model import LinearModel, _as_labels, train_ridge
from .matrix import PartialMatrix, _as_matrix, _check_finite, trace_norm

# each round after the first solves its matrix block to within this fraction
# of the previous round's relative objective change (never below cfg.tol)
_KAPPA = 1e-3
# A matrix with at least this many cells runs the inner step's row-separable
# passes as two halves of its long side, one on the worker thread; a smaller
# one runs them as one block inline and starts no thread. In a sweep of
# widths 20 to 200 on two cores with one BLAS thread each, two halves began
# to win between 30,000 and 70,000 cells, by width, and won at every width
# from here on.
_SPLIT_CELLS = 70_000


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
    """``fit``'s answer: the recovered matrix and its model.

    ``objective_trace`` is the joint objective after each outer round and
    never increases. ``inner_iterations`` counts every round's inner steps,
    and ``converged`` is whether the last round's relative objective change
    fell below ``tol``; ``complete``'s ``metrics.csv`` and the benchmark
    read both.
    """

    x_hat: np.ndarray
    model: LinearModel
    objective_trace: list[float]
    inner_iterations: int
    converged: bool


def _check_shapes(x_hat: np.ndarray, obs: PartialMatrix, model, labels):
    if x_hat.shape != obs.shape:
        raise DimensionMismatchError(
            f"candidate shape {x_hat.shape} does not match observations {obs.shape}"
        )
    if len(labels) != obs.shape[0]:
        raise DimensionMismatchError("labels length does not match row count")
    if model is not None and model.weights.shape[0] != obs.shape[1]:
        raise DimensionMismatchError("model width does not match column count")


def _blocks(shape) -> tuple[slice, ...]:
    """Row slices of the tall view of a ``shape`` matrix, from the shape alone."""
    rows = max(shape)
    if shape[0] * shape[1] < _SPLIT_CELLS:
        return (slice(0, rows),)
    half = (rows + 1) // 2
    return slice(0, half), slice(half, rows)


class _State:
    """The solver state of the module docstring, built once per ``fit``.

    Its arrays are C-ordered tall views, held split into ``count`` row
    blocks: np.dot and np.matmul write only into a C-ordered out, and a wide
    matrix goes back transposed, as SVT hands a wide matrix back.
    ``current`` indexes the buffer that holds the current matrix, and
    ``pool`` is the worker, a ``nullcontext`` for one block.
    """

    def __init__(self, obs, y, lambda2, start):
        self.wide = obs.shape[0] < obs.shape[1]
        self.blocks = _blocks(obs.shape)
        self.count = len(self.blocks)
        self.y, self.lambda2, self.model, self.current = y, lambda2, None, 0
        self.mask = self.tall(obs.mask)
        self.values = self.split(self.tall(obs.values))
        shape = self.mask.shape
        self.scaled_mask = np.empty(shape)
        self.mask_l = self.split(self.scaled_mask)
        self.work = tuple(self.split(np.empty(shape)) for _ in range(3))
        self.buffers = (self.tall(start).copy(order="C"), np.empty(shape))
        self.iterates = tuple(self.split(b) for b in self.buffers)
        if self.count == 1:
            self.pool = nullcontext()
        else:
            # imported here, as only a large fit needs it: concurrent.futures
            # loads logging, which costs every process about 6 ms and 1 MB
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(1, thread_name_prefix="activemc-apg")

    def tall(self, a):
        return a.T if self.wide else a

    def split(self, t):
        """The row blocks of a tall view ``t``; with one block, ``t`` itself."""
        return (t,) if self.count == 1 else tuple(t[s] for s in self.blocks)

    def x_hat(self):
        return self.tall(self.buffers[self.current])

    def each_block(self, fn) -> list:
        """``[fn(i) for i in range(self.count)]``; block 1 runs on the
        ``pool`` while the caller runs block 0."""
        if self.count == 1:
            return [fn(0)]
        future = self.pool.submit(np.errstate(**np.geterr())(fn), 1)
        try:
            first = fn(0)
        except BaseException:
            future.exception()  # waits: its block writes into the caller's arrays
            raise
        return [first, future.result()]

    def part(self, i, x, out):
        """Block ``i``, ``x`` of the point and ``out`` of scratch: leaves the
        masked data residual over ``l`` in ``out`` and returns its squared
        norm and the block's share of ``x @ w``."""
        # the mask zeroes the residual off the observed cells
        np.subtract(x, self.values[i], out=out)
        out *= self.mask_l[i]
        # a wide block's share is a partial sum, a tall block's a run of rows
        share = self.w[i] @ x if self.wide else x @ self.w
        return float(np.vdot(out, out)), share

    def value_now(self, model, out):
        """``value`` of the current matrix under ``model``, ``out`` scratch;
        ``model`` stays set: ``L``, the weights, the offset, the mask over ``L``."""
        if model is not self.model:
            w = model.weights
            self.model, self.offset = model, model.bias - self.y
            self.l = 1.0 + 2.0 * self.lambda2 * float(w @ w)  # L of the module docstring
            # a block of a wide matrix holds columns, so it meets only their weights
            self.w = tuple(w[s] for s in self.blocks) if self.wide else w
            np.divide(self.mask, self.l, out=self.scaled_mask)
        x = self.iterates[self.current]
        return self.value(self.each_block(lambda i: self.part(i, x[i], out[i])))

    def value(self, parts):
        """Smooth value from every block's ``part``, and the label residual
        ``x @ w + offset``. At lambda2 = 0 the label term adds 0.0, which
        leaves the value as it is."""
        if self.count == 1:
            (data, res), = parts
        else:
            (data, res), (data_1, res_1) = parts
            data += data_1
            res = res + res_1 if self.wide else np.concatenate((res, res_1))
        res = res + self.offset
        return 0.5 * self.l * self.l * data + self.lambda2 * float(res @ res), res


def objective(x_hat, obs: PartialMatrix, model: LinearModel, labels, cfg: CompletionConfig) -> float:
    """Full objective value at ``(x_hat, model)``, from the module docstring's
    formula term by term; ``fit`` records the same value, summed its own way."""
    x = _check_finite(_as_matrix(x_hat))
    y = _as_labels(labels)
    _check_shapes(x, obs, model, y)
    # the trace norm first: SVD's copy of x is not held beside the residual
    value = cfg.lambda1 * trace_norm(x) if cfg.lambda1 else 0.0
    res = x - obs.values
    res *= obs.mask
    value += 0.5 * float(np.vdot(res, res))
    if cfg.lambda2:
        res = x @ model.weights + model.bias - y
        value += cfg.lambda2 * float(res @ res) + _ridge_term(model, cfg)
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
    grad = zz - obs.values
    grad *= obs.mask
    if lambda2:
        res = zz @ model.weights + model.bias - y
        grad += (2.0 * lambda2) * np.outer(res, model.weights)
    return grad


def _svt_basis(gram: np.ndarray, tau: float,
               scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What SVT of ``scale * a`` needs from the Gram matrix ``a.T @ a``.

    Returns ``(v_k, coef, shrunk)``: the SVT is ``((a @ v_k) * coef) @
    v_k.T``, with ``V_k`` and ``sigma_k`` (the singular values of ``scale *
    a`` above ``tau``) read off the eigendecomposition of the Gram matrix
    and ``coef = scale * (sigma_k - tau) / sigma_k``; ``shrunk`` holds every
    singular value less ``tau``, floored at 0, largest first. ``scale`` is
    positive; it touches only the spectrum and the ``k`` rebuilt columns,
    never a full-size array.
    """
    w, v = np.linalg.eigh(gram)  # ascending eigenvalues
    sigma = scale * np.sqrt(np.maximum(w, 0.0))
    k = int(np.count_nonzero(sigma > tau))
    # the surviving values are the last k; k == 0 gives the zero matrix
    sigma_k, v_k = sigma[sigma.size - k:], v[:, v.shape[1] - k:]
    return v_k, scale * (sigma_k - tau) / sigma_k, np.maximum(sigma[::-1] - tau, 0.0)


def svt(m, tau: float) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by ``tau``.

    This is the exact proximal map of ``tau * ||.||_tr`` at ``m``.
    """
    a = _check_finite(_as_matrix(m))
    if not tau >= 0:  # NaN too
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return a.copy()
    wide = a.shape[0] < a.shape[1]
    t = a.T if wide else a  # the tall side
    v_k, coef, _ = _svt_basis(t.T @ t, tau, 1.0)
    out = ((t @ v_k) * coef) @ v_k.T
    return out.T if wide else out


def _apg(state, model, cfg, tr_warm, tol):
    """Accelerated proximal gradient on the matrix block, model fixed.

    Starts from the state's current matrix ``warm``, whose trace norm is
    ``tr_warm`` (0.0 when lambda1 is 0, where none is computed).
    ``tol`` is the relative objective change that stops the loop.
    Every step is ``x_next = svt(G(z), lambda1 / L)`` at the momentum point
    ``z``, with ``G`` and ``L`` of the module docstring; ``G(z)`` comes from
    the carried steps of the last two iterates, so ``z`` is never formed.
    Returns ``(best_x, best_tr, best_f, start_f, steps)``: the best iterate
    seen (the momentum sequence is not monotone; ``warm`` when no step
    improves on it), which becomes the state's current matrix, its trace
    norm and objective, the objective of ``warm`` and the step count.
    Neither objective holds the ridge term.
    """
    lam1 = cfg.lambda1
    # G of the current and the previous iterate; point is the momentum
    # point's G over (1 + beta) and scratch
    g_curr, g_prev, point = state.work
    best, x_curr = state.current, state.iterates[state.current]

    # g_curr holds the masked residual of the current iterate over L until
    # the next step turns it into G, once the label residual res is known
    f_curr, res = state.value_now(model, g_curr)
    l, count, split, each_block = state.l, state.count, state.split, state.each_block
    w_row = (2.0 * cfg.lambda2 / l) * model.weights[None, :]
    f_curr = start_f = f_curr + lam1 * tr_warm
    best_f, best_tr = f_curr, tr_warm
    # theta restarts at 1, so steps 0 and 1 carry no momentum
    theta_curr = theta_prev = 1.0

    def momentum_point(i):
        """Block ``i`` of ``G(x)``, of the momentum point's step and of its Gram matrix."""
        # G(x) = x - (outer(res, w_row) + masked residual over L); a BLAS
        # rank-one product writes the outer product about twice as fast
        # as np.multiply.outer
        np.dot(left[i], right, out=point[i])
        np.add(point[i], g_curr[i], out=point[i])
        np.subtract(x_curr[i], point[i], out=g_curr[i])
        if beta:
            # G(z) == (1 + beta) * (G(x) - beta / (1 + beta) * G(x_prev))
            np.multiply(g_prev[i], beta / (1.0 + beta), out=point[i])
            np.subtract(g_curr[i], point[i], out=point[i])
        return step[i].T @ step[i] if lam1 else None

    def proximal_step(i):
        """Block ``i`` of the new iterate, and its ``part`` of the value."""
        if lam1:
            # step @ V_k goes into g_prev's block, free until part() below:
            # early steps keep about all columns, so it is nearly n x d
            rows, kept = step[i].shape[0], v_k.shape[1]
            scaled = g_prev[i].reshape(-1)[:rows * kept].reshape(rows, kept)
            np.matmul(step[i], v_k, out=scaled)
            scaled *= coef
            np.matmul(scaled, v_k.T, out=x_next[i])
        else:  # the proximal map of a zero penalty is the identity
            np.multiply(step[i], 1.0 + beta, out=x_next[i])
        return state.part(i, x_next[i], g_prev[i])

    for k in range(cfg.max_inner):
        beta = theta_curr * (1.0 / theta_prev - 1.0)
        step = point if beta else g_curr
        # outer(res, w_row) in the tall view, split like the matrix
        if state.wide:
            left, right = split(w_row.T), res[None, :]
        else:
            left, right = split(res[:, None]), w_row
        grams = each_block(momentum_point)
        if lam1:
            gram = grams[0] if count == 1 else grams[0] + grams[1]
            v_k, coef, sig = _svt_basis(gram, lam1 / l, 1.0 + beta)
            tr_next = float(sig.sum())
        else:
            tr_next = 0.0
        # never the best iterate's buffer
        j = 1 - best
        x_next = state.iterates[j]
        f_next, res = state.value(each_block(proximal_step))
        f_next += lam1 * tr_next
        if not math.isfinite(f_next):
            raise DivergenceError(f"solver diverged: non-finite objective at inner step {k}")
        g_prev, g_curr, x_curr = g_curr, g_prev, x_next

        th = theta_curr
        theta_prev, theta_curr = th, 0.5 * (math.sqrt(th**4 + 4 * th**2) - th**2)

        if f_next < best_f:
            best_f, best, best_tr = f_next, j, tr_next
        rel = abs(f_curr - f_next) / max(abs(f_curr), 1e-12)
        f_curr = f_next
        if rel < tol:
            break

    state.current = best
    return state.x_hat(), best_tr, best_f, start_f, k + 1


def _ridge_term(model, cfg) -> float:
    return cfg.lambda2 * cfg.ridge * float(model.weights @ model.weights)


def _solver_objective(state, tr_hat, model, cfg) -> float:
    """The joint objective at the state's matrix, of trace norm ``tr_hat``, and ``model``.

    The model refit solves a ridge problem, so the joint objective carries
    the matching lambda2 * ridge * ||w||^2 term; without it the refit is
    not an exact block minimizer and the trace could tick upward.
    """
    g, _ = state.value_now(model, state.work[0])
    return g + cfg.lambda1 * tr_hat + _ridge_term(model, cfg)


def fit(obs: PartialMatrix, labels, cfg: CompletionConfig | None = None,
        warm_start=None) -> CompletionResult:
    """Alternate matrix recovery and model refits until the objective settles.

    Each outer round runs the accelerated inner loop from the current
    matrix, then refits the model on the recovered matrix. The inner loop
    returns its best iterate, which starts at the current matrix, and the
    refit is kept only when it does not increase the joint objective, so
    the recorded trace is non-increasing by construction.
    """
    if cfg is None:
        cfg = CompletionConfig()
    y = _as_labels(labels)
    start = obs.values if warm_start is None else _check_finite(_as_matrix(warm_start))
    _check_shapes(start, obs, None, y)
    # x_hat's trace norm, carried from here on (SVT gives each candidate's; a
    # refit keeps x_hat), taken before the state: SVD's copy is not held beside it
    tr_hat = trace_norm(start) if cfg.lambda1 else 0.0
    state = _State(obs, y, cfg.lambda2, start)  # for every round: see the module docstring
    trace: list[float] = []
    inner_total = 0
    inner_tol = cfg.tol

    with state.pool:  # the worker, if any, ends when fit returns or raises
        model = train_ridge(state.x_hat(), y, cfg.ridge)
        for _ in range(cfg.max_outer):
            # start_f is the last round's current, bit for bit: both value
            # (x_hat, model, tr_hat) on the state's blocks
            x_hat, tr_hat, cand_f, start_f, iters = _apg(state, model, cfg, tr_hat, inner_tol)
            inner_total += iters
            ridge = _ridge_term(model, cfg)
            previous, current = start_f + ridge, cand_f + ridge

            refit = train_ridge(x_hat, y, cfg.ridge)
            refit_obj = _solver_objective(state, tr_hat, refit, cfg)
            if refit_obj <= current:
                model, current = refit, refit_obj

            trace.append(current)
            change = abs(previous - current) / max(abs(previous), 1e-12)
            if change < cfg.tol:
                break
            inner_tol = max(cfg.tol, _KAPPA * change)

    return CompletionResult(x_hat, model, trace, inner_total, change < cfg.tol)
