"""Closed-loop acquisition experiments: complete, train, evaluate, query.

Each replicate splits the data, hides a fraction of the training matrix,
then repeats for a fixed number of rounds: fit the supervised completion
(warm-started from the previous round), snapshot the recovered matrix for
the variance scores, evaluate the trained model on the held-out rows, pick
the next batch of entries by the configured strategy, and buy their true
values at their columns' prices. Records carry the state *before* each
round's purchase, so the first row of every learning curve sits at zero
cost.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .acquisition import (
    InformativenessTracker,
    informativeness,
    select_cost_ratio,
    select_top_k,
)
from .completion import CompletionConfig, CompletionResult, fit
from .errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    DivergenceError,
    StratificationError,
)
from .linear_model import _as_labels, accuracy, auc, decision_values
from .matrix import PartialMatrix, _as_matrix, _check_finite
from .poss import BiObjectiveProblem, poss_optimize

STRATEGIES = ("variance", "cost_ratio", "poss", "random")
COST_SCHEMES = ("uniform", "random")

_SPLIT_RETRIES = 100
# share of each replicate's rows that train; the rest score the model
_TRAIN_FRACTION = 0.7

@dataclass(frozen=True)
class ExperimentPlan(CompletionConfig):
    """Flat experiment configuration; mirrors the JSON config files and ``complete``'s flags.

    A plan is a ``CompletionConfig`` (the six solver fields, their defaults
    and checks) plus the data, masking, acquisition and replication fields
    below, so it can be passed to ``fit`` as it is.
    """

    # dataset file the CLI loads before calling run_experiment
    data: str | None = None
    label_col: str | int = "last"
    positive_label: str | int | None = None
    delimiter: str = ","
    has_header: bool = False
    standardize: bool = True
    # masking
    observed_rate: float = 0.6
    # acquisition
    strategy: str = "variance"
    batch_size: int = 10
    budget_per_round: float = 50.0
    rounds: int = 10
    window: int = 0
    cost_scheme: str = "uniform"
    poss_pool: int = 200
    poss_iterations: int = 5000
    # replication
    seed: int = 0
    replicates: int = 10

    def __post_init__(self):
        super().__post_init__()  # every field's type, then the solver ranges
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.observed_rate <= 1.0:
            raise ValueError("observed_rate must lie in (0, 1]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.cost_scheme not in COST_SCHEMES:
            raise ValueError(f"cost_scheme must be one of {COST_SCHEMES}")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.budget_per_round <= 0:
            raise ValueError("budget_per_round must be positive")
        # a 1-snapshot window never holds the two snapshots variance scores need
        if self.window < 0 or self.window == 1:
            raise ValueError("window must be 0 (unbounded) or at least 2")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.poss_pool < 1:
            raise ValueError("poss_pool must be at least 1")
        if self.poss_iterations < 1:
            raise ValueError("poss_iterations must be at least 1")


@dataclass
class RoundRecord:
    round: int
    cumulative_cost: float
    queried_entries: int | float
    recon_rel: float
    recon_msq: float
    train_objective: float
    test_accuracy: float
    test_auc: float


@dataclass
class ExperimentResult:
    replicates: list[list[RoundRecord]]
    mean: list[RoundRecord]
    # per replicate, per round: the entries bought after that round's record
    queries: list[list[list[tuple[int, int]]]] = field(default_factory=list)


def make_split(features, labels, seed
               ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Seeded 70/30 row partition into two ``(features, labels)`` pairs, train then test.

    Labels must be -1/+1, one per feature row, and hold both classes. The
    train side gets ``floor(0.7 * n)`` rows, so with n >= 2 neither side is
    empty. The partition is resampled until both sides hold both classes.
    """
    x = _check_finite(_as_matrix(features))
    y = _as_labels(labels).astype(int)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError("feature rows and labels disagree in length")
    if y.size == 0 or y.min() == y.max():
        raise DegenerateLabelsError("dataset must contain both classes")

    rng = np.random.default_rng(seed)
    n_train = int(np.floor(_TRAIN_FRACTION * y.size))
    for _ in range(_SPLIT_RETRIES):
        perm = rng.permutation(y.size)
        tr, te = perm[:n_train], perm[n_train:]
        if y[tr].min() < y[tr].max() and y[te].min() < y[te].max():
            return (x[tr], y[tr]), (x[te], y[te])
    raise StratificationError(
        f"no two-class split found in {_SPLIT_RETRIES} attempts (n={y.size})"
    )


def init_mask(shape: tuple[int, int], observed_rate: float, seed) -> np.ndarray:
    """Boolean grid with exactly floor(rate * n * d) True cells, seeded."""
    if not 0.0 < observed_rate <= 1.0:
        raise ValueError("observed_rate must lie in (0, 1]")
    n, d = shape
    rng = np.random.default_rng(seed)
    k = int(np.floor(observed_rate * n * d))
    mask = np.zeros(n * d, dtype=bool)
    mask[rng.choice(n * d, size=k, replace=False)] = True
    return mask.reshape(n, d)


def reconstruction_errors(x_hat, x_true) -> tuple[float, float]:
    """(relative Frobenius error, squared Frobenius error per entry)."""
    a = _as_matrix(x_hat)
    b = _as_matrix(x_true)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    num = float(np.linalg.norm(a - b, "fro"))
    den = float(np.linalg.norm(b, "fro"))
    if num == 0.0:
        rel = 0.0
    elif den == 0.0:
        rel = float("inf")
    else:
        rel = num / den
    return rel, num * num / (a.shape[0] * a.shape[1])


def score_fit(result: CompletionResult, x_true, rows, labels
              ) -> tuple[float, float, float, float, float]:
    """``(recon_rel, recon_msq, objective, accuracy, auc)`` of one fit, in ``RoundRecord``'s order.

    The recovered matrix is measured against ``x_true`` and the trained
    model is scored on the evaluation ``rows`` and their ``labels``.
    """
    rel, msq = reconstruction_errors(result.x_hat, x_true)
    scores = decision_values(result.model, rows)
    return rel, msq, result.objective_trace[-1], accuracy(scores, labels), auc(scores, labels)


def observed_column_stats(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std over observed cells; silent columns get std 1."""
    counts = mask.sum(axis=0)
    sums = np.where(mask, values, 0.0).sum(axis=0)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    sq = np.where(mask, (values - means) ** 2, 0.0).sum(axis=0)
    variances = np.divide(sq, counts, out=np.zeros_like(sq), where=counts > 0)
    stds = np.sqrt(variances)
    stds[stds <= 1e-12] = 1.0
    return means, stds


def masked_problem(features, mask, standardize: bool, *others):
    """``(PartialMatrix, ground truth, *others)`` for one observation mask.

    With ``standardize`` the ground truth and every extra matrix (held-out
    rows, say) are scaled by the column statistics of the observed cells.
    """
    x_true = _as_matrix(features)
    extra = [_as_matrix(m) for m in others]
    if standardize:
        means, stds = observed_column_stats(x_true, mask)
        x_true = (x_true - means) / stds
        extra = [(m - means) / stds for m in extra]
    return (PartialMatrix(x_true, mask), x_true, *extra)


def _random_within_budget(prices, budget, rng) -> np.ndarray:
    """Positions met in a random order of the pool, each kept if it still fits the budget."""
    order = rng.permutation(len(prices))
    picked, spent = [], 0.0
    for position, price in zip(order.tolist(), prices[order].tolist()):
        if spent + price <= budget:
            picked.append(position)
            spent += price
    return np.array(picked, dtype=int)


def _select_batch(plan: ExperimentPlan, tracker: InformativenessTracker,
                  obs: PartialMatrix, column_costs: np.ndarray,
                  rng: np.random.Generator) -> list[tuple[int, int]]:
    """The next batch of missing entries; none once the pool is empty or nothing fits the budget."""
    # Random picks among the missing entries; so do the scored strategies
    # until the tracker holds the two snapshots variance scores need.
    if plan.strategy == "random" or tracker.retained < 2:
        rows, cols = np.nonzero(~obs.mask)
        if plan.strategy == "poss":
            chosen = _random_within_budget(column_costs[cols], plan.budget_per_round, rng)
        else:
            chosen = np.sort(rng.choice(len(rows), min(plan.batch_size, len(rows)), replace=False))
    else:
        rows, cols, scores = informativeness(tracker, obs.mask)
        if plan.strategy == "variance":
            chosen = select_top_k((rows, cols, scores), plan.batch_size)
        elif plan.strategy == "cost_ratio":
            chosen = select_cost_ratio((rows, cols, scores), column_costs, plan.batch_size)
        else:
            # poss: the pool is the highest-variance entries the round can afford,
            # so the search stays small; optimize the batch under the budget.
            ok = np.flatnonzero(column_costs[cols] <= plan.budget_per_round)
            pool = ok[select_top_k((rows[ok], cols[ok], scores[ok]), plan.poss_pool)]
            problem = BiObjectiveProblem(scores[pool], column_costs[cols[pool]],
                                         plan.budget_per_round)
            chosen = pool[poss_optimize(problem, iterations=plan.poss_iterations, rng=rng)]
    return list(zip(rows[chosen].tolist(), cols[chosen].tolist()))


def _replicate_streams(seed: int, replicate: int):
    base = np.random.SeedSequence([seed, replicate])
    return base.spawn(4)  # split, mask, costs, selection


def run_replicate(plan: ExperimentPlan, features: np.ndarray, labels: np.ndarray,
                  replicate: int) -> tuple[list[RoundRecord], list[list[tuple[int, int]]]]:
    """One seeded replicate of the closed loop."""
    split_ss, mask_ss, cost_ss, select_ss = _replicate_streams(plan.seed, replicate)

    (x_train, y_train), (x_test, y_test) = make_split(features, labels, split_ss)
    mask = init_mask(x_train.shape, plan.observed_rate, mask_ss)

    d = x_train.shape[1]
    if plan.cost_scheme == "random":
        column_costs = np.random.default_rng(cost_ss).integers(1, 11, size=d).astype(float)
    else:
        column_costs = np.ones(d)

    obs, x_true, test_x = masked_problem(x_train, mask, plan.standardize, x_test)
    tracker = InformativenessTracker(plan.window)
    select_rng = np.random.default_rng(select_ss)

    warm = None
    cumulative_cost = 0.0
    queried = 0
    records: list[RoundRecord] = []
    queries: list[list[tuple[int, int]]] = []

    for round_index in range(1, plan.rounds + 1):
        try:
            result = fit(obs, y_train, plan, warm_start=warm)
        except DivergenceError as exc:
            raise DivergenceError(f"replicate {replicate}, round {round_index}: {exc}") from exc
        warm = result.x_hat
        tracker.record_snapshot(result.x_hat)

        scores = score_fit(result, x_true, test_x, y_test)
        records.append(RoundRecord(round_index, cumulative_cost, queried, *scores))

        batch = _select_batch(plan, tracker, obs, column_costs, select_rng)
        if not batch:
            # nothing left to buy, or nothing affordable this round; further
            # rounds would stall too
            break
        for row, col in batch:
            obs.observe(row, col, x_true[row, col])
        cumulative_cost += float(sum(column_costs[col] for _, col in batch))
        queried += len(batch)
        queries.append(batch)

    return records, queries


def _mean_series(replicates: list[list[RoundRecord]]) -> list[RoundRecord]:
    """Per round, the mean over the replicates that reached that round."""
    mean: list[RoundRecord] = []
    for i in range(max(len(r) for r in replicates)):
        rows = [astuple(r[i]) for r in replicates if len(r) > i]
        round_index, *values = zip(*rows)
        mean.append(RoundRecord(round_index[0], *(float(np.mean(v)) for v in values)))
    return mean


def run_experiment(plan: ExperimentPlan, features, labels) -> ExperimentResult:
    """All replicates of the plan, plus the replicate-mean series.

    The harness reads no files: the caller loads ``plan.data`` and passes
    the arrays (``activemc simulate`` does, with ``data_io.load_dataset``).
    """
    features = _as_matrix(features)

    all_records: list[list[RoundRecord]] = []
    all_queries: list[list[list[tuple[int, int]]]] = []
    for replicate in range(plan.replicates):
        records, queries = run_replicate(plan, features, labels, replicate)
        all_records.append(records)
        all_queries.append(queries)

    return ExperimentResult(
        replicates=all_records,
        mean=_mean_series(all_records),
        queries=all_queries,
    )
