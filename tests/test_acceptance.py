"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Trend criteria use frozen seeds; every expected value below was either
computed by an independent oracle inside the test or checked against the
stated tolerance.
"""

import json

import numpy as np
import pytest
from paper_checks import coherence, default_iterations, knapsack_optimum, lemma3_sweep, theorem1_bound

from activemc.cli import cli_main
from activemc.completion import CompletionConfig, fit, grad_g, svt
from activemc.data_io import write_dataset
from activemc.harness import ExperimentPlan, init_mask, reconstruction_errors, run_experiment
from activemc.linear_model import LinearModel, accuracy, decision_values
from activemc.matrix import PartialMatrix, trace_norm
from activemc.poss import BiObjectiveProblem, poss_optimize
from activemc.synthetic import labeled_lowrank, margin_labeled_lowrank


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {name}  {detail}")
    assert ok, f"criterion {number} failed: {name} ({detail})"


def _family_split(seed, spectrum, label_noise, n_all=140, n_train=100):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    x, y, _ = margin_labeled_lowrank(n_all, 20, 3, rng, spectrum=spectrum, label_noise=label_noise)
    return x[:n_train], y[:n_train], x[n_train:], y[n_train:]


def _paired_fit(seed, lambda2, spectrum, label_noise, rate=0.6):
    x_train, y_train, x_test, y_test = _family_split(seed, spectrum, label_noise)
    mask = init_mask(x_train.shape, rate, np.random.SeedSequence([seed, 1]))
    obs = PartialMatrix(np.where(mask, x_train, 0.0), mask)
    result = fit(obs, y_train, CompletionConfig(lambda2=lambda2))
    rel, _ = reconstruction_errors(result.x_hat, x_train)
    acc = accuracy(decision_values(result.model, x_test), y_test)
    return rel, acc


def test_criterion_01_svt_prox_optimality():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        m = rng.standard_normal((int(rng.integers(2, 11)), int(rng.integers(2, 9))))
        tau = float(rng.uniform(0.0, 1.2) * np.linalg.svd(m, compute_uv=False)[0])
        w = svt(m, tau)
        base = tau * trace_norm(w) + 0.5 * np.linalg.norm(w - m, "fro") ** 2
        for _ in range(100):
            delta = rng.standard_normal(m.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            moved = w + delta
            value = tau * trace_norm(moved) + 0.5 * np.linalg.norm(moved - m, "fro") ** 2
            if base > value + 1e-12:
                ok = False
    _report(1, "svt prox optimality under perturbation", ok, "100 pools x 100 perturbations")


def test_criterion_02_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(3, 11)), int(rng.integers(3, 9))
        x = rng.standard_normal((n, d))
        mask = rng.random((n, d)) < 0.6
        obs = PartialMatrix(np.where(mask, x, 0.0), mask)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        model = LinearModel(weights=rng.standard_normal(d), bias=float(rng.standard_normal()))
        z = rng.standard_normal((n, d))
        for lambda2 in (0.0, 1.0):

            def g_value(zz):
                diff = np.where(obs.mask, zz - obs.values, 0.0)
                value = 0.5 * np.sum(diff * diff)
                if lambda2:
                    res = zz @ model.weights + model.bias - y
                    value += lambda2 * res @ res
                return value

            eps = 1e-6
            fd = np.zeros_like(z)
            for i in range(n):
                for j in range(d):
                    zp, zm = z.copy(), z.copy()
                    zp[i, j] += eps
                    zm[i, j] -= eps
                    fd[i, j] = (g_value(zp) - g_value(zm)) / (2 * eps)
            g = grad_g(z, obs, model, y, lambda2)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
    _report(2, "grad_g matches central finite differences", worst < 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_03_alternating_descent():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(20):
        n, d = int(rng.integers(10, 25)), int(rng.integers(4, 10))
        x = rng.standard_normal((n, d))
        mask = rng.random((n, d)) < 0.6
        obs = PartialMatrix(np.where(mask, x, 0.0), mask)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        if y.min() == y.max():
            y[0] = -y[0]
        trace = fit(obs, y, CompletionConfig(max_outer=8)).objective_trace
        if not all(b <= a + 1e-10 for a, b in zip(trace, trace[1:])):
            ok = False
    _report(3, "objective trace non-increasing across outer rounds", ok, "20 instances")


def test_criterion_04_supervision_helps():
    rel1, rel0, acc1, acc0 = [], [], [], []
    for seed in range(10):
        r1, a1 = _paired_fit(seed, 1.0, [60, 40, 8], 0.1)
        r0, a0 = _paired_fit(seed, 0.0, [60, 40, 8], 0.1)
        rel1.append(r1)
        rel0.append(r0)
        acc1.append(a1)
        acc0.append(a0)
    rel_ok = np.mean(rel1) <= np.mean(rel0)
    acc_ok = np.mean(acc1) >= np.mean(acc0)
    _report(
        4,
        "supervised term improves recovery and accuracy",
        rel_ok and acc_ok,
        f"rel {np.mean(rel1):.4f} vs {np.mean(rel0):.4f}, acc {np.mean(acc1):.4f} vs {np.mean(acc0):.4f}",
    )


def test_criterion_05_more_observations_help():
    lo, hi = [], []
    for seed in range(10):
        r60, _ = _paired_fit(seed, 1.0, [60, 40, 8], 0.1, rate=0.6)
        r80, _ = _paired_fit(seed, 1.0, [60, 40, 8], 0.1, rate=0.8)
        lo.append(r60)
        hi.append(r80)
    ok = np.mean(hi) < np.mean(lo)
    _report(5, "error shrinks from 60% to 80% observed", ok, f"{np.mean(lo):.4f} -> {np.mean(hi):.4f}")


# the data seed of criteria 6, 8 and 11; tests/sweep_6_8.py reruns 6 and 8 at seeds 1-12
DATA_SEED = 777


def _acquisition_family(label_noise, data_seed):
    rng = np.random.default_rng(data_seed)
    x, y, _ = margin_labeled_lowrank(143, 20, 3, rng, spectrum=[60, 40, 2], label_noise=label_noise)
    return x, y


def active_beats_random(data_seed):
    """Criterion 6's plans on the data set of ``data_seed``: (holds, detail)."""
    x, y = _acquisition_family(0.35, data_seed)
    curves = {}
    for strategy in ("variance", "random"):
        plan = ExperimentPlan(
            strategy=strategy,
            batch_size=16,  # 2% of the 800 initially missing entries
            rounds=15,
            replicates=10,
            observed_rate=0.6,
            standardize=False,
            seed=11,
            window=0,
        )
        curves[strategy] = run_experiment(plan, x, y).mean

    var_curve = [r.test_accuracy for r in curves["variance"]]
    rand_curve = [r.test_accuracy for r in curves["random"]]
    final_ok = var_curve[-1] >= rand_curve[-1]

    target = rand_curve[-1]
    reach = next((i for i, a in enumerate(var_curve) if a >= target), None)
    queries_random = curves["random"][-1].queried_entries
    queries_needed = None if reach is None else curves["variance"][reach].queried_entries
    query_ok = queries_needed is not None and queries_needed <= 0.8 * queries_random
    return final_ok and query_ok, (
        f"final {var_curve[-1]:.4f} vs {rand_curve[-1]:.4f}; "
        f"reached random's final at {queries_needed} of {queries_random} queries"
    )


def test_criterion_06_active_beats_random():
    _report(6, "variance querying beats random", *active_beats_random(DATA_SEED))


def test_criterion_07_poss_matches_exhaustive():
    rng = np.random.default_rng(3)
    agree = 0
    for _ in range(100):
        gains = rng.uniform(0.0, 10.0, size=10)
        costs = rng.integers(1, 11, size=10).astype(float)
        problem = BiObjectiveProblem(gains, costs, budget=0.5 * float(costs.sum()))
        chosen = poss_optimize(problem, default_iterations(problem), rng=rng)
        achieved = sum(gains[j] for j in chosen)
        optimum = knapsack_optimum(gains, costs, problem.budget)
        agree += int(abs(achieved - optimum) <= 1e-9)
    _report(7, "poss matches exhaustive optimum", agree >= 95, f"{agree}/100 pools")


def cost_awareness_helps(data_seed):
    """Criterion 8's plans on the data set of ``data_seed``: (holds, detail)."""
    x, y = _acquisition_family(0.5, data_seed)
    results = {}
    for strategy, rounds in (("poss", 6), ("cost_ratio", 12), ("variance", 12)):
        plan = ExperimentPlan(
            strategy=strategy,
            batch_size=16,
            rounds=rounds,
            replicates=10,
            observed_rate=0.6,
            standardize=False,
            seed=7,
            window=0,
            cost_scheme="random",
            budget_per_round=25.0,
        )
        results[strategy] = run_experiment(plan, x, y)

    def accuracy_at(records, target):
        eligible = [r for r in records if r.cumulative_cost <= target]
        return eligible[-1].test_accuracy if eligible else records[0].test_accuracy

    poss_acc, ratio_acc, var_acc = [], [], []
    for rep in range(10):
        poss_records = results["poss"].replicates[rep]
        target = poss_records[-1].cumulative_cost
        poss_acc.append(poss_records[-1].test_accuracy)
        ratio_acc.append(accuracy_at(results["cost_ratio"].replicates[rep], target))
        var_acc.append(accuracy_at(results["variance"].replicates[rep], target))

    mp, mc, mv = np.mean(poss_acc), np.mean(ratio_acc), np.mean(var_acc)
    return mp >= mc >= mv, f"poss {mp:.4f} >= cost_ratio {mc:.4f} >= variance {mv:.4f}"


def test_criterion_08_cost_awareness_helps():
    _report(8, "cost-aware selection helps at matched spend", *cost_awareness_helps(DATA_SEED))


def test_criterion_09_hadamard_trace_norm_inequality():
    violations, worst = lemma3_sweep(1000, np.random.default_rng(909), max_dim=20)
    _report(9, "Hadamard trace-norm inequality", violations == 0, f"worst ratio {worst:.4f}")


def test_criterion_10_bound_calibration():
    held = 0
    for trial in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([91, trial]))
        x, y, _ = labeled_lowrank(60, 30, 3, rng)
        mask = init_mask(x.shape, 0.6, rng)
        obs = PartialMatrix(np.where(mask, x, 0.0), mask)
        result = fit(obs, y)
        _, measured = reconstruction_errors(result.x_hat, x)
        beta = trace_norm(x) ** 2 / np.sqrt(3 * 60 * 30)
        mu = max(coherence(x), coherence(result.x_hat))
        bound = theorem1_bound(beta=beta, r=3, n=60, d=30, omega_size=int(mask.sum()), mu=mu)
        held += int(measured <= bound)
    _report(10, "measured error under the recovery bound", held >= 45, f"{held}/50 trials")


def test_criterion_11_window_changes_queries():
    x, y = _acquisition_family(0.35, DATA_SEED)
    runs = {}
    for window in (0, 4):
        plan = ExperimentPlan(
            strategy="variance",
            batch_size=16,
            rounds=8,
            replicates=10,
            observed_rate=0.6,
            standardize=False,
            seed=11,
            window=window,
        )
        runs[window] = run_experiment(plan, x, y)

    differing = sum(
        1 for rep in range(10) if runs[0].queries[rep] != runs[4].queries[rep]
    )
    finite = all(
        np.isfinite([r.recon_rel, r.recon_msq, r.test_accuracy, r.test_auc]).all()
        for run in runs.values()
        for rep in run.replicates
        for r in rep
    )
    _report(
        11,
        "windowed variance changes the query sequence",
        differing >= 1 and finite,
        f"{differing}/10 replicates differ; metrics finite",
    )


def test_criterion_12_simulate_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    x, y, _ = labeled_lowrank(40, 6, 2, rng)
    data = tmp_path / "data.csv"
    write_dataset(data, x, y)
    config = {
        "data": str(data),
        "positive_label": "1",
        "standardize": False,
        "strategy": "variance",
        "batch_size": 4,
        "rounds": 3,
        "replicates": 2,
        "observed_rate": 0.6,
        "seed": 13,
        "max_inner": 60,
    }
    cfg_path = tmp_path / "plan.json"
    cfg_path.write_text(json.dumps(config))

    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1] and set(outputs[0]) == {
        "mean.csv",
        "replicate_00.csv",
        "replicate_01.csv",
    }
    _report(12, "simulate output is byte-identical across reruns", ok, "2 runs compared")
