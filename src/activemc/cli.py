"""Command-line surface.

Subcommands:
  complete   one-shot supervised completion of a dataset at a mask rate
  simulate   closed-loop acquisition experiment driven by a JSON config
  bench-poss subset optimizer vs exhaustive search on small random pools
  bound      recovery-error bound vs measured error on a synthetic instance
  lemma3     Monte-Carlo sweep of the Hadamard trace-norm inequality

Every command takes --seed; all randomness flows from it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data_io
from .bounds import BoundParams, lemma3_sweep, theorem1_bound
from .completion import fit
from .errors import DivergenceError
from .harness import (
    ExperimentPlan,
    init_mask,
    masked_problem,
    reconstruction_errors,
    run_experiment,
    score_fit,
)
from .matrix import PartialMatrix, coherence, trace_norm
from .poss import BiObjectiveProblem, exhaustive_optimum, poss_optimize
from .synthetic import labeled_lowrank


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activemc",
        description="Supervised matrix completion with active feature acquisition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the data commands' flags set the ExperimentPlan field named by their
    # dest; an unset flag leaves the config value, then the plan default
    p = sub.add_parser("complete", help="one-shot supervised completion of a dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True, help="delimited numeric dataset file")
    p.add_argument("--label-col", help='label column: "last", index, or name')
    p.add_argument("--positive-label", help="raw label token mapped to +1")
    p.add_argument("--delimiter")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--no-standardize", dest="standardize", action="store_false")
    p.add_argument("--observed", dest="observed_rate", type=float, help="in (0, 1]")
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="closed-loop acquisition experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", required=True, help="JSON file of ExperimentPlan fields")
    p.add_argument("--out", required=True, help="output directory for record files")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--strategy")
    p.add_argument("--rounds", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--batch", dest="batch_size", type=int, help="entries per round")
    p.add_argument("--budget", dest="budget_per_round", type=float, help="cost budget per round")

    p = sub.add_parser("bench-poss", help="subset optimizer vs exhaustive search")
    p.add_argument("--pool", type=int, default=10, help="candidates per pool (<= 20)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional per-trial agreement table")

    p = sub.add_parser("bound", help="error bound vs measured error, synthetic data")
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--d", type=int, default=30)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--observed", type=float, default=0.6)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lemma3", help="Monte-Carlo trace-norm inequality sweep")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-dim", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _plan(args, config) -> ExperimentPlan:
    """The plan from ``config`` with every given flag that names a plan field applied."""
    names = {f.name for f in fields(ExperimentPlan)}
    flags = {key: value for key, value in vars(args).items() if key in names}
    try:
        plan = ExperimentPlan(**{**config, **flags})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid config: {exc}") from exc
    if not plan.data:
        raise ValueError('config has no "data" file')
    return plan


def _load(plan: ExperimentPlan) -> tuple[np.ndarray, np.ndarray]:
    return data_io.load_dataset(plan.data, label_col=plan.label_col,
                                positive_label=plan.positive_label,
                                delimiter=plan.delimiter, has_header=plan.has_header)


def _cmd_complete(args) -> int:
    plan = _plan(args, {})
    features, labels = _load(plan)
    mask = init_mask(features.shape, plan.observed_rate, plan.seed)
    obs, x_true = masked_problem(features, mask, plan.standardize)
    result = fit(obs, labels, plan)
    scores = score_fit(result, x_true, x_true, labels)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_io.write_matrix(out / "recovered.csv", result.x_hat, delimiter=plan.delimiter)
    data_io.write_rows(out / "metrics.csv",
                       ("recon_rel", "recon_msq", "objective", "train_accuracy", "train_auc",
                        "converged", "outer_rounds"),
                       [(*scores, int(result.converged), len(result.objective_trace))])
    print(f"complete: recon_rel={scores[0]:.6g} recon_msq={scores[1]:.6g} -> {out}")
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        plan = _plan(args, json.load(fh))
    features, labels = _load(plan)
    result = run_experiment(plan, features, labels)
    for index, records in enumerate(result.replicates):
        if len(records) < plan.rounds:
            print(f"simulate: replicate {index} stopped after round {records[-1].round} "
                  f"of {plan.rounds}", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for index, records in enumerate(result.replicates):
        data_io.write_records(out / f"replicate_{index:02d}.csv", records)
    data_io.write_records(out / "mean.csv", result.mean)

    final = result.mean[-1]
    print(
        f"simulate: {plan.strategy} x{plan.replicates} replicates, "
        f"final accuracy={final.test_accuracy:.4f} auc={final.test_auc:.4f} -> {out}"
    )
    return 0


def _require_positive(args, *names) -> None:
    """Reject a count flag below 1 before it can make a run that checks nothing."""
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 1")


def _cmd_bench_poss(args) -> int:
    _require_positive(args, "trials", "pool")
    if args.pool > 20:
        raise ValueError("--pool must be at most 20 for exhaustive comparison")
    rng = np.random.default_rng(args.seed)
    rows = []
    agreements = 0
    for trial in range(args.trials):
        gains = rng.uniform(0.0, 10.0, size=args.pool)
        costs = rng.integers(1, 11, size=args.pool).astype(float)
        problem = BiObjectiveProblem(
            candidates=[(0, j) for j in range(args.pool)],
            informativeness=gains,
            costs=costs,
            budget=0.5 * float(costs.sum()),
        )
        chosen = poss_optimize(problem, rng=rng)
        achieved = float(sum(gains[problem.candidates.index(entry)] for entry in chosen))
        optimum, _ = exhaustive_optimum(problem)
        match = int(abs(achieved - optimum) <= 1e-9)
        agreements += match
        rows.append((trial, achieved, optimum, match))

    rate = agreements / args.trials
    if args.out:
        data_io.write_rows(args.out, ("trial", "poss_value", "optimal_value", "match"), rows)
    print(f"bench-poss: agreement {agreements}/{args.trials} = {rate:.3f}")
    return 0


def _cmd_bound(args) -> int:
    _require_positive(args, "trials")
    held = 0
    for trial in range(args.trials):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, trial]))
        x, y, _ = labeled_lowrank(args.n, args.d, args.rank, rng)
        mask = init_mask(x.shape, args.observed, rng)
        obs = PartialMatrix(x, mask)
        result = fit(obs, y)

        _, measured = reconstruction_errors(result.x_hat, x)
        beta = trace_norm(x) ** 2 / np.sqrt(args.rank * args.n * args.d)
        mu = max(coherence(x), coherence(result.x_hat))
        bound = theorem1_bound(
            BoundParams(
                beta=beta,
                r=args.rank,
                n=args.n,
                d=args.d,
                omega_size=int(mask.sum()),
                mu=mu,
                c0=args.c0,
            )
        )
        ok = measured <= bound
        held += int(ok)
        print(
            f"bound trial {trial}: measured={measured:.6g} bound={bound:.6g} "
            f"mu={mu:.4f} holds={ok}"
        )
    print(f"bound: held in {held}/{args.trials} trials")
    return 0


def _cmd_lemma3(args) -> int:
    _require_positive(args, "trials", "max_dim")
    rng = np.random.default_rng(args.seed)
    violations, worst = lemma3_sweep(args.trials, rng, max_dim=args.max_dim)
    print(f"lemma3: {violations}/{args.trials} violations, worst lhs/rhs ratio {worst:.6f}")
    return 0 if violations == 0 else 1


_COMMANDS = {
    "complete": _cmd_complete,
    "simulate": _cmd_simulate,
    "bench-poss": _cmd_bench_poss,
    "bound": _cmd_bound,
    "lemma3": _cmd_lemma3,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"error: solver diverged at iteration {exc.iteration}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
