"""Command-line surface.

Subcommands:
  complete   one-shot supervised completion of a dataset at a mask rate
  simulate   closed-loop acquisition experiment driven by a JSON config

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
from .completion import fit
from .harness import ExperimentPlan, init_mask, masked_problem, run_experiment, score_fit


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
    # made before the fit, so a bad --out costs no work
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mask = init_mask(features.shape, plan.observed_rate, plan.seed)
    obs, x_true = masked_problem(features, mask, plan.standardize)
    del features  # standardized, obs and x_true hold copies: not kept through the fit
    result = fit(obs, labels, plan)
    scores = score_fit(result, x_true, x_true, labels)

    data_io.write_matrix(out / "recovered.csv", result.x_hat, delimiter=plan.delimiter)
    data_io.write_rows(out / "metrics.csv",
                       ("recon_rel", "recon_msq", "objective", "train_accuracy", "train_auc",
                        "converged", "outer_rounds"),
                       [(*scores, int(result.converged), len(result.objective_trace))])
    print(f"complete: recon_rel={scores[0]:.6g} recon_msq={scores[1]:.6g} -> {out}")
    return 0


def _read_config(path) -> dict:
    with open(path) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"config {path} must hold a JSON object: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object, not {type(config).__name__}")
    return config


def _cmd_simulate(args) -> int:
    plan = _plan(args, _read_config(args.config))
    features, labels = _load(plan)
    # made before the replicates run, so a bad --out costs no work
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_experiment(plan, features, labels)
    for index, records in enumerate(result.replicates):
        if len(records) < plan.rounds:
            print(f"simulate: replicate {index} stopped after round {records[-1].round} "
                  f"of {plan.rounds}", file=sys.stderr)
        data_io.write_records(out / f"replicate_{index:02d}.csv", records)
    data_io.write_records(out / "mean.csv", result.mean)

    final = result.mean[-1]
    print(
        f"simulate: {plan.strategy} x{plan.replicates} replicates, "
        f"final accuracy={final.test_accuracy:.4f} auc={final.test_auc:.4f} -> {out}"
    )
    return 0


_COMMANDS = {
    "complete": _cmd_complete,
    "simulate": _cmd_simulate,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
