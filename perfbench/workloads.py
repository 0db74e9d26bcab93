"""Benchmark workloads: seeded inputs, the timed public call, output checks.

Each workload builds ``instances`` input instances from the run seed during
set-up. The timed call goes through one public entry point (``cli_main`` or
``run_experiment``); everything after it - parsing outputs, checking them,
fingerprinting them - happens outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import activemc.cli
import activemc.harness
from activemc.data_io import load_matrix, write_dataset
from activemc.harness import ExperimentPlan, init_mask, observed_column_stats, reconstruction_errors
from activemc.synthetic import labeled_lowrank, margin_labeled_lowrank

QUALITY_METRICS = ("recon_rel", "accuracy", "auc", "objective")


@dataclass
class Outcome:
    """What the checks found in one call's outputs."""

    quality: dict[str, float] = field(default_factory=dict)
    fingerprint: object = None
    problems: list[str] = field(default_factory=list)


def check_finite(values: dict[str, float], where: str) -> list[str]:
    return [f"{where}: {key} is not finite ({value!r})"
            for key, value in values.items() if not math.isfinite(value)]


def check_objective_trace(trace, where: str = "fit") -> list[str]:
    """The alternation keeps only non-increasing steps; any rise is a defect."""
    problems = check_finite({f"objective_trace[{i}]": v for i, v in enumerate(trace)}, where)
    if not trace:
        problems.append(f"{where}: empty objective_trace")
    for i in range(1, len(trace)):
        if trace[i] > trace[i - 1]:
            problems.append(f"{where}: objective_trace rises at step {i} "
                            f"({trace[i - 1]!r} -> {trace[i]!r})")
    return problems


def check_round_spend(records, budget: float, where: str) -> list[str]:
    """Every purchase visible in the records stays within the round budget."""
    problems = []
    for before, after in zip(records, records[1:]):
        spent = after.cumulative_cost - before.cumulative_cost
        if spent > budget:
            problems.append(f"{where}: round {before.round} spent {spent} > budget {budget}")
    return problems


def queries_sha256(queries) -> str:
    """SHA-256 of one replicate's chosen entries, round by round."""
    rows = [[[int(r), int(c)] for r, c in batch] for batch in queries]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


@dataclass(frozen=True)
class CompleteWorkload:
    """``activemc complete`` through ``cli_main`` on a written dataset file."""

    n: int
    d: int
    rank: int
    observed: float = 0.6
    instances: int = 2

    def setup(self, seed: int, workdir: Path, count: int) -> list[dict]:
        instances = []
        for index in range(count):
            rng = _instance_rng(seed, index)
            x, y, _ = labeled_lowrank(self.n, self.d, self.rank, rng)
            path = workdir / f"data_{index}.csv"
            write_dataset(path, x, y)
            instances.append({"index": index, "data": path, "out": workdir / f"out_{index}",
                              "mask_seed": int(rng.integers(2**31)), "x": x})
        return instances

    def call(self, instance: dict) -> int:
        argv = ["complete", "--data", str(instance["data"]), "--observed", str(self.observed),
                "--seed", str(instance["mask_seed"]), "--out", str(instance["out"])]
        with contextlib.redirect_stdout(io.StringIO()):
            return activemc.cli.cli_main(argv)

    def inspect(self, instance: dict, rc: int) -> Outcome:
        where = f"instance {instance['index']}"
        if rc != 0:
            return Outcome(problems=[f"{where}: cli_main returned {rc}"])
        out = instance["out"]
        with open(out / "metrics.csv", newline="") as fh:
            row = {k: float(v) for k, v in next(csv.DictReader(fh)).items()}
        recovered = load_matrix(out / "recovered.csv")

        problems = check_finite(row, where)
        if recovered.shape != (self.n, self.d):
            problems.append(f"{where}: recovered shape {recovered.shape}")
        elif not np.isfinite(recovered).all():
            problems.append(f"{where}: recovered matrix has non-finite entries")
        else:
            # metrics.csv must describe the matrix written beside it
            x = instance["x"]
            mask = init_mask(x.shape, self.observed, instance["mask_seed"])
            means, stds = observed_column_stats(x, mask)
            rel, _ = reconstruction_errors(recovered, (x - means) / stds)
            if not math.isclose(rel, row["recon_rel"], rel_tol=1e-8):
                problems.append(f"{where}: recon_rel {row['recon_rel']} vs recomputed {rel}")
        for key in ("train_accuracy", "train_auc"):
            if not 0.0 <= row[key] <= 1.0:
                problems.append(f"{where}: {key} {row[key]} outside [0, 1]")

        digest = hashlib.sha256()
        for name in ("recovered.csv", "metrics.csv"):
            digest.update((out / name).read_bytes())
        quality = {"recon_rel": row["recon_rel"], "accuracy": row["train_accuracy"],
                   "auc": row["train_auc"], "objective": row["objective"]}
        return Outcome(quality=quality, fingerprint=digest.hexdigest(), problems=problems)


@dataclass(frozen=True)
class LoopWorkload:
    """``run_experiment`` on a margin-labeled low-rank instance.

    Each instance is its own seeded data set with a one-replicate plan, so
    ten instances do the work of a ten-replicate experiment while the time
    and quality figures average over ten data sets instead of one.
    """

    strategy: str
    label_noise: float
    rounds: int
    n: int = 143
    d: int = 20
    spectrum: tuple = (60.0, 40.0, 2.0)
    batch_size: int = 16
    replicates: int = 1
    instances: int = 10
    cost_scheme: str = "uniform"
    budget_per_round: float = 50.0
    poss_pool: int = 200
    poss_iterations: int = 5000

    def setup(self, seed: int, workdir: Path, count: int) -> list[dict]:
        instances = []
        for index in range(count):
            rng = _instance_rng(seed, index)
            x, y, _ = margin_labeled_lowrank(self.n, self.d, len(self.spectrum), rng,
                                             spectrum=list(self.spectrum),
                                             label_noise=self.label_noise)
            plan = ExperimentPlan(
                strategy=self.strategy, batch_size=self.batch_size, rounds=self.rounds,
                replicates=self.replicates, observed_rate=0.6, standardize=False,
                seed=int(rng.integers(2**31)), window=0, cost_scheme=self.cost_scheme,
                budget_per_round=self.budget_per_round, poss_pool=self.poss_pool,
                poss_iterations=self.poss_iterations,
            )
            instances.append({"index": index, "plan": plan, "x": x, "y": y})
        return instances

    def call(self, instance: dict):
        return activemc.harness.run_experiment(instance["plan"], instance["x"], instance["y"])

    def inspect(self, instance: dict, result) -> Outcome:
        plan = instance["plan"]
        problems = []
        if len(result.replicates) != plan.replicates:
            problems.append(f"{len(result.replicates)} of {plan.replicates} replicates returned")
        for rep, (records, queries) in enumerate(zip(result.replicates, result.queries)):
            where = f"instance {instance['index']} replicate {rep}"
            if len(records) != plan.rounds:
                problems.append(f"{where}: {len(records)} of {plan.rounds} rounds recorded")
            for rec in records:
                problems += check_finite(vars(rec), f"{where} round {rec.round}")
            if plan.strategy == "poss":
                problems += check_round_spend(records, plan.budget_per_round, where)
            else:
                problems += [f"{where}: batch {k} holds {len(b)} entries"
                             for k, b in enumerate(queries) if len(b) != plan.batch_size]
            bought = [entry for batch in queries for entry in batch]
            if len(set(bought)) != len(bought):
                problems.append(f"{where}: an entry was bought twice")

        final = result.mean[-1]
        quality = {"recon_rel": final.recon_rel, "accuracy": final.test_accuracy,
                   "auc": final.test_auc, "objective": final.train_objective}
        problems += check_finite(quality, f"instance {instance['index']} mean")
        for key in ("accuracy", "auc"):
            if not 0.0 <= quality[key] <= 1.0:
                problems.append(f"instance {instance['index']}: {key} {quality[key]} outside [0, 1]")
        fingerprint = [queries_sha256(q) for q in result.queries]
        return Outcome(quality=quality, fingerprint=fingerprint, problems=problems)


# The three workloads of BENCHMARK.json; their reasons are in NOTES.md.
WORKLOADS = {
    "complete-2000x100": CompleteWorkload(n=2000, d=100, rank=5),
    # criterion 6's instance family and plan, its ten replicates spread over
    # ten instances
    "loop-variance": LoopWorkload(strategy="variance", label_noise=0.35, rounds=15),
    # criterion 8's poss settings: random column costs, budget 25 per round
    "loop-poss": LoopWorkload(strategy="poss", label_noise=0.5, rounds=6,
                              cost_scheme="random", budget_per_round=25.0),
}

# Same shapes of work at sizes that run in well under a second; used for the
# warm-up call before timing and by the tests.
TINY_WORKLOADS = {
    "complete-2000x100": CompleteWorkload(n=60, d=12, rank=3),
    "loop-variance": LoopWorkload(strategy="variance", label_noise=0.35, rounds=3,
                                  n=40, d=8, batch_size=4, replicates=2, instances=2),
    "loop-poss": LoopWorkload(strategy="poss", label_noise=0.5, rounds=3, n=40, d=8,
                              replicates=2, instances=2, cost_scheme="random",
                              budget_per_round=25.0, poss_pool=30, poss_iterations=200),
}
