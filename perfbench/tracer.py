"""Traced-run mode: spans around public calls into each activemc layer.

The tracer replaces module and class attributes with thin wrappers for the
duration of one ``with installed(tracer):`` block and puts every original
back when the block exits, so untraced measurements never run through a
wrapper. Spans stay in memory (name, parent index, start, end); per-layer
figures are derived from them after the traced call returns.

High-frequency leaves (POSS evaluations, archive inserts, oracle purchases)
are counted rather than spanned: a span per POSS mutation would cost more
memory than the run it measures.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import activemc.acquisition
import activemc.cli
import activemc.completion
import activemc.data_io
import activemc.harness
import activemc.matrix
import activemc.poss

# (owner, attribute, layer name, "span" | "count"). Attributes are patched
# where the caller looks them up: ``completion`` imported ``trace_norm`` and
# ``train_ridge`` by name, ``harness`` and ``cli`` imported ``fit``.
PATCH_POINTS = (
    (np.linalg, "svd", "linalg.svd", "span"),
    (activemc.cli, "cli_main", "cli.cli_main", "span"),
    (activemc.cli, "fit", "completion.fit", "span"),
    (activemc.harness, "fit", "completion.fit", "span"),
    (activemc.completion, "trace_norm", "matrix.trace_norm", "span"),
    (activemc.completion, "train_ridge", "linear_model.train_ridge", "span"),
    (activemc.harness, "run_replicate", "harness.run_replicate", "span"),
    (activemc.acquisition.InformativenessTracker, "record_snapshot",
     "acquisition.record_snapshot", "span"),
    (activemc.harness, "informativeness", "acquisition.informativeness", "span"),
    (activemc.harness, "select_top_k", "acquisition.select", "span"),
    (activemc.harness, "select_cost_ratio", "acquisition.select", "span"),
    (activemc.harness, "poss_optimize", "poss.poss_optimize", "span"),
    (activemc.poss, "evaluate", "poss.evaluate", "count"),
    (activemc.poss.SolutionArchive, "insert", "poss.archive_insert", "count"),
    (activemc.matrix.PartialMatrix, "observe", "matrix.observe", "count"),
    (activemc.data_io, "load_dataset", "data_io.load_dataset", "span"),
    (activemc.data_io, "write_matrix", "data_io.write_matrix", "span"),
)

# Per-layer metric name -> unit. Every traced run reports all of them; a
# layer the workload never enters reads 0.
LAYER_UNITS = {
    "linalg.svd.calls": "count",
    "linalg.svd.s": "s",
    "linalg.svd.mflop_computed": "Mflop",
    "completion.fit.calls": "count",
    "completion.fit.s": "s",
    "completion.self_s": "s",
    "completion.inner_steps": "count",
    "completion.outer_rounds": "count",
    "completion.converged_frac": "ratio",
    "completion.svd_per_inner_step": "ratio",
    "matrix.trace_norm.calls": "count",
    "matrix.trace_norm.s": "s",
    "linear_model.train_ridge.calls": "count",
    "linear_model.train_ridge.s": "s",
    "acquisition.record_snapshot.s": "s",
    "acquisition.informativeness.s": "s",
    "acquisition.select.s": "s",
    "poss.poss_optimize.calls": "count",
    "poss.poss_optimize.s": "s",
    "poss.evaluate.calls": "count",
    "poss.archive_insert.calls": "count",
    "poss.accept_ratio": "ratio",
    "harness.run_replicate.s": "s",
    "harness.self_s": "s",
    "matrix.observe.calls": "count",
    "data_io.load_dataset.s": "s",
    "data_io.write_matrix.s": "s",
    "cli.cli_main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Metrics that must repeat exactly between traced runs of one input.
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit == "count")


def svd_flops(shape, compute_uv: bool) -> float:
    """Operation count of an economy SVD, computed from the operand shape.

    Uses the R-SVD counts from Golub & Van Loan (Matrix Computations,
    Fig. 8.6.1) with m >= n: 6mn^2 + 20n^3 with singular vectors,
    2mn^2 + 2n^3 for singular values only. LAPACK's divide-and-conquer
    routine differs in the constants; this is a shape-based figure, not a
    hardware counter.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = math.prod(shape[:-2])
    if compute_uv:
        return batch * (6.0 * m * n * n + 20.0 * n**3)
    return batch * (2.0 * m * n * n + 2.0 * n**3)


class Tracer:
    """In-memory span and counter store for the traced calls of one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.fit_results: list = []
        self.svd_flops = 0.0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, tracer._stack[-1] if tracer._stack else -1, perf_counter(), 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                tracer._stack.pop()
            if name == "completion.fit":
                tracer.fit_results.append(out)
            elif name == "linalg.svd":
                compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
                tracer.svd_flops += svd_flops(np.shape(args[0]), bool(compute_uv))
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, name, kind in PATCH_POINTS:
                original = vars(owner)[attr]
                make = self._span_wrapper if kind == "span" else self._count_wrapper
                wrapper = make(name, original)
                self._originals.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Dump the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, busy times and self times of the traced calls.

        A span's self time is its duration minus the durations of its direct
        child spans. ``trace.overhead_frac`` needs an untraced twin and is
        filled in by the caller.
        """
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        svd_under_fit = 0
        for name, parent, start, end in self.spans:
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
            if name == "linalg.svd" and self._has_ancestor(parent, "completion.fit"):
                svd_under_fit += 1

        fits = self.fit_results
        inner = sum(r.inner_iterations for r in fits)
        evaluated = self.counts["poss.evaluate"]
        return {
            "linalg.svd.calls": calls["linalg.svd"],
            "linalg.svd.s": busy["linalg.svd"],
            "linalg.svd.mflop_computed": self.svd_flops / 1e6,
            "completion.fit.calls": calls["completion.fit"],
            "completion.fit.s": busy["completion.fit"],
            "completion.self_s": self_time["completion.fit"],
            "completion.inner_steps": inner,
            "completion.outer_rounds": sum(len(r.objective_trace) for r in fits),
            "completion.converged_frac": (sum(r.converged for r in fits) / len(fits)) if fits else 0.0,
            "completion.svd_per_inner_step": svd_under_fit / inner if inner else 0.0,
            "matrix.trace_norm.calls": calls["matrix.trace_norm"],
            "matrix.trace_norm.s": busy["matrix.trace_norm"],
            "linear_model.train_ridge.calls": calls["linear_model.train_ridge"],
            "linear_model.train_ridge.s": busy["linear_model.train_ridge"],
            "acquisition.record_snapshot.s": busy["acquisition.record_snapshot"],
            "acquisition.informativeness.s": busy["acquisition.informativeness"],
            "acquisition.select.s": busy["acquisition.select"],
            "poss.poss_optimize.calls": calls["poss.poss_optimize"],
            "poss.poss_optimize.s": busy["poss.poss_optimize"],
            "poss.evaluate.calls": evaluated,
            "poss.archive_insert.calls": self.counts["poss.archive_insert"],
            "poss.accept_ratio": self.counts["poss.archive_insert"] / evaluated if evaluated else 0.0,
            "harness.run_replicate.s": busy["harness.run_replicate"],
            "harness.self_s": self_time["harness.run_replicate"],
            "matrix.observe.calls": self.counts["matrix.observe"],
            "data_io.load_dataset.s": busy["data_io.load_dataset"],
            "data_io.write_matrix.s": busy["data_io.write_matrix"],
            "cli.cli_main.s": busy["cli.cli_main"],
            "cli.self_s": self_time["cli.cli_main"],
        }

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][1]
        return False


@contextmanager
def installed(tracer: Tracer):
    """Wrap every patch point for the block; originals return on exit."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
