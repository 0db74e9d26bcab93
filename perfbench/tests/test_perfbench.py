"""Tests for the benchmark itself, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

def _traced_run(name, seed, workdir):
    workload = workloads.TINY_WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    instance = workload.setup(seed, workdir, 1)[0]
    spans = tracer.Tracer()
    with tracer.installed(spans):
        output = workload.call(instance)
    outcome = workload.inspect(instance, output)
    return spans, outcome


@pytest.mark.parametrize("name", sorted(workloads.TINY_WORKLOADS))
def test_wrappers_removed_after_traced_run(name, tmp_path):
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCH_POINTS]
    spans, outcome = _traced_run(name, 3, tmp_path)
    assert outcome.problems == []
    assert spans.spans, "the traced run recorded no spans"
    assert [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCH_POINTS] == originals


def test_wrappers_removed_when_the_traced_call_raises():
    import activemc.completion
    from activemc.errors import NumericError

    originals = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCH_POINTS]
    spans = tracer.Tracer()
    with pytest.raises(NumericError):
        with tracer.installed(spans):
            activemc.completion.trace_norm([[float("nan")]])
    assert [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCH_POINTS] == originals
    [(name, parent, start, end)] = spans.spans
    assert name == "matrix.trace_norm" and parent == -1 and end >= start


@pytest.mark.parametrize("name", sorted(workloads.TINY_WORKLOADS))
def test_traced_counts_repeat_at_one_seed(name, tmp_path):
    first, out_a = _traced_run(name, 5, tmp_path / "a")
    second, out_b = _traced_run(name, 5, tmp_path / "b")
    a, b = first.layer_metrics(), second.layer_metrics()
    # every count metric, linalg.svd.calls, completion.inner_steps and poss.*.calls among them
    assert {k: a[k] for k in tracer.COUNT_METRICS} == {k: b[k] for k in tracer.COUNT_METRICS}
    assert out_a.fingerprint == out_b.fingerprint
    assert a["linalg.svd.calls"] > 0 and a["completion.inner_steps"] > 0
    if name == "loop-poss":
        assert a["poss.poss_optimize.calls"] > 0 and a["poss.evaluate.calls"] > 0
    else:
        assert a["poss.poss_optimize.calls"] == 0


def test_layer_metrics_cover_every_reported_name(tmp_path):
    spans, _ = _traced_run("loop-poss", 1, tmp_path)
    assert set(spans.layer_metrics()) | {"trace.overhead_frac"} == set(tracer.LAYER_UNITS)


def test_objective_trace_check_rejects_an_increase():
    assert workloads.check_objective_trace([5.0, 4.0, 4.0, 3.5]) == []
    problems = workloads.check_objective_trace([5.0, 4.0, 4.5])
    assert len(problems) == 1 and "rises at step 2" in problems[0]
    assert workloads.check_objective_trace([5.0, float("nan")])
    assert workloads.check_objective_trace([])


def test_round_spend_check_rejects_overspend():
    from activemc.harness import RoundRecord

    def rec(r, cost):
        return RoundRecord(r, cost, 0, 0.1, 0.1, 1.0, 0.5, 0.5)

    assert workloads.check_round_spend([rec(1, 0.0), rec(2, 25.0), rec(3, 49.0)], 25.0, "x") == []
    assert len(workloads.check_round_spend([rec(1, 0.0), rec(2, 26.0)], 25.0, "x")) == 1


def test_svd_flops_from_shapes():
    assert tracer.svd_flops((100, 20), True) == 6 * 100 * 20**2 + 20 * 20**3
    assert tracer.svd_flops((20, 100), False) == 2 * 100 * 20**2 + 2 * 20**3


def test_reported_names_and_units_match_benchmark_json():
    import json

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.TINY_WORKLOADS) == set(workloads.WORKLOADS)


class _FailsOnSecondInstance:
    def __init__(self, inner):
        self.inner = inner
        self.instances = inner.instances

    def setup(self, seed, workdir, count):
        return self.inner.setup(seed, workdir, count)

    def call(self, instance):
        if instance["index"] == 1:
            raise RuntimeError("injected failure")
        return self.inner.call(instance)

    def inspect(self, instance, output):
        return self.inner.inspect(instance, output)


def test_failed_call_counts_against_success_rate(tmp_path, monkeypatch, capsys):
    import json

    import run

    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "loop-variance",
                        _FailsOnSecondInstance(workloads.TINY_WORKLOADS["loop-variance"]))
    rc = run.main(["--workload", "loop-variance", "--seed", "2", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert result["metrics"]["success_rate"]["value"] == 0.5
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
