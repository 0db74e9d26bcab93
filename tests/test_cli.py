import json

import numpy as np
import pytest

from activemc import cli, harness
from activemc.cli import cli_main
from activemc.completion import CompletionConfig, fit
from activemc.data_io import load_dataset, write_dataset, write_matrix
from activemc.errors import DivergenceError
from activemc.linear_model import accuracy, auc, decision_values
from activemc.synthetic import labeled_lowrank, margin_labeled_lowrank


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    x, y, _ = labeled_lowrank(40, 6, 2, rng)
    path = tmp_path / "data.csv"
    write_dataset(path, x, y)
    return str(path)


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestComplete:
    def test_writes_outputs_and_is_deterministic(self, tmp_path, dataset):
        args = [
            "complete",
            "--data", dataset,
            "--label-col", "last",
            "--positive-label", "1",
            "--observed", "0.6",
            "--lambda1", "1",
            "--lambda2", "1",
            "--seed", "7",
        ]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")
        assert (tmp_path / "a" / "recovered.csv").exists()
        metrics = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("recon_rel,recon_msq,objective")

    def test_metrics_row_matches_a_direct_fit(self, tmp_path, dataset):
        out = tmp_path / "o"
        args = ["complete", "--data", dataset, "--observed", "0.5", "--lambda2", "2",
                "--seed", "7", "--out", str(out)]
        assert cli_main(args) == 0
        features, labels = load_dataset(dataset)
        mask = harness.init_mask(features.shape, 0.5, 7)
        obs, x_true = harness.masked_problem(features, mask, True)
        result = fit(obs, labels, CompletionConfig(lambda2=2.0))
        rel, msq = harness.reconstruction_errors(result.x_hat, x_true)
        scores = decision_values(result.model, x_true)
        values = (rel, msq, result.objective_trace[-1], accuracy(scores, labels),
                  auc(scores, labels))
        row = ",".join(f"{v:.10e}" for v in values)
        row += f",{int(result.converged)},{len(result.objective_trace)}"
        assert (out / "metrics.csv").read_text().splitlines()[1] == row

    def test_unset_flags_take_plan_defaults(self, tmp_path, dataset):
        # positive_label (None), has_header (False) and standardize (True)
        # have no flag spelling of their default value
        plan = harness.ExperimentPlan()
        args = ["complete", "--data", dataset]
        spelled = args + [
            "--label-col", plan.label_col,
            "--delimiter", plan.delimiter,
            "--observed", str(plan.observed_rate),
            "--lambda1", str(plan.lambda1),
            "--lambda2", str(plan.lambda2),
            "--seed", str(plan.seed),
        ]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(spelled + ["--out", str(tmp_path / "b")]) == 0
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    @pytest.mark.parametrize("flag, field, value", [
        ("--lambda1", "lambda1", -1.0),
        ("--observed", "observed_rate", 0.0),
    ], ids=["lambda1", "observed"])
    def test_bad_value_reads_as_in_simulate(self, tmp_path, dataset, capsys, flag, field, value):
        out = tmp_path / "o"
        assert cli_main(["complete", "--data", dataset, flag, str(value), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {field}")
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({"data": dataset, field: value}))
        assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_non_finite_flag_is_an_error(self, tmp_path, dataset, capsys):
        out = tmp_path / "o"
        assert cli_main(["complete", "--data", dataset, "--lambda2", "nan", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: invalid config: lambda2 must be finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", ["", ";;"], ids=["empty", "two-chars"])
    def test_bad_delimiter_is_an_error(self, tmp_path, dataset, capsys, delimiter):
        out = tmp_path / "o"
        code = cli_main(["complete", "--data", dataset, "--delimiter", delimiter, "--out", str(out)])
        assert code == 1
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({"data": dataset, "delimiter": delimiter}))
        assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {dataset}: delimiter {delimiter!r} is not one character"] * 2
        assert not out.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        code = cli_main(
            ["complete", "--data", "/nope.csv", "--out", str(tmp_path / "o")]
        )
        assert code != 0
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def config(self, tmp_path, dataset, **overrides):
        cfg = {
            "data": dataset,
            "positive_label": "1",
            "standardize": False,
            "strategy": "variance",
            "batch_size": 4,
            "rounds": 3,
            "replicates": 2,
            "observed_rate": 0.6,
            "seed": 5,
            "max_inner": 60,
        }
        cfg.update(overrides)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_writes_replicates_and_mean(self, tmp_path, dataset):
        out = tmp_path / "runs"
        assert cli_main(["simulate", "--config", self.config(tmp_path, dataset), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["mean.csv", "replicate_00.csv", "replicate_01.csv"]
        header = (out / "mean.csv").read_text().splitlines()[0]
        assert header == (
            "round,cumulative_cost,queried_entries,recon_rel,recon_msq,"
            "train_objective,test_accuracy,test_auc"
        )

    def test_flag_overrides_config(self, tmp_path, dataset, monkeypatch):
        plans = []
        real_run = cli.run_experiment

        def run_experiment(plan, features, labels):
            plans.append(plan)
            return real_run(plan, features, labels)

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "runs"
        code = cli_main(
            [
                "simulate",
                "--config", self.config(tmp_path, dataset),
                "--out", str(out),
                "--rounds", "2",
                "--replicates", "1",
                "--batch", "3",
                "--budget", "7.5",
            ]
        )
        assert code == 0
        assert (plans[0].batch_size, plans[0].budget_per_round) == (3, 7.5)
        records = (out / "replicate_00.csv").read_text().strip().splitlines()
        assert len(records) == 3  # header + 2 rounds
        assert not (out / "replicate_01.csv").exists()

    def test_early_stopped_replicates_reported(self, tmp_path, capsys):
        x, y, _ = margin_labeled_lowrank(60, 10, 3, np.random.default_rng(0))
        data = tmp_path / "margin.csv"
        write_dataset(data, x, y)
        config = self.config(tmp_path, str(data), strategy="poss", budget_per_round=1.0,
                             cost_scheme="random", replicates=3, rounds=6, seed=0,
                             poss_iterations=300)
        out = tmp_path / "runs"
        assert cli_main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "simulate: replicate 1 stopped after round 1 of 6",
            "simulate: replicate 2 stopped after round 1 of 6",
        ]
        assert len((out / "mean.csv").read_text().splitlines()) == 7  # header + 6 rounds

    def test_divergence_names_replicate(self, tmp_path, dataset, capsys, monkeypatch):
        real_fit = harness.fit
        calls = []

        def fit(obs, labels, cfg, warm_start=None):
            calls.append(None)
            if len(calls) == 5:  # replicate 1, round 2
                raise DivergenceError("non-finite objective at inner step 7", 7)
            return real_fit(obs, labels, cfg, warm_start=warm_start)

        monkeypatch.setattr(harness, "fit", fit)
        config = self.config(tmp_path, dataset)
        assert cli_main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "solver diverged at iteration 7" in err
        assert "replicate 1, round 2" in err

    def test_requires_data(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"rounds": 1, "replicates": 1}))
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == 'error: config has no "data" file\n'
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"rounds": 2.5}, "rounds"),
        ({"batch_size": 2.5}, "batch_size"),
        ({"replicates": 1.5}, "replicates"),
        ({"max_inner": 2.5}, "max_inner"),
        ({"strategy": "poss", "poss_pool": 2.5}, "poss_pool"),
        ({"seed": 1.5}, "seed"),
        ({"window": 1.5}, "window"),
        ({"has_header": "no"}, "has_header"),
        ({"rounds": True}, "rounds"),
        ({"seed": -1}, "seed"),
        ({"data": 5}, "data"),
        ({"positive_label": ["1"]}, "positive_label"),
        ({"observed_rate": "0.5"}, "observed_rate"),
        ({"lambda1": None}, "lambda1"),
        ({"tol": True}, "tol"),
        ({"delimiter": 1}, "delimiter"),
        ({"label_col": True}, "label_col"),
        ({"label_col": 0, "data": "label_first.csv"}, None),
        ({"positive_label": 1}, None),
    ], ids=["rounds-float", "batch_size-float", "replicates-float", "max_inner-float",
            "poss_pool-float", "seed-float", "window-float", "has_header-string",
            "rounds-bool", "seed-negative", "data-int", "positive_label-list",
            "observed_rate-string", "lambda1-null", "tol-bool", "delimiter-int",
            "label_col-bool", "label_col-int", "positive_label-int"])
    def test_plan_value_types(self, tmp_path, dataset, capsys, monkeypatch, overrides, field):
        monkeypatch.chdir(tmp_path)
        features, labels = load_dataset(dataset)
        write_matrix("label_first.csv", np.column_stack([labels, features]))
        out = tmp_path / "o"
        code = cli_main(["simulate", "--config", self.config(tmp_path, dataset, **overrides),
                         "--out", str(out)])
        if field is None:  # accepted as the CLI has always read them
            assert code == 0
            return
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: invalid config: {field} ")
        assert not out.exists()

    @pytest.mark.parametrize("field, text", [
        ("tol", "NaN"),
        ("budget_per_round", "NaN"),
        ("lambda1", "Infinity"),
        ("ridge", "-Infinity"),
    ])
    def test_non_finite_value_is_an_error(self, tmp_path, dataset, capsys, field, text):
        # JSON parses NaN and Infinity as floats
        path = tmp_path / "plan.json"
        path.write_text(f'{{"data": {json.dumps(dataset)}, "{field}": {text}}}')
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        value = float(text.replace("Infinity", "inf"))
        assert capsys.readouterr().err == (
            f"error: invalid config: {field} must be finite, got {value!r}\n")
        assert not out.exists()

    def test_invalid_config_key(self, tmp_path, dataset, capsys):
        # the train share is a harness constant, not a plan field
        for key in ("no_such_knob", "train_fraction"):
            path = tmp_path / "plan.json"
            path.write_text(json.dumps({"data": dataset, key: 0.7}))
            assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) != 0
            assert capsys.readouterr().err.startswith("error: invalid config: ")
            assert not (tmp_path / "o").exists()


class TestSmallCommands:
    def test_bench_poss(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli_main(
            ["bench-poss", "--pool", "6", "--trials", "5", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert "agreement" in capsys.readouterr().out
        assert out.read_text().startswith("trial,poss_value,optimal_value,match")

    def test_bench_poss_pool_capped(self, capsys):
        assert cli_main(["bench-poss", "--pool", "30", "--trials", "1"]) != 0

    @pytest.mark.parametrize("args,message", [
        (["--trials", "0"], "--trials must be at least 1"),
        (["--pool", "0"], "--pool must be at least 1"),
    ], ids=["trials", "pool"])
    def test_bench_poss_bad_counts_rejected(self, capsys, args, message):
        assert cli_main(["bench-poss", *args]) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize("args,message", [
        (["bound", "--trials", "-1"], "--trials must be at least 1"),
        (["lemma3", "--trials", "0"], "--trials must be at least 1"),
        (["lemma3", "--max-dim", "0"], "--max-dim must be at least 1"),
    ], ids=["bound-trials", "lemma3-trials", "lemma3-max-dim"])
    def test_check_commands_bad_counts_rejected(self, capsys, args, message):
        # a run of no trials would report a pass after checking nothing
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: {message}" and captured.out == ""

    def test_bench_poss_reference_run_agrees(self, capsys):
        assert cli_main(["bench-poss", "--pool", "10", "--trials", "100", "--seed", "3"]) == 0
        line = capsys.readouterr().out.strip()
        rate = float(line.rsplit("=", 1)[1])
        assert rate >= 0.95

    def test_bound(self, capsys):
        code = cli_main(
            ["bound", "--n", "30", "--d", "15", "--rank", "2", "--observed", "0.6",
             "--trials", "2", "--seed", "1"]
        )
        assert code == 0
        assert "held in 2/2" in capsys.readouterr().out

    def test_lemma3(self, capsys):
        assert cli_main(["lemma3", "--trials", "50", "--seed", "2"]) == 0
        assert "0/50 violations" in capsys.readouterr().out

    def test_unknown_flag_nonzero(self, capsys):
        assert cli_main(["lemma3", "--no-such-flag"]) != 0

    def test_unknown_command_nonzero(self, capsys):
        assert cli_main(["frobnicate"]) != 0
