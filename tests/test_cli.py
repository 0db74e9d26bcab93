import json
import tracemalloc
# loaded by the first two-block fit; imported here so its ~1 MB of module
# state is not traced as part of a command
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np
import pytest

from activemc import cli, completion, harness
from activemc.cli import cli_main
from activemc.completion import CompletionConfig, fit
from activemc.data_io import load_dataset, load_matrix, write_dataset, write_matrix
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

    def test_traced_peak_of_a_two_block_fit(self, tmp_path):
        # the standardized truth, the observations and the fit's six working
        # matrices come to about 9x the matrix; the loaded features kept
        # through the fit, or a seventh working matrix, pass 10x
        x, y, _ = labeled_lowrank(1000, 80, 5, np.random.default_rng(0))
        assert x.size >= completion._SPLIT_CELLS
        path = tmp_path / "large.csv"
        write_dataset(path, x, y)
        tracemalloc.start()
        try:
            assert cli_main(["complete", "--data", str(path), "--label-col", "last",
                             "--positive-label", "1", "--seed", "7", "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the matrix"

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

    def test_delimiter_inside_numbers_fails_before_the_fit(self, tmp_path, dataset, capsys,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "o"
        assert cli_main(["complete", "--data", dataset, "--delimiter", ".", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dataset}: delimiter '.' cannot separate numbers; "
            "it ends a line or is part of one\n")
        assert calls == []
        assert not out.exists()

    def test_header_width_mismatch_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,c,d,target\n1,2,1\n3,4,0\n")
        out = tmp_path / "o"
        code = cli_main(["complete", "--data", str(data), "--has-header", "--label-col", "target",
                         "--positive-label", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {data}: header has 5 columns, data rows have 3\n"
        assert not out.exists()

    def test_out_under_a_file_fails_before_the_fit(self, tmp_path, dataset, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: calls.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "o"
        assert cli_main(["complete", "--data", dataset, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"
        assert calls == []

    def test_percent_delimiter(self, tmp_path):
        x, y, _ = labeled_lowrank(30, 5, 2, np.random.default_rng(0))
        data = tmp_path / "d.csv"
        write_dataset(data, x, y, delimiter="%")
        out = tmp_path / "o"
        args = ["complete", "--data", str(data), "--delimiter", "%", "--seed", "3"]
        assert cli_main(args + ["--out", str(out)]) == 0
        assert load_matrix(out / "recovered.csv", delimiter="%").shape == (30, 5)
        assert (out / "metrics.csv").exists()

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

    def test_window_of_one_is_an_error(self, tmp_path, dataset, capsys):
        out = tmp_path / "runs"
        code = cli_main(["simulate", "--config", self.config(tmp_path, dataset),
                         "--out", str(out), "--window", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: invalid config: window must be 0 (unbounded) or at least 2\n")
        assert not out.exists()

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
                raise DivergenceError("solver diverged: non-finite objective at inner step 7")
            return real_fit(obs, labels, cfg, warm_start=warm_start)

        monkeypatch.setattr(harness, "fit", fit)
        config = self.config(tmp_path, dataset)
        assert cli_main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: replicate 1, round 2: solver diverged: non-finite objective at inner step 7\n")

    def test_out_is_a_file_fails_before_the_replicates(self, tmp_path, dataset, capsys,
                                                        monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args: calls.append(args))
        out = tmp_path / "o"
        out.write_text("")
        config = self.config(tmp_path, dataset)
        assert cli_main(["simulate", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert calls == []

    @pytest.mark.parametrize("text, reason", [
        ('{"data": "d.csv", bad}',
         ": Expecting property name enclosed in double quotes: line 1 column 19 (char 18)"),
        ('["d.csv"]', ", not list"),
    ], ids=["malformed", "list"])
    def test_bad_config_file_is_named(self, tmp_path, capsys, text, reason):
        path = tmp_path / "plan.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config {path} must hold a JSON object{reason}\n")
        assert not out.exists()

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
    def test_unknown_flag_nonzero(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", "plan.json", "--out", str(out),
                         "--no-such-flag"]) != 0
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_nonzero(self, capsys):
        # bench-poss, bound and lemma3 are acceptance criteria 7, 9 and 10, not commands
        for command in ("frobnicate", "bench-poss", "bound", "lemma3"):
            assert cli_main([command]) == 2
            err = capsys.readouterr().err
            assert "invalid choice" in err and f"'{command}'" in err
