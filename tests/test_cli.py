import json

import numpy as np
import pytest

from activemc import harness
from activemc.cli import cli_main
from activemc.data_io import write_dataset
from activemc.errors import DivergenceError
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

    def test_flag_overrides_config(self, tmp_path, dataset):
        out = tmp_path / "runs"
        code = cli_main(
            [
                "simulate",
                "--config", self.config(tmp_path, dataset),
                "--out", str(out),
                "--rounds", "2",
                "--replicates", "1",
            ]
        )
        assert code == 0
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

    def test_invalid_config_key(self, tmp_path, dataset, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"data": dataset, "no_such_knob": 1}))
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) != 0
        assert "invalid config" in capsys.readouterr().err


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
