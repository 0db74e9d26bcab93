import dataclasses

import numpy as np
import pytest

from activemc import harness
from activemc.errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    DivergenceError,
    NumericError,
    StratificationError,
)
from activemc.harness import (
    ExperimentPlan,
    init_mask,
    make_split,
    observed_column_stats,
    reconstruction_errors,
    run_experiment,
)
from activemc.synthetic import labeled_lowrank, margin_labeled_lowrank


def small_dataset(seed=0, n=60, d=8, rank=2):
    rng = np.random.default_rng(seed)
    return labeled_lowrank(n, d, rank, rng)


class TestMakeSplit:
    def test_partition_sizes(self):
        x, y, _ = small_dataset(n=100)
        (x_train, y_train), (x_test, y_test) = make_split(x, y, seed=0)
        assert x_train.shape == (70, 8) and y_train.shape == (70,)
        assert x_test.shape == (30, 8) and y_test.shape == (30,)

    def test_deterministic(self):
        x, y, _ = small_dataset()
        a_train, a_test = make_split(x, y, seed=3)
        b_train, b_test = make_split(x, y, seed=3)
        for a, b in zip(a_train + a_test, b_train + b_test):
            np.testing.assert_array_equal(a, b)

    def test_both_sides_hold_both_classes(self):
        x, y, _ = small_dataset()
        for seed in range(5):
            (_, y_train), (_, y_test) = make_split(x, y, seed=seed)
            assert set(y_train) == set(y_test) == {-1, 1}

    def test_impossible_split_errors(self):
        x = np.zeros((2, 3))
        y = np.array([1, -1])
        with pytest.raises(StratificationError):
            make_split(x, y, seed=0)  # one-row train side is single-class

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            make_split(np.zeros((4, 2)), np.array([1, 1, 1, 1]), seed=0)

    def test_length_mismatch_rejected(self):
        x, y, _ = small_dataset()
        with pytest.raises(DimensionMismatchError, match="disagree in length"):
            make_split(x, y[:-1], seed=0)

    def test_labels_are_not_truncated(self):
        # an int cast would read +-1.5 as +-1 and split without complaint
        x, y, _ = small_dataset()
        with pytest.raises(ValueError, match=r"labels must take values in \{-1, \+1\}"):
            make_split(x, 1.5 * y, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_finite_feature_is_named_in_caller_coordinates(self, seed):
        # checked before the split, so the entry is a row of the caller's matrix
        x, y, _ = small_dataset()
        x[41, 3] = np.nan
        with pytest.raises(NumericError, match=r"^non-finite value for entry \(41, 3\)$"):
            make_split(x, y, seed=seed)


class TestInitMask:
    def test_full_rate(self):
        assert init_mask((3, 4), 1.0, seed=0).all()

    def test_exact_count(self):
        mask = init_mask((10, 10), 0.6, seed=1)
        assert int(mask.sum()) == 60

    def test_deterministic(self):
        np.testing.assert_array_equal(init_mask((7, 5), 0.4, seed=2), init_mask((7, 5), 0.4, seed=2))

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            init_mask((3, 3), 0.0, seed=0)


class TestReconstructionErrors:
    def test_exact_recovery(self):
        x = np.arange(6.0).reshape(2, 3)
        assert reconstruction_errors(x, x) == (0.0, 0.0)

    def test_zero_estimate(self):
        x = np.full((2, 2), 3.0)
        rel, _ = reconstruction_errors(np.zeros((2, 2)), x)
        assert rel == 1.0

    def test_mean_square(self):
        x = np.zeros((2, 2))
        _, msq = reconstruction_errors(np.eye(2), x + 0.0)
        assert msq == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            reconstruction_errors(np.zeros((2, 2)), np.zeros((3, 2)))


class TestObservedColumnStats:
    def test_uses_only_observed_cells(self):
        values = np.array([[1.0, 10.0], [3.0, 20.0], [5.0, 99.0]])
        mask = np.array([[True, True], [True, True], [True, False]])
        means, stds = observed_column_stats(values, mask)
        assert means[0] == pytest.approx(3.0)
        assert means[1] == pytest.approx(15.0)

    def test_constant_column_gets_unit_std(self):
        values = np.array([[2.0], [2.0]])
        mask = np.ones((2, 1), bool)
        _, stds = observed_column_stats(values, mask)
        assert stds[0] == 1.0


class TestPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"observed_rate": 0.0},
            {"observed_rate": 1.5},
            {"strategy": "oracle"},
            {"cost_scheme": "gaussian"},
            {"rounds": 0},
            {"batch_size": 0},
            {"replicates": 0},
            {"window": -1},
            {"poss_pool": 0},
            {"poss_pool": -5},
            {"poss_iterations": 0},
            {"poss_iterations": -1},
            {"lambda1": -1.0},
            {"max_inner": 0},
            {"tol": 0.0},
            {"ridge": -1.0},
            {"budget_per_round": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentPlan(**kwargs)

    @pytest.mark.parametrize("window", [-1, 1])
    def test_window_below_two_rejected(self, window):
        # one snapshot never gives variance scores: every round would pick at random
        with pytest.raises(ValueError, match=r"^window must be 0 \(unbounded\) or at least 2$"):
            ExperimentPlan(window=window)
        assert ExperimentPlan(window=2).window == 2

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentPlan)
                                      if f.type == "float"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, name, value):
        # a NaN budget buys nothing, so every replicate would end after round 1
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            ExperimentPlan(**{name: value})


class TestRunExperiment:
    def plan(self, **kwargs):
        defaults = dict(
            strategy="random",
            batch_size=5,
            rounds=3,
            replicates=2,
            observed_rate=0.6,
            standardize=False,
            seed=0,
            max_inner=80,
        )
        defaults.update(kwargs)
        return ExperimentPlan(**defaults)

    def test_labels_are_not_truncated(self):
        x, y, _ = small_dataset()
        with pytest.raises(ValueError, match=r"labels must take values in \{-1, \+1\}"):
            run_experiment(self.plan(rounds=2, replicates=1), x, 1.5 * y)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_non_finite_feature_fails_loudly(self, seed):
        # not a NaN metric, a NaN test row scored as -1, or a train-split entry
        x, y, _ = small_dataset()
        x[0, 0] = np.nan
        with pytest.raises(NumericError, match=r"^non-finite value for entry \(0, 0\)$"):
            run_experiment(self.plan(replicates=1, seed=seed), x, y)

    def test_single_round_random(self):
        x, y, _ = small_dataset()
        result = run_experiment(self.plan(rounds=1, replicates=1), x, y)
        assert len(result.replicates) == 1
        assert len(result.replicates[0]) == 1
        rec = result.replicates[0][0]
        assert rec.cumulative_cost == 0.0 and rec.queried_entries == 0

    @pytest.mark.parametrize("strategy", harness.STRATEGIES)
    def test_queries_grow_mask_without_repeats(self, strategy):
        x, y, _ = small_dataset()
        plan = self.plan(strategy=strategy, cost_scheme="random", rounds=4, replicates=1)
        result = run_experiment(plan, x, y)
        flat = [e for batch in result.queries[0] for e in batch]
        assert flat and len(flat) == len(set(flat))
        assert all(type(row) is int and type(col) is int for row, col in flat)
        records = result.replicates[0]
        # poss buys what fits the round budget, not a fixed count
        if strategy != "poss":
            assert all(
                b.queried_entries - a.queried_entries == 5
                for a, b in zip(records, records[1:])
            )

    def test_cumulative_cost_matches_column_prices(self):
        x, y, _ = small_dataset()
        plan = self.plan(strategy="cost_ratio", cost_scheme="random", rounds=3, replicates=1)
        result = run_experiment(plan, x, y)
        # rebuild the replicate's cost vector from its seeded stream
        from activemc.harness import _replicate_streams

        _, _, cost_ss, _ = _replicate_streams(plan.seed, 0)
        costs = np.random.default_rng(cost_ss).integers(1, 11, size=x.shape[1]).astype(float)
        expected = 0.0
        records = result.replicates[0]
        for rec, batch in zip(records[1:], result.queries[0]):
            expected += sum(costs[j] for _, j in batch)
            assert rec.cumulative_cost == pytest.approx(expected)

    def test_replicate_determinism(self):
        x, y, _ = small_dataset()
        a = run_experiment(self.plan(strategy="variance"), x, y)
        b = run_experiment(self.plan(strategy="variance"), x, y)
        assert a.replicates == b.replicates
        assert a.queries == b.queries

    def test_uniform_costs_make_cost_ratio_equal_variance(self):
        x, y, _ = small_dataset()
        a = run_experiment(self.plan(strategy="variance", rounds=4, replicates=1), x, y)
        b = run_experiment(self.plan(strategy="cost_ratio", rounds=4, replicates=1), x, y)
        assert a.queries == b.queries

    def test_pool_exhaustion_stops_early(self):
        x, y, _ = small_dataset(n=20, d=4)
        plan = self.plan(batch_size=40, rounds=8, replicates=1, observed_rate=0.9)
        result = run_experiment(plan, x, y)
        records = result.replicates[0]
        assert len(records) < 8
        for rec in records:
            assert np.isfinite(
                [rec.recon_rel, rec.recon_msq, rec.test_accuracy, rec.test_auc]
            ).all()

    def test_poss_strategy_respects_budget(self):
        x, y, _ = small_dataset()
        plan = self.plan(
            strategy="poss",
            cost_scheme="random",
            budget_per_round=8.0,
            rounds=3,
            replicates=1,
            poss_iterations=400,
        )
        result = run_experiment(plan, x, y)
        from activemc.harness import _replicate_streams

        _, _, cost_ss, _ = _replicate_streams(plan.seed, 0)
        costs = np.random.default_rng(cost_ss).integers(1, 11, size=x.shape[1]).astype(float)
        for batch in result.queries[0]:
            assert sum(costs[j] for _, j in batch) <= 8.0 + 1e-12

    def test_poss_pool_holds_only_affordable_entries(self):
        # each replicate has a column priced within the budget, so every round
        # can buy something even when the top-scored entries are all too dear
        x, y, _ = small_dataset()
        plan = self.plan(strategy="poss", cost_scheme="random", budget_per_round=3.0,
                         poss_pool=3, poss_iterations=100, rounds=6)
        result = run_experiment(plan, x, y)
        from activemc.harness import _replicate_streams

        for replicate, (records, batches) in enumerate(zip(result.replicates, result.queries)):
            _, _, cost_ss, _ = _replicate_streams(plan.seed, replicate)
            costs = np.random.default_rng(cost_ss).integers(1, 11, size=x.shape[1])
            assert len(records) == 6 and len(batches) == 6
            assert all(batch and sum(costs[j] for _, j in batch) <= 3 for batch in batches)

    def test_oracle_fidelity_through_queries(self):
        # with the penalties off, buying everything must drive the recovery
        # to the exact matrix, which requires every answered query be exact
        x, y, _ = small_dataset(n=20, d=4)
        plan = self.plan(
            strategy="random",
            batch_size=30,
            rounds=10,
            replicates=1,
            observed_rate=0.5,
            lambda1=1e-3,
            lambda2=0.0,
        )
        result = run_experiment(plan, x, y)
        assert result.replicates[0][-1].recon_rel < 0.01

    def test_more_observations_reduce_error(self):
        rng = np.random.default_rng(5)
        x, y, _ = margin_labeled_lowrank(80, 10, 2, rng)
        lo = run_experiment(self.plan(rounds=1, replicates=4, observed_rate=0.6), x, y)
        hi = run_experiment(self.plan(rounds=1, replicates=4, observed_rate=0.8), x, y)
        lo_err = np.mean([r[0].recon_rel for r in lo.replicates])
        hi_err = np.mean([r[0].recon_rel for r in hi.replicates])
        assert hi_err < lo_err

    def test_mean_series_averages_replicates(self):
        x, y, _ = small_dataset()
        result = run_experiment(self.plan(replicates=3), x, y)
        manual = np.mean([rep[0].test_accuracy for rep in result.replicates])
        assert result.mean[0].test_accuracy == pytest.approx(manual)

    def test_mean_series_keeps_rounds_of_longer_replicates(self):
        # budget 1 under random costs: replicates without a cost-1 column
        # can buy nothing and stop after their first round
        x, y, _ = margin_labeled_lowrank(60, 10, 3, np.random.default_rng(0))
        plan = ExperimentPlan(strategy="poss", budget_per_round=1.0, cost_scheme="random",
                              replicates=3, rounds=6, poss_iterations=300, max_inner=60)
        result = run_experiment(plan, x, y)
        depths = [len(rep) for rep in result.replicates]
        assert depths == [6, 1, 1]
        assert [rec.round for rec in result.mean] == [1, 2, 3, 4, 5, 6]
        first = np.mean([rep[0].recon_rel for rep in result.replicates])
        assert result.mean[0].recon_rel == pytest.approx(first)
        assert result.mean[1:] == result.replicates[0][1:]

    def test_divergence_names_replicate_and_round(self, monkeypatch):
        x, y, _ = small_dataset()
        real_fit = harness.fit
        calls = []

        def fit(obs, labels, cfg, warm_start=None):
            calls.append(None)
            if len(calls) == 5:  # replicate 0 fits rounds 1-3, then replicate 1
                raise DivergenceError("solver diverged: non-finite objective at inner step 7")
            return real_fit(obs, labels, cfg, warm_start=warm_start)

        monkeypatch.setattr(harness, "fit", fit)
        with pytest.raises(DivergenceError) as info:
            run_experiment(self.plan(rounds=3, replicates=2), x, y)
        assert str(info.value) == (
            "replicate 1, round 2: solver diverged: non-finite objective at inner step 7")

    def test_record_fields_are_complete(self):
        x, y, _ = small_dataset()
        result = run_experiment(self.plan(replicates=1), x, y)
        rec = result.replicates[0][0]
        assert set(f.name for f in dataclasses.fields(rec)) == {
            "round",
            "cumulative_cost",
            "queried_entries",
            "recon_rel",
            "recon_msq",
            "train_objective",
            "test_accuracy",
            "test_auc",
        }
