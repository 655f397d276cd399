"""Local surrogate pipeline: sampling, weighting, fitting, explaining."""
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import limase.pipeline
import limase.stripes
from limase.core import (
    BlackBoxModel,
    ConfigError,
    DataError,
    LimaseError,
    ModelOutput,
    ModelOutputError,
    RandomStream,
    Task,
    child_seed,
    compute_feature_meta,
)
from limase.external import attach_external
from limase.kernel import kernel_shap
from limase.models import TreeModel, fit_mlp, fit_random_forest
from limase.pipeline import (
    LimaseConfig,
    explain_rows,
    kernel_weights,
    limase_explain,
    limase_explain_batch,
    sample_around,
    sigma_sweep,
)
from limase.shapley import tree_conditional_value
from limase.trees import TreeParams, fit_tree, predict_batch

from conftest import make_classification_dataset, make_regression_dataset, no_child_processes

STUMP_SERVER = [sys.executable, str(Path(__file__).parent / "fixtures" / "server_stump.py")]


class ConstantModel(BlackBoxModel):
    def __init__(self, c, d):
        self.c, self.d, self.task = float(c), d, Task.regression()

    def predict(self, X):
        return ModelOutput(np.full((np.atleast_2d(X).shape[0], 1), self.c))


class QuadraticModel(BlackBoxModel):
    def __init__(self, d):
        self.d, self.task = d, Task.regression()

    def predict(self, X):
        X = np.atleast_2d(X)
        return ModelOutput(np.sum(X * X, axis=1)[:, None])


class FlakyModel(BlackBoxModel):
    """Raises `error` once the batch contains a row with |feature 0| > threshold."""

    def __init__(self, d, threshold=50.0, error=RuntimeError):
        self.d, self.task = d, Task.regression()
        self.threshold = threshold
        self.error = error

    def predict(self, X):
        X = np.atleast_2d(X)
        if np.abs(X[:, 0]).max() > self.threshold:
            raise self.error("upstream service rejected the batch")
        return ModelOutput(X[:, :1])


class NanModel(BlackBoxModel):
    """Returns NaN for every row once the batch holds a row with feature 0 > threshold."""

    def __init__(self, d, threshold=50.0):
        self.d, self.task = d, Task.regression()
        self.threshold = threshold

    def predict(self, X):
        X = np.atleast_2d(X)
        out = X[:, :1].copy()
        if X[:, 0].max() > self.threshold:
            out[:] = np.nan
        return ModelOutput(out)


class LoudModel(BlackBoxModel):
    """Two-class scores whose rows sum to 1.4 once a row has feature 0 > threshold."""

    def __init__(self, d, threshold=50.0):
        self.d, self.task = d, Task.classification(2)
        self.threshold = threshold

    def predict(self, X):
        X = np.atleast_2d(X)
        p = 1.0 / (1.0 + np.exp(-X[:, 0]))
        out = np.column_stack([p, 1.0 - p])
        if X[:, 0].max() > self.threshold:
            out[:] = 0.7
        return ModelOutput(out)


class ShortModel(BlackBoxModel):
    """Drops the last row of every batch."""

    def __init__(self, d):
        self.d, self.task = d, Task.regression()

    def predict(self, X):
        return ModelOutput(np.atleast_2d(X)[:-1, :1])


class TwoPartError(Exception):
    """An exception that its own pickle cannot rebuild: __init__ wants two arguments."""

    def __init__(self, code, text):
        super().__init__(f"{code}: {text}")


class TwoPartLimaseError(LimaseError):
    """A LimaseError that its own pickle cannot rebuild: __init__ wants two arguments."""

    def __init__(self, code, text):
        super().__init__(f"{code}: {text}")


class CountingModel(BlackBoxModel):
    """Wraps a model and records the batch of each predict call."""

    def __init__(self, inner):
        self.inner, self.d, self.task = inner, inner.d, inner.task
        self.batches = []

    @property
    def calls(self):
        return len(self.batches)

    def predict(self, X):
        self.batches.append(np.array(X, dtype=float))
        return self.inner.predict(X)


def meta_for(rows):
    return compute_feature_meta(rows, [f"f{j}" for j in range(rows.shape[1])])


def stump_model():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 4.0, 4.0])
    stump = fit_tree(X, y, np.ones(4), TreeParams(max_depth=1, min_samples_leaf=1))
    return TreeModel(stump), stump


class TestConfig:
    def test_defaults(self):
        cfg = LimaseConfig()
        assert cfg.n_samples == 1000
        assert cfg.sigma == 5.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            LimaseConfig(n_samples=9)
        with pytest.raises(ConfigError):
            LimaseConfig(sigma=0.0)
        for sigma in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="sigma must be positive and finite"):
                LimaseConfig(sigma=sigma)


class TestSampleAround:
    def test_zero_samples(self):
        meta = meta_for(RandomStream(0).normal_matrix(10, 3))
        out = sample_around(np.zeros(3), meta, 0, RandomStream(1))
        assert out.shape == (0, 3)

    def test_constant_features_stay_put(self):
        rows = np.tile(np.array([2.0, 7.0]), (5, 1))
        meta = meta_for(rows)
        out = sample_around(np.array([2.0, 7.0]), meta, 50, RandomStream(1))
        assert np.all(out == np.array([2.0, 7.0]))

    def test_statistics_match_feature_spread(self):
        rng = RandomStream(3)
        rows = rng.normal_matrix(1000, 3) * np.array([1.0, 4.0, 0.25])
        meta = meta_for(rows)
        x = rows[0]
        sample = sample_around(x, meta, 100_000, RandomStream(4))
        for j, f in enumerate(meta):
            assert abs(sample[:, j].mean() - x[j]) <= 0.02 * f.std
            assert abs(sample[:, j].std() - f.std) <= 0.03 * f.std

    def test_deterministic(self):
        meta = meta_for(RandomStream(5).normal_matrix(20, 2))
        a = sample_around(np.zeros(2), meta, 100, RandomStream(9))
        b = sample_around(np.zeros(2), meta, 100, RandomStream(9))
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        meta = meta_for(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sample_around(np.zeros(3), meta, 10, RandomStream(0))


class TestKernelWeight:
    def test_weight_at_anchor_is_one(self):
        meta = meta_for(RandomStream(0).normal_matrix(30, 2))
        x = np.array([0.3, -0.7])
        for sigma in (0.01, 1.0, 5.0, 1e6):
            assert kernel_weights(x, x[None, :], sigma, meta)[0] == 1.0

    def test_distance_sigma_gives_inverse_e(self):
        rows = RandomStream(1).normal_matrix(100, 1)
        meta = meta_for(rows)
        x = np.zeros(1)
        sigma = 2.0
        z = np.array([[sigma * meta[0].std]])  # standardized distance = sigma
        assert kernel_weights(x, z, sigma, meta)[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_huge_sigma_uniform_weights(self):
        rows = RandomStream(2).normal_matrix(100, 3)
        meta = meta_for(rows)
        w = kernel_weights(rows[0], rows, 1e9, meta)
        assert np.all(w >= 1 - 1e-9)

    def test_strictly_decreasing_in_distance(self):
        rows = RandomStream(3).normal_matrix(50, 1)
        meta = meta_for(rows)
        x = np.zeros(1)
        distances = np.linspace(0.1, 5.0, 20)[:, None] * meta[0].std
        w = kernel_weights(x, distances, 2.0, meta)
        assert np.all(np.diff(w) < 0)

    def test_constant_feature_ignored_in_distance(self):
        rows = np.column_stack([RandomStream(4).normal(30), np.full(30, 3.0)])
        meta = meta_for(rows)
        x = rows[0]
        z = x.copy()
        z[1] = 99.0  # constant feature differs, distance must not see it
        assert kernel_weights(x, z[None, :], 1.0, meta)[0] == 1.0


class TestLimaseExplain:
    def test_constant_model_degenerate(self):
        meta = meta_for(RandomStream(0).normal_matrix(50, 3))
        result = limase_explain(ConstantModel(2.5, 3), np.zeros(3), meta,
                                LimaseConfig(n_samples=100, seed=1))
        assert result.degenerate
        assert result.fidelity_r2 is None
        assert result.surrogate.n_leaves == 1
        assert np.all(result.explanation.phi == 0.0)
        assert result.explanation.base_value == 2.5

    def test_stump_recovery(self):
        model, stump = stump_model()
        rows = np.linspace(0.0, 3.0, 50)[:, None]
        meta = meta_for(rows)
        x = np.array([2.0])
        result = limase_explain(model, x, meta, LimaseConfig(n_samples=2000, seed=7))
        assert result.fidelity_r2 >= 0.95
        assert not result.degenerate
        # single feature: all attribution on feature 0 by construction
        assert abs(result.explanation.phi[0]) > 0

    def test_stump_recovery_multifeature(self):
        # f depends only on feature 0 of 3; top |phi| must be feature 0
        X = np.column_stack([np.linspace(0, 3, 60),
                             RandomStream(8).normal(60),
                             RandomStream(9).normal(60)])
        y = np.where(X[:, 0] <= 1.5, 0.0, 4.0)
        stump = fit_tree(X, y, np.ones(60), TreeParams(max_depth=1, min_samples_leaf=1))
        model = TreeModel(stump)
        meta = meta_for(X)
        result = limase_explain(model, X[40], meta, LimaseConfig(n_samples=2000, seed=3))
        assert result.fidelity_r2 >= 0.95
        assert int(np.argmax(np.abs(result.explanation.phi))) == 0

    def test_efficiency_against_surrogate(self, reg_data):
        model = fit_random_forest(reg_data, 5, TreeParams(max_depth=4), RandomStream(0))
        result = limase_explain(model, reg_data.rows[0], reg_data.features,
                                LimaseConfig(n_samples=300, seed=2))
        gx = tree_conditional_value(result.surrogate, reg_data.rows[0], (1 << reg_data.d) - 1)
        gap = result.explanation.base_value + result.explanation.phi.sum() - gx
        assert abs(gap) <= 1e-9 * max(1.0, abs(gx))
        assert result.explanation.fx == pytest.approx(gx)

    def test_missingness_inheritance(self, reg_data):
        model = fit_random_forest(reg_data, 5, TreeParams(max_depth=4), RandomStream(0))
        result = limase_explain(model, reg_data.rows[1], reg_data.features,
                                LimaseConfig(n_samples=200, seed=4))
        used = set(result.surrogate.feature.tolist())  # leaves add LEAF, no feature
        for j in range(reg_data.d):
            if j not in used:
                assert result.explanation.phi[j] == 0.0

    def test_constant_feature_neutrality(self):
        rows = np.column_stack([RandomStream(10).normal(80),
                                np.full(80, 1.5),
                                RandomStream(11).normal(80)])
        meta = meta_for(rows)

        class SumModel(BlackBoxModel):
            d, task = 3, Task.regression()

            def predict(self, X):
                return ModelOutput(np.atleast_2d(X).sum(axis=1)[:, None])

        result = limase_explain(SumModel(), rows[0], meta,
                                LimaseConfig(n_samples=500, seed=5))
        assert result.explanation.phi[1] == 0.0

    def test_determinism(self, reg_data):
        model = fit_random_forest(reg_data, 5, TreeParams(max_depth=4), RandomStream(0))
        cfg = LimaseConfig(n_samples=300, seed=42)
        a = limase_explain(model, reg_data.rows[2], reg_data.features, cfg)
        b = limase_explain(model, reg_data.rows[2], reg_data.features, cfg)
        assert np.array_equal(a.explanation.phi, b.explanation.phi)
        assert a.explanation.base_value == b.explanation.base_value
        assert a.fidelity_r2 == b.fidelity_r2

    def test_perturbation_set_invariants(self, reg_data):
        forest = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        model = CountingModel(forest)
        x, cfg = reg_data.rows[0], LimaseConfig(n_samples=150, seed=6)
        result = limase_explain(model, x, reg_data.features, cfg)
        [rows] = model.batches
        assert rows.shape == (151, reg_data.d)  # anchor + N, in one call
        assert np.array_equal(rows[0], x)
        assert np.array_equal(rows[1:], sample_around(x, reg_data.features, 150,
                                                      RandomStream(6)))
        assert np.all(np.isfinite(rows))
        targets = forest.predict_scalar(rows)
        assert targets.shape == (151,)
        W = kernel_weights(x, rows, cfg.sigma, reg_data.features)
        assert W.shape == (151,)
        assert W[0] == 1.0  # the anchor
        assert np.all((W > 0) & (W <= 1))
        # the surrogate is fit to exactly these rows, targets and weights
        refit = fit_tree(rows, targets, W, cfg.tree_params)
        assert np.array_equal(refit.value, result.surrogate.value)
        residual = predict_batch(refit, rows) - targets
        centered = targets - np.dot(W, targets) / W.sum()
        fidelity = 1.0 - np.dot(W, residual**2) / np.dot(W, centered**2)
        assert result.fidelity_r2 == pytest.approx(fidelity, rel=1e-12)

    def test_classification_explains_class_probability(self, cls_data):
        model = fit_random_forest(cls_data, 8, TreeParams(max_depth=4), RandomStream(1))
        x = cls_data.rows[0]
        result = limase_explain(model, x, cls_data.features,
                                LimaseConfig(n_samples=200, seed=7, class_index=2))
        assert result.explanation.class_index == 2
        default = limase_explain(model, x, cls_data.features,
                                 LimaseConfig(n_samples=200, seed=7))
        assert default.explanation.class_index == np.argmax(model.predict(x[None, :]).values[0])

    def test_classification_row_calls_the_model_once(self, cls_data, monkeypatch):
        forest = fit_random_forest(cls_data, 4, TreeParams(max_depth=3), RandomStream(1))
        monkeypatch.setattr(limase.stripes, "_fork_workers", lambda items: 1)  # count every call
        model = CountingModel(forest)
        cfg = LimaseConfig(n_samples=50, seed=0)
        x = cls_data.rows[0]
        result = limase_explain(model, x, cls_data.features, cfg)
        assert model.calls == 1
        assert result.explanation.class_index == np.argmax(forest.predict(x[None, :]).values[0])
        limase_explain_batch(model, cls_data.rows[:3], cls_data.features, cfg)
        assert model.calls == 4

    def test_bad_class_index_rejected_before_scoring(self, cls_data, reg_data):
        forest = fit_random_forest(cls_data, 3, TreeParams(max_depth=3), RandomStream(1))
        regressor = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(1))
        for inner, data, class_index in ((forest, cls_data, 7), (forest, cls_data, -1),
                                         (regressor, reg_data, 0)):
            model = CountingModel(inner)
            cfg = LimaseConfig(n_samples=50, seed=0, class_index=class_index)
            with pytest.raises(ConfigError, match="class_index"):
                limase_explain(model, data.rows[0], data.features, cfg)
            with pytest.raises(ConfigError, match="class_index"):
                limase_explain_batch(model, data.rows[:3], data.features, cfg)
            assert model.calls == 0

    def test_negative_seed_rejected_before_scoring(self, reg_data):
        model = CountingModel(fit_random_forest(reg_data, 3, TreeParams(max_depth=3),
                                                RandomStream(1)))
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            limase_explain(model, reg_data.rows[0], reg_data.features, LimaseConfig(seed=-1))
        assert model.calls == 0

    def test_prediction_failure_wrapped_with_context(self):
        rows = RandomStream(12).normal_matrix(40, 2)
        meta = meta_for(rows)
        x = np.array([1000.0, 0.0])  # anchor trips the model
        with pytest.raises(LimaseError, match="black-box prediction failed"):
            limase_explain(FlakyModel(2), x, meta, LimaseConfig(n_samples=50, seed=0))

    def test_nan_scores_raise_typed_error(self):
        rows = RandomStream(12).normal_matrix(40, 2)
        meta = meta_for(rows)
        with pytest.raises(ModelOutputError, match="non-finite"):
            limase_explain(NanModel(2), np.array([1000.0, 0.0]), meta,
                           LimaseConfig(n_samples=50, seed=0))

    def test_wrong_score_count_raises_typed_error(self):
        rows = RandomStream(12).normal_matrix(40, 2)
        with pytest.raises(ModelOutputError, match=r"shape \(50,\)"):
            limase_explain(ShortModel(2), rows[0], meta_for(rows),
                           LimaseConfig(n_samples=50, seed=0))

    def test_model_dimension_mismatch(self):
        meta = meta_for(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            limase_explain(ConstantModel(0.0, 3), np.zeros(2), meta, LimaseConfig())

    def test_result_json_record(self, reg_data):
        model = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        result = limase_explain(model, reg_data.rows[0], reg_data.features,
                                LimaseConfig(n_samples=100, seed=0))
        record = result.to_json_dict(reg_data.feature_names)
        for key in ("explainer", "base_value", "fx", "phi", "fidelity_r2",
                    "sigma", "n_samples", "degenerate", "surrogate_depth"):
            assert key in record
        assert record["explainer"] == "limase"
        assert record["sigma"] == 5.0
        assert record["n_samples"] == 100


class TestBatch:
    def test_batch_of_one_matches_single_with_derived_seed(self, reg_data):
        model = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        cfg = LimaseConfig(n_samples=100, seed=11)
        batch = limase_explain_batch(model, reg_data.rows[:1], reg_data.features, cfg)
        assert len(batch) == 1
        single = limase_explain(model, reg_data.rows[0], reg_data.features,
                                replace(cfg, seed=child_seed(cfg.seed, 0)))
        assert np.array_equal(batch[0].explanation.phi, single.explanation.phi)
        assert batch[0].explanation.base_value == single.explanation.base_value

    def test_batch_determinism(self, reg_data):
        model = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        cfg = LimaseConfig(n_samples=100, seed=11)
        a = limase_explain_batch(model, reg_data.rows[:5], reg_data.features, cfg)
        b = limase_explain_batch(model, reg_data.rows[:5], reg_data.features, cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.explanation.phi, rb.explanation.phi)

    @staticmethod
    def _row_threads(monkeypatch) -> list:
        """Patch limase_explain to record the thread each row runs on."""
        inner, seen = limase.pipeline.limase_explain, []

        def recording(*a, **kw):
            seen.append(threading.current_thread())
            return inner(*a, **kw)

        monkeypatch.setattr(limase.pipeline, "limase_explain", recording)
        return seen

    def test_external_rows_run_on_pool_and_match_single_rows(self, monkeypatch):
        X = 1.5 + RandomStream(15).normal_matrix(40, 1)
        meta = meta_for(X)
        cfg = LimaseConfig(n_samples=100, seed=21)
        with attach_external(STUMP_SERVER, d=1, task="regression") as model:
            seen = self._row_threads(monkeypatch)
            batch = limase_explain_batch(model, X[:6], meta, cfg)
            assert len(seen) == 6
            assert threading.main_thread() not in seen
            monkeypatch.undo()
            for i, result in enumerate(batch):
                single = limase_explain(model, X[i], meta,
                                        replace(cfg, seed=child_seed(cfg.seed, i)))
                assert np.array_equal(result.explanation.phi, single.explanation.phi)
                assert result.explanation.base_value == single.explanation.base_value
                assert result.explanation.fx == single.explanation.fx
                assert result.fidelity_r2 == single.fidelity_r2

    def test_in_process_rows_run_in_caller_thread(self, reg_data, monkeypatch):
        model = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        seen = self._row_threads(monkeypatch)
        limase_explain_batch(model, reg_data.rows[:3], reg_data.features,
                             LimaseConfig(n_samples=50, seed=1))
        assert seen == [threading.current_thread()] * 3

    def test_row_failure_collected_not_raised(self):
        rows = RandomStream(13).normal_matrix(30, 2)
        meta = meta_for(rows)
        X = np.vstack([rows[0], [1000.0, 0.0], rows[1]])
        out = limase_explain_batch(FlakyModel(2), X, meta,
                                   LimaseConfig(n_samples=50, seed=0))
        assert len(out) == 3
        assert not isinstance(out[0], LimaseError)
        assert isinstance(out[1], LimaseError)
        assert not isinstance(out[2], LimaseError)

    def test_value_error_from_model_fails_only_its_row(self):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[0], [1000.0, 0.0]])
        out = limase_explain_batch(FlakyModel(2, error=ValueError), X, meta_for(rows),
                                   LimaseConfig(n_samples=50, seed=0))
        assert not isinstance(out[0], LimaseError)
        assert abs(out[0].explanation.efficiency_gap()) <= 1e-9
        assert isinstance(out[1], LimaseError)

    def test_nan_row_isolated_from_batch(self):
        rows = RandomStream(13).normal_matrix(30, 2)
        meta = meta_for(rows)
        X = np.vstack([rows[0], [1000.0, 0.0], rows[1]])
        out = limase_explain_batch(NanModel(2), X, meta, LimaseConfig(n_samples=50, seed=0))
        assert len(out) == 3
        assert isinstance(out[1], ModelOutputError)
        for result in (out[0], out[2]):
            assert not isinstance(result, LimaseError)
            assert abs(result.explanation.efficiency_gap()) <= 1e-9

    def test_non_finite_instance_isolated_from_batch(self):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[0], [np.nan, 0.0], rows[1]])
        out = limase_explain_batch(QuadraticModel(2), X, meta_for(rows),
                                   LimaseConfig(n_samples=50, seed=0))
        assert isinstance(out[1], DataError)
        assert "non-finite" in str(out[1])
        for result in (out[0], out[2]):
            assert not isinstance(result, LimaseError)
            assert abs(result.explanation.efficiency_gap()) <= 1e-9

    def test_probability_rows_checked_per_row(self):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[0], [1000.0, 0.0], rows[1]])
        out = limase_explain_batch(LoudModel(2), X, meta_for(rows),
                                   LimaseConfig(n_samples=50, seed=0))
        assert isinstance(out[1], ModelOutputError)
        assert "sum to 1" in str(out[1])
        for result in (out[0], out[2]):
            assert not isinstance(result, LimaseError)
            assert abs(result.explanation.efficiency_gap()) <= 1e-9

    def test_rows_use_distinct_seeds(self, reg_data):
        # identical instances in one batch still get different perturbations
        model = CountingModel(
            fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0)))
        X = np.vstack([reg_data.rows[0], reg_data.rows[0]])
        limase_explain_batch(model, X, reg_data.features, LimaseConfig(n_samples=100, seed=3))
        first, second = model.batches
        assert first.shape == second.shape == (101, reg_data.d)
        assert np.array_equal(first[0], X[0]) and np.array_equal(second[0], X[0])
        assert not np.array_equal(first[1:], second[1:])


class TestExplainRows:
    """The row runner over kernelshap rows: failures stay in place or name the dataset row."""

    @staticmethod
    def _kernel_rows(model, background):
        def explain(i, x):
            return kernel_shap(model, x, background, 64, RandomStream(child_seed(3, i)))

        return explain

    def test_failed_kernel_row_held_in_place(self):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[0], [1000.0, 0.0], rows[1]])
        explain = self._kernel_rows(FlakyModel(2), rows[2:7])
        out = explain_rows(FlakyModel(2), X, explain)
        assert type(out[1]) is LimaseError
        assert "black-box prediction failed" in str(out[1])
        assert isinstance(out[1].__cause__, RuntimeError)
        for i in (0, 2):
            assert out[i].phi.tobytes() == explain(i, X[i]).phi.tobytes()

    def test_first_failed_kernel_row_names_dataset_row(self):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[0], [1000.0, 0.0], rows[1], [-1000.0, 0.0]])
        explain = self._kernel_rows(FlakyModel(2), rows[4:9])
        with pytest.raises(LimaseError, match="dataset row 11: black-box") as caught:
            explain_rows(FlakyModel(2), X, explain, [4, 11, 20, 25])
        assert type(caught.value) is LimaseError
        cause = caught.value.__cause__
        assert type(cause) is LimaseError and isinstance(cause.__cause__, RuntimeError)


def _chain(error):
    """(type, message) of error and each link of its __cause__ chain."""
    out = []
    while error is not None:
        out.append((type(error), str(error)))
        error = error.__cause__
    return out


MIN_SAVING_S = limase.stripes._MIN_SAVING_S


class TestForkedBatch:
    """In-process batches whose rows run in forked workers as well as the caller.

    The rows here are fast, so each test forks rows that would save no
    time unless it restores the real MIN_SAVING_S.
    """

    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        if sys.platform != "linux":
            pytest.skip("rows are forked only on Linux")
        if limase.stripes._usable_cpus() < 2:
            pytest.skip("needs two usable CPUs")
        monkeypatch.setattr(limase.stripes, "_BLAS_THREADS", 1)
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", 0.0)

    @staticmethod
    def _serial(monkeypatch, model, X, meta, cfg):
        with monkeypatch.context() as m:
            m.setattr(limase.stripes, "_fork_workers", lambda rows: 1)
            return limase_explain_batch(model, X, meta, cfg)

    @staticmethod
    def _tag_pids(monkeypatch) -> list:
        """Patch limase_explain to tag each result with its pid; return the caller's pids."""
        inner, seen = limase.pipeline.limase_explain, []

        def tagging(*a, **kw):
            seen.append(os.getpid())
            result = inner(*a, **kw)
            result.pid = os.getpid()
            return result

        monkeypatch.setattr(limase.pipeline, "limase_explain", tagging)
        return seen

    def test_results_equal_serial_rows_and_ran_elsewhere(self, reg_data, cls_data,
                                                          monkeypatch):
        mlp = fit_mlp(reg_data, [16, 16], 3, 0.05, RandomStream(4))
        forest = fit_random_forest(cls_data, 5, TreeParams(max_depth=4), RandomStream(5))
        for model, data in ((mlp, reg_data), (forest, cls_data)):
            cfg = LimaseConfig(n_samples=200, seed=9)
            with monkeypatch.context() as m:
                seen = self._tag_pids(m)
                batch = limase_explain_batch(model, data.rows[:8], data.features, cfg)
            assert len(batch) == 8
            assert len(seen) < 8  # the caller explained only its own stripe
            pids = {r.pid for r in batch}
            assert os.getpid() in pids and len(pids) > 1
            for i, result in enumerate(batch):
                single = limase_explain(model, data.rows[i], data.features,
                                        replace(cfg, seed=child_seed(cfg.seed, i)))
                for name in ("phi", "base_value", "fx", "class_index"):
                    assert np.array_equal(getattr(result.explanation, name),
                                          getattr(single.explanation, name))
                assert result.fidelity_r2 == single.fidelity_r2
                assert result.degenerate == single.degenerate
                for name in ("feature", "threshold", "child", "cover", "value"):
                    assert np.array_equal(getattr(result.surrogate, name),
                                          getattr(single.surrogate, name), equal_nan=True)
        assert no_child_processes()

    @pytest.mark.parametrize("make_model, bad_row", [
        (lambda: FlakyModel(2), [1000.0, 0.0]),
        (lambda: FlakyModel(2, error=ValueError), [1000.0, 0.0]),
        (lambda: NanModel(2), [1000.0, 0.0]),
        (lambda: QuadraticModel(2), [np.nan, 0.0]),
    ], ids=["runtime-error", "value-error", "nan-scores", "non-finite-row"])
    def test_row_errors_come_back_in_place(self, make_model, bad_row, monkeypatch):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[:8], [bad_row]])[[0, 8, 1, 2, 3, 8, 4, 5, 8, 6]]
        cfg = LimaseConfig(n_samples=50, seed=0)
        forked = limase_explain_batch(make_model(), X, meta_for(rows), cfg)
        serial = self._serial(monkeypatch, make_model(), X, meta_for(rows), cfg)
        for i, (a, b) in enumerate(zip(forked, serial, strict=True)):
            if i in (1, 5, 8):
                assert isinstance(a, LimaseError)
                assert _chain(a) == _chain(b)  # types, messages and causes
            else:
                assert np.array_equal(a.explanation.phi, b.explanation.phi)
        assert no_child_processes()

    def test_cause_that_pickle_cannot_rebuild_is_cut(self, monkeypatch):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[:5], [[1000.0, 0.0]]])
        cfg = LimaseConfig(n_samples=50, seed=0)
        forked = limase_explain_batch(FlakyModel(2, error=lambda m: TwoPartError(7, m)),
                                      X, meta_for(rows), cfg)
        serial = self._serial(monkeypatch, FlakyModel(2, error=lambda m: TwoPartError(7, m)),
                              X, meta_for(rows), cfg)
        assert type(forked[5]) is LimaseError and str(forked[5]) == str(serial[5])
        assert isinstance(serial[5].__cause__, TwoPartError)
        assert forked[5].__cause__ is None
        for a, b in zip(forked[:5], serial[:5]):
            assert np.array_equal(a.explanation.phi, b.explanation.phi)

    def test_row_error_pickle_cannot_rebuild_stays_in_its_row(self, monkeypatch):
        rows = RandomStream(13).normal_matrix(30, 2)
        X = np.vstack([rows[:5], [[1000.0, 0.0]]])  # row 5 is in the worker's stripe
        cfg = LimaseConfig(n_samples=50, seed=0)
        forked = limase_explain_batch(FlakyModel(2, error=lambda m: TwoPartLimaseError(7, m)),
                                      X, meta_for(rows), cfg)
        serial = self._serial(monkeypatch,
                              FlakyModel(2, error=lambda m: TwoPartLimaseError(7, m)),
                              X, meta_for(rows), cfg)
        assert type(serial[5]) is TwoPartLimaseError
        assert type(forked[5]) is LimaseError
        assert str(forked[5]) == f"TwoPartLimaseError in a forked worker: {serial[5]}"
        for a, b in zip(forked[:5], serial[:5]):
            assert np.array_equal(a.explanation.phi, b.explanation.phi)
        assert no_child_processes()

    def test_worker_exception_propagates_and_no_child_outlives_batch(self, reg_data,
                                                                     monkeypatch):
        inner = limase.pipeline.limase_explain

        def failing(model, x, features, config):
            if x[0] > 100.0:
                raise KeyError("not a LimaseError")
            return inner(model, x, features, config)

        monkeypatch.setattr(limase.pipeline, "limase_explain", failing)
        model = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        X = reg_data.rows[:8].copy()
        X[7, 0] = 1000.0  # in the last stripe, which a worker runs
        with pytest.raises(KeyError, match="not a LimaseError"):
            limase_explain_batch(model, X, reg_data.features, LimaseConfig(n_samples=50))
        assert no_child_processes()

    def test_rows_stay_in_caller(self, reg_data, monkeypatch):
        model = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        cfg = LimaseConfig(n_samples=50, seed=1)
        seen = self._tag_pids(monkeypatch)
        limase_explain_batch(model, reg_data.rows[:1], reg_data.features, cfg)
        assert seen == [os.getpid()]  # nothing left to share after row 0

        release = threading.Event()
        extra = threading.Thread(target=release.wait, args=(10.0,))
        extra.start()
        try:
            seen.clear()
            limase_explain_batch(model, reg_data.rows[:8], reg_data.features, cfg)
            assert seen == [os.getpid()] * 8  # a fork could copy a lock this thread holds
        finally:
            release.set()
            extra.join(timeout=10.0)
        assert not extra.is_alive()

        release.clear()
        threads = []

        class ThreadStartingModel(QuadraticModel):
            def predict(self, X):
                if not threads:  # the first call leaves a thread running
                    threads.append(threading.Thread(target=release.wait, args=(10.0,)))
                    threads[0].start()
                return super().predict(X)

        rows = RandomStream(13).normal_matrix(8, 2)
        limase.stripes._item_s.clear()  # a first call: row 0 runs before any fork
        try:
            seen.clear()
            limase_explain_batch(ThreadStartingModel(2), rows, meta_for(rows), cfg)
            assert seen == [os.getpid()] * 8  # row 0 started it, so the rest stay too
        finally:
            release.set()
            threads[0].join(timeout=10.0)

        monkeypatch.setattr(limase.stripes, "_BLAS_THREADS", limase.stripes._usable_cpus())
        seen.clear()
        limase_explain_batch(model, reg_data.rows[:8], reg_data.features, cfg)
        assert seen == [os.getpid()] * 8  # BLAS threads already fill every CPU

    def test_row_time_decides(self, reg_data, monkeypatch):
        """Rows fork only when the first row's time says striping saves MIN_SAVING_S."""
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", MIN_SAVING_S)
        model = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        cfg = LimaseConfig(n_samples=50, seed=1)
        seen = self._tag_pids(monkeypatch)
        limase_explain_batch(model, reg_data.rows[:8], reg_data.features, cfg)
        assert seen == [os.getpid()] * 8  # a fork would cost more than these rows

        tagging = limase.pipeline.limase_explain

        def slow(*a, **kw):
            time.sleep(MIN_SAVING_S)
            return tagging(*a, **kw)

        monkeypatch.setattr(limase.pipeline, "limase_explain", slow)
        seen.clear()
        batch = limase_explain_batch(model, reg_data.rows[:6], reg_data.features, cfg)
        assert seen == [os.getpid()] * 3  # row 0 and the caller's stripe of the other five
        assert [r.pid == os.getpid() for r in batch] == [True] * 3 + [False] * 3
        assert no_child_processes()


class TestSigmaSweep:
    def test_scores_once(self, reg_data):
        model = CountingModel(
            fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0)))
        x = reg_data.rows[0]
        swept = sigma_sweep(model, x, reg_data.features, LimaseConfig(n_samples=100, seed=1),
                            [0.5, 2.0, 8.0])
        assert [s for s, _ in swept] == [0.5, 2.0, 8.0]
        assert model.calls == 1
        assert model.batches[0].shape == (101, reg_data.d)
        assert np.array_equal(model.batches[0][0], x)

    def test_single_sigma_equals_direct_call(self, reg_data, cls_data):
        # every entry has the bits of its own limase_explain call, for a
        # model that scores rows one by one and for a BLAS-backed MLP
        forest = fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0))
        mlp = fit_mlp(cls_data, [8], 3, 0.05, RandomStream(2))
        for model, data in ((forest, reg_data), (mlp, cls_data)):
            cfg = LimaseConfig(n_samples=100, seed=1)
            swept = sigma_sweep(model, data.rows[0], data.features, cfg, [0.5, 2.0, 8.0])
            for s, entry in swept:
                direct = limase_explain(model, data.rows[0], data.features,
                                        replace(cfg, sigma=s))
                assert entry.config == direct.config
                for name in ("phi", "base_value", "fx", "class_index"):
                    assert np.array_equal(getattr(entry.explanation, name),
                                          getattr(direct.explanation, name))
                assert entry.fidelity_r2 == direct.fidelity_r2
                assert entry.degenerate == direct.degenerate
                for name in ("feature", "threshold", "child", "cover", "value"):
                    assert np.array_equal(getattr(entry.surrogate, name),
                                          getattr(direct.surrogate, name), equal_nan=True)

    def test_wide_kernel_approaches_global_mean(self):
        # quadratic bowl, x at the center: narrow kernels see f(x) = 0,
        # wide ones the perturbation cloud's mean.  The base value's gap
        # to the cloud mean must shrink from the narrowest to the widest.
        rng = RandomStream(14)
        rows = rng.normal_matrix(400, 3)
        meta = meta_for(rows)
        model = CountingModel(QuadraticModel(3))
        x = np.zeros(3)
        cfg = LimaseConfig(n_samples=2000, seed=5)
        swept = sigma_sweep(model, x, meta, cfg, [0.5, 2.0, 8.0])
        [cloud] = model.batches
        cloud_mean = float(np.mean(model.inner.predict_scalar(cloud)))
        gaps = [abs(r.explanation.base_value - cloud_mean) for _, r in swept]
        assert gaps[-1] < gaps[0]

    def test_tiny_sigma_concentrates_weight(self, reg_data):
        model = CountingModel(
            fit_random_forest(reg_data, 3, TreeParams(max_depth=3), RandomStream(0)))
        x = reg_data.rows[0]
        [(_, result)] = sigma_sweep(model, x, reg_data.features,
                                    LimaseConfig(n_samples=500, seed=2), [0.01])
        w = kernel_weights(x, model.batches[0], result.config.sigma, reg_data.features)
        effective = w.sum() / w.max()
        assert effective < 2.0  # essentially only the anchor survives

    def test_empty_or_invalid_sigmas(self, reg_data):
        model = ConstantModel(0.0, reg_data.d)
        with pytest.raises(ConfigError):
            sigma_sweep(model, reg_data.rows[0], reg_data.features, LimaseConfig(), [])
        with pytest.raises(ConfigError):
            sigma_sweep(model, reg_data.rows[0], reg_data.features, LimaseConfig(),
                        [1.0, -1.0])
        with pytest.raises(ConfigError, match="finite"):
            sigma_sweep(model, reg_data.rows[0], reg_data.features, LimaseConfig(),
                        [1.0, float("inf")])
