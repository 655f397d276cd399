"""Kernel estimator vs the brute-force interventional oracle."""
import math
import tracemalloc

import numpy as np
import pytest

import limase.kernel
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
)
from limase.kernel import _kernel_weights, _sample_masks, kernel_shap
from limase.models import fit_mlp, fit_random_forest
from limase.shapley import shapley_brute_force
from limase.trees import TreeParams

from conftest import make_classification_dataset, make_regression_dataset, random_mlp


class LinearModel(BlackBoxModel):
    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)
        self.task = Task.regression()
        self.d = self.w.shape[0]

    def predict(self, X):
        return ModelOutput((np.atleast_2d(X) @ self.w)[:, None])


class ConstantModel(BlackBoxModel):
    def __init__(self, c, d):
        self.c = float(c)
        self.task = Task.regression()
        self.d = d

    def predict(self, X):
        return ModelOutput(np.full((np.atleast_2d(X).shape[0], 1), self.c))


class CountingModel(BlackBoxModel):
    def __init__(self, inner):
        self.inner, self.d, self.task = inner, inner.d, inner.task
        self.calls = 0

    def predict(self, X):
        self.calls += 1
        return self.inner.predict(X)


class RefusingModel(LinearModel):
    """Raises RuntimeError for a batch of more than max_rows rows."""

    def __init__(self, w, max_rows):
        super().__init__(w)
        self.max_rows = max_rows

    def predict(self, X):
        if len(X) > self.max_rows:
            raise RuntimeError(f"batch of {len(X)} rows refused")
        return super().predict(X)


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


def interventional_oracle(model, x, background, d, class_index=None):
    """Brute-force Shapley values of v(S) = mean_b f(x on S, b off S)."""

    def v(mask):
        member = np.array([(mask >> j) & 1 == 1 for j in range(d)])
        composites = np.where(member, x, background)
        return float(np.mean(model.predict_scalar(composites, class_index)))

    return shapley_brute_force(v, d)


class TestExamples:
    def test_constant_model(self):
        model = ConstantModel(4.2, 3)
        bg = RandomStream(0).normal_matrix(10, 3)
        exp = kernel_shap(model, np.ones(3), bg, "exact", RandomStream(1))
        assert exp.base_value == pytest.approx(4.2)
        assert exp.fx == pytest.approx(4.2)
        assert np.allclose(exp.phi, 0.0, atol=1e-9)

    def test_linear_model_single_background_closed_form(self):
        w = np.array([2.0, -1.0, 0.5])
        model = LinearModel(w)
        x = np.array([1.0, 2.0, 3.0])
        b = np.array([[0.5, 0.5, 0.5]])
        exp = kernel_shap(model, x, b, "exact", RandomStream(0))
        assert np.allclose(exp.phi, w * (x - b[0]), atol=1e-9)
        assert exp.base_value == pytest.approx(float(b[0] @ w))

    def test_linear_d2_hand_value(self):
        model = LinearModel([1.0, 1.0])
        x = np.array([1.0, 0.0])
        b = np.zeros((1, 2))
        exp = kernel_shap(model, x, b, "exact", RandomStream(0))
        assert np.allclose(exp.phi, [1.0, 0.0], atol=1e-12)


class TestOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_mode_matches_brute_force_mlp(self, seed):
        rng = RandomStream(600 + seed)
        d = 2 + int(rng.integers(0, 7, 1)[0])  # d in [2, 8]
        data = make_regression_dataset(seed, 80, d)
        model = fit_mlp(data, [8], epochs=5, learning_rate=0.02, rng=rng.child(0))
        x = data.rows[0]
        bg = data.rows[1:7]
        exp = kernel_shap(model, x, bg, "exact", RandomStream(1))
        want = interventional_oracle(model, x, bg, d)
        assert np.max(np.abs(exp.phi - want)) <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_mode_matches_brute_force_forest(self, seed):
        data = make_classification_dataset(700 + seed, 120, 5, 3)
        model = fit_random_forest(data, 4, TreeParams(max_depth=3), RandomStream(seed))
        x = data.rows[2]
        bg = data.rows[10:16]
        exp = kernel_shap(model, x, bg, "exact", RandomStream(2), class_index=1)
        want = interventional_oracle(model, x, bg, 5, class_index=1)
        assert np.max(np.abs(exp.phi - want)) <= 1e-6

    def test_efficiency_holds_by_construction(self):
        data = make_regression_dataset(8, 60, 6)
        model = fit_mlp(data, [6], epochs=3, learning_rate=0.02, rng=RandomStream(3))
        exp = kernel_shap(model, data.rows[0], data.rows[1:20], 40, RandomStream(4))
        assert abs(exp.efficiency_gap()) <= 1e-6 * max(1.0, abs(exp.fx))

    def test_sampled_mode_approaches_exact(self):
        data = make_regression_dataset(9, 60, 6)
        model = fit_mlp(data, [6], epochs=5, learning_rate=0.02, rng=RandomStream(5))
        x, bg = data.rows[0], data.rows[1:11]
        exact = kernel_shap(model, x, bg, "exact", RandomStream(0)).phi
        sampled = kernel_shap(model, x, bg, 2000, RandomStream(6)).phi
        scale = max(1.0, np.abs(exact).max())
        assert np.max(np.abs(sampled - exact)) / scale < 0.15

    def test_d1_closed_form(self):
        model = LinearModel([3.0])
        exp = kernel_shap(model, np.array([2.0]), np.array([[1.0]]), "exact", RandomStream(0))
        assert exp.phi[0] == pytest.approx(3.0)
        exp2 = kernel_shap(model, np.array([2.0]), np.array([[1.0]]), 4, RandomStream(0))
        assert exp2.phi[0] == pytest.approx(3.0)


class TestClassification:
    def test_default_class_is_argmax(self):
        data = make_classification_dataset(20, 150, 4, 3)
        forest = fit_random_forest(data, 4, TreeParams(max_depth=3), RandomStream(0))
        model = CountingModel(forest)
        x = data.rows[5]
        exp = kernel_shap(model, x, data.rows[20:40], "exact", RandomStream(1))
        probs = forest.predict(x[None, :]).values[0]
        assert exp.class_index == int(np.argmax(probs))
        assert exp.fx == probs[exp.class_index]
        assert model.calls == 3  # x for class and fx, the background, one coalition chunk

    def test_explains_requested_class_probability(self):
        data = make_classification_dataset(21, 150, 4, 3)
        model = fit_random_forest(data, 4, TreeParams(max_depth=3), RandomStream(0))
        x = data.rows[5]
        exp = kernel_shap(model, x, data.rows[20:40], "exact", RandomStream(1), class_index=2)
        assert exp.fx == pytest.approx(model.predict(x[None, :]).values[0, 2])


class TestErrors:
    def test_empty_background(self):
        with pytest.raises(DataError, match="empty"):
            kernel_shap(LinearModel([1.0, 1.0]), np.zeros(2),
                        np.zeros((0, 2)), "exact", RandomStream(0))

    def test_background_width_mismatch(self):
        with pytest.raises(DataError):
            kernel_shap(LinearModel([1.0, 1.0]), np.zeros(2),
                        np.zeros((3, 3)), "exact", RandomStream(0))

    # a budget is rejected before x or the background is scored
    def test_budget_too_small(self):
        model = CountingModel(LinearModel([1.0] * 4))
        with pytest.raises(ConfigError, match="too small"):
            kernel_shap(model, np.zeros(4), np.zeros((2, 4)), 9, RandomStream(0))
        assert model.calls == 0

    def test_bad_budget_value(self):
        model = CountingModel(LinearModel([1.0, 1.0]))
        with pytest.raises(ConfigError):
            kernel_shap(model, np.zeros(2), np.zeros((1, 2)), "fast", RandomStream(0))
        assert model.calls == 0

    @pytest.mark.parametrize("budget", [True, np.True_, 64.0, np.float64(64), "64"])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(ConfigError, match="positive integer or 'exact'"):
            kernel_shap(LinearModel([1.0, 1.0]), np.zeros(2),
                        np.zeros((1, 2)), budget, RandomStream(0))

    def test_probability_rows_not_summing_to_one_raise_typed_error(self):
        bg = RandomStream(0).normal_matrix(5, 2)
        with pytest.raises(ModelOutputError, match="sum to 1"):
            kernel_shap(LoudModel(2, threshold=-100.0), np.zeros(2), bg, 64, RandomStream(1))

    def test_nan_scores_raise_typed_error(self):
        bg = RandomStream(0).normal_matrix(5, 2)
        with pytest.raises(ModelOutputError, match="non-finite"):
            kernel_shap(ConstantModel(float("nan"), 2), np.zeros(2), bg, 64, RandomStream(1))

    @pytest.mark.parametrize("max_rows", [0, 5], ids=["at-x", "at-coalitions"])
    def test_model_failure_raises_limase_error(self, max_rows):
        bg = RandomStream(0).normal_matrix(5, 2)
        with pytest.raises(LimaseError, match="black-box prediction failed") as caught:
            kernel_shap(RefusingModel([1.0, 2.0], max_rows), np.zeros(2), bg, 64,
                        RandomStream(1))
        assert type(caught.value) is LimaseError
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert "refused" in str(caught.value.__cause__)

    def test_non_finite_instance_rejected(self):
        data = make_regression_dataset(3, 60, 3)
        forest = fit_random_forest(data, 3, TreeParams(max_depth=2), RandomStream(0))
        x = np.array([0.0, np.nan, 0.0])
        with pytest.raises(DataError, match="finite"):
            kernel_shap(forest, x, data.rows[:5], "exact", RandomStream(1))

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_background_rejected(self, cell):
        data = make_regression_dataset(3, 60, 3)
        forest = fit_random_forest(data, 3, TreeParams(max_depth=2), RandomStream(0))
        background = data.rows[:5].copy()
        background[2, 1] = cell
        with pytest.raises(DataError, match="background must be finite"):
            kernel_shap(forest, data.rows[5], background, "exact", RandomStream(1))

    def test_exact_limited_to_16_features(self):
        d = 17
        model = CountingModel(LinearModel([1.0] * d))
        with pytest.raises(ConfigError, match="16"):
            kernel_shap(model, np.zeros(d), np.zeros((1, d)), "exact", RandomStream(0))
        assert model.calls == 0


class TestDeterminism:
    def test_sampled_mode_reproducible(self):
        data = make_regression_dataset(30, 50, 5)
        model = fit_mlp(data, [5], epochs=2, learning_rate=0.02, rng=RandomStream(0))
        x, bg = data.rows[0], data.rows[1:9]
        a = kernel_shap(model, x, bg, 60, RandomStream(42)).phi
        b = kernel_shap(model, x, bg, 60, RandomStream(42)).phi
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("budget", [np.int64(60), np.int32(60), np.uint16(60)])
    def test_numpy_integer_budget_matches_int(self, budget):
        data = make_regression_dataset(30, 50, 5)
        model = fit_mlp(data, [5], epochs=2, learning_rate=0.02, rng=RandomStream(0))
        x, bg = data.rows[0], data.rows[1:9]
        want = kernel_shap(model, x, bg, 60, RandomStream(42)).phi
        got = kernel_shap(model, x, bg, budget, RandomStream(42)).phi
        assert got.tobytes() == want.tobytes()


def bitmasks(member):
    """Each row's coalition as the integer sum(2**j for j in S)."""
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in member]


class TestSampleMasks:
    """The paired-sampling contract of _sample_masks, not its stream."""

    CASES = [(d, 2 * d + 2 + 97 * k) for d in (2, 3, 7, 30, 40, 64, 70) for k in range(3)]

    @pytest.mark.parametrize("d, budget", CASES + [(d, b + 1) for d, b in CASES])
    def test_contract(self, d, budget):
        member, weights = _sample_masks(d, budget, RandomStream(budget))
        assert member.dtype == bool and member.shape == (weights.size, d)
        assert weights.dtype == float and np.all(weights >= 1)
        assert weights.sum() == budget
        sizes = member.sum(axis=1)
        assert np.all((sizes > 0) & (sizes < d))
        keys = bitmasks(member)
        assert keys == sorted(set(keys))  # unique rows in ascending bitmask order
        count = dict(zip(keys, weights.tolist()))
        full = (1 << d) - 1
        unpaired = sum(max(c - count.get(full ^ k, 0), 0) for k, c in count.items())
        assert unpaired == budget % 2  # an odd budget's last draw has no complement

    def test_same_seed_same_bytes(self):
        for d in (3, 10, 70):
            a = _sample_masks(d, 999, RandomStream(5))
            b = _sample_masks(d, 999, RandomStream(5))
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
            c = _sample_masks(d, 999, RandomStream(6))
            assert any(x.tobytes() != y.tobytes() for x, y in zip(a, c))

    def test_smallest_games(self):
        # d=2: every draw is {0} or {1}, paired with the other
        member, weights = _sample_masks(2, 7, RandomStream(0))
        assert member.tolist() == [[True, False], [False, True]]
        assert sorted(weights.tolist()) == [3.0, 4.0]
        # d=3: six coalitions of size 1 or 2, all drawn at this budget
        member, weights = _sample_masks(3, 400, RandomStream(1))
        assert bitmasks(member) == [1, 2, 3, 4, 5, 6] and weights.sum() == 400

    def test_size_distribution(self):
        d, budget = 10, 200_000
        member, weights = _sample_masks(d, budget, RandomStream(11))
        s = np.arange(1, d)
        p = 1.0 / (s * (d - s))
        p /= p.sum()
        # sizes s and d-s come in complement pairs, so their shares are equal
        share = np.bincount(member.sum(axis=1), weights=weights, minlength=d)[1:] / budget
        assert np.max(np.abs(share - p)) <= 0.002
        # within a size every subset is equally likely: each feature in about s/d of them
        for k in (1, 3, 5):
            rows = member.sum(axis=1) == k
            freq = (member[rows] * weights[rows, None]).sum(axis=0) / weights[rows].sum()
            assert np.max(np.abs(freq - k / d)) <= 0.02


class TestExactWeights:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_table_equals_per_mask_comb(self, d):
        masks = np.arange(1, (1 << d) - 1)
        sizes = ((masks[:, None] >> np.arange(d)) & 1).sum(axis=1)
        combs = np.array([math.comb(d, int(k)) for k in sizes], dtype=float)
        want = (d - 1) / (combs * sizes * (d - sizes))
        assert _kernel_weights(sizes, d).tobytes() == want.tobytes()


class TestWideRows:
    """Sampled mode has no cap on d: coalitions are rows of booleans, not integers."""

    @pytest.mark.parametrize("d", [64, 70])
    def test_linear_model_recovered(self, d):
        rng = RandomStream(d)
        w = rng.normal(d)
        model = LinearModel(w)
        x, bg = rng.normal(d), rng.normal_matrix(4, d)
        exp = kernel_shap(model, x, bg, 2048, RandomStream(1))
        assert np.all(np.isfinite(exp.phi))
        assert abs(exp.efficiency_gap()) <= 1e-6 * max(1.0, abs(exp.fx))
        assert np.allclose(exp.phi, w * (x - bg.mean(axis=0)), atol=1e-8)


class TestChunks:
    """Coalition scoring in model calls of about _CHUNK_ROWS composite rows.

    The models here score each row on its own, so a row's score does not
    depend on the call it is in.  A BLAS matrix product does not promise
    that (an MLP row at the tail of a call may round differently), so for
    an MLP the chunk size can move phi in its last bits.
    """

    @pytest.mark.parametrize("budget", ["exact", 300])
    def test_chunk_size_never_changes_phi(self, monkeypatch, budget):
        data = make_classification_dataset(40, 150, 6, 3)
        model = fit_random_forest(data, 6, TreeParams(max_depth=4), RandomStream(1))
        x, bg = data.rows[0], data.rows[1:14]
        n_bg = bg.shape[0]
        want = kernel_shap(model, x, bg, budget, RandomStream(7))
        for chunk in (3 * n_bg + 1, 1):  # masks split unevenly; one mask per call
            monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", chunk)
            got = kernel_shap(model, x, bg, budget, RandomStream(7))
            assert got.phi.tobytes() == want.phi.tobytes()
            assert (got.base_value, got.fx, got.class_index) == (
                want.base_value, want.fx, want.class_index)

    def test_chunks_split_masks_not_backgrounds(self, monkeypatch):
        monkeypatch.setattr(limase.stripes, "_fork_workers", lambda items: 1)  # record every call
        sizes = []

        class RecordingModel(LinearModel):
            def predict(self, X):
                sizes.append(len(X))
                return super().predict(X)

        bg = RandomStream(5).normal_matrix(10, 3)
        monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", 25)  # 2 masks of 10 rows
        kernel_shap(RecordingModel([1.0, 2.0, 3.0]), np.ones(3), bg, "exact", RandomStream(0))
        assert sizes == [1, 10, 20, 20, 20]  # x, the background, 6 masks in 3 calls

    def test_peak_memory_is_bounded(self, monkeypatch):
        # the mlp-global shape: d=30, [64, 64], 100 background rows, budget 2048;
        # its chunks stay in this process, so every one is traced
        monkeypatch.setattr(limase.stripes, "_fork_workers", lambda items: 1)
        model = random_mlp(8, 30, [64, 64])
        data = RandomStream(9).normal_matrix(101, 30)
        tracemalloc.start()
        try:
            kernel_shap(model, data[0], data[1:], 2048, RandomStream(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
