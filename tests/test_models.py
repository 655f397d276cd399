"""Trainable models: forest layout, MLP gradients, serialization."""
import json
import re
import tracemalloc

import numpy as np
import pytest

from limase.core import (
    ConfigError,
    DataError,
    Dataset,
    RandomStream,
    Task,
    compute_feature_meta,
)
from limase.models import (
    _SLAB_ROWS,
    ForestModel,
    MlpModel,
    TreeModel,
    _softmax,
    fit_mlp,
    fit_random_forest,
    load_model,
    mlp_loss_and_gradients,
    save_model,
    training_score,
)
from limase.trees import _BLOCK_PAIRS, LEAF, TreeParams, fit_tree, predict_batch

from conftest import make_classification_dataset, random_mlp, random_tree, tree_from_nodes

NAN = float("nan")


def tiny_dataset(task: Task, n=40, d=2, seed=3) -> Dataset:
    rng = RandomStream(seed)
    X = rng.normal_matrix(n, d)
    if task.is_classification:
        y = (X[:, 0] > 0).astype(float)
    else:
        y = X @ np.arange(1.0, d + 1)
    names = [f"f{j}" for j in range(d)]
    return Dataset(compute_feature_meta(X, names), X, y, task)


class TestTreeModel:
    def test_wraps_tree_as_regression_model(self):
        rng = RandomStream(4)
        X = rng.normal_matrix(50, 3)
        y = X[:, 0]
        tree = fit_tree(X, y, np.ones(50), TreeParams(min_samples_leaf=1))
        model = TreeModel(tree)
        assert model.task == Task.regression()
        assert model.d == 3
        got = model.predict(X).values[:, 0]
        assert np.array_equal(got, predict_batch(tree, X))


class TestForest:
    def test_round_major_layout(self, cls_data):
        forest = fit_random_forest(cls_data, 4, TreeParams(max_depth=3), RandomStream(0))
        k = cls_data.task.n_classes
        assert len(forest.trees) == 4 * k
        assert forest.n_rounds == 4
        for c in range(k):
            assert forest.class_trees(c) == forest.trees[c::k]

    def test_probability_rows(self, cls_data):
        forest = fit_random_forest(cls_data, 10, TreeParams(max_depth=4), RandomStream(1))
        out = forest.predict(cls_data.rows)
        out.check_probabilities()
        assert out.values.shape == (cls_data.n, 3)

    def test_all_zero_scores_fall_back_to_uniform(self):
        # hand-built forest whose class trees both predict 0 everywhere
        zero = fit_tree(np.zeros((2, 1)), np.zeros(2), np.ones(2), TreeParams())
        forest = ForestModel(trees=[zero, zero], task=Task.classification(2), d=1)
        probs = forest.predict(np.array([[1.0]])).values
        assert np.array_equal(probs, [[0.5, 0.5]])

    def test_training_accuracy_on_separable_data(self):
        data = make_classification_dataset(5, 400, 4, 3)
        forest = fit_random_forest(data, 30, TreeParams(max_depth=6), RandomStream(2))
        assert training_score(forest, data) >= 0.9

    def test_single_deterministic_tree_mode(self):
        data = tiny_dataset(Task.regression())
        forest = fit_random_forest(
            data, 1, TreeParams(min_samples_leaf=1), RandomStream(0),
            bootstrap=False, mtry=data.d,
        )
        direct = fit_tree(data.rows, data.target, np.ones(data.n),
                          TreeParams(min_samples_leaf=1))
        assert forest.trees[0].to_dict() == direct.to_dict()

    def test_constant_target_predicts_constant(self):
        rng = RandomStream(6)
        X = rng.normal_matrix(30, 2)
        y = np.full(30, 2.5)
        data = Dataset(compute_feature_meta(X, ["a", "b"]), X, y, Task.regression())
        forest = fit_random_forest(data, 1, TreeParams(), RandomStream(0), bootstrap=False)
        assert np.all(forest.predict(X).values == 2.5)

    def test_same_seed_same_forest(self, reg_data):
        a = fit_random_forest(reg_data, 5, TreeParams(max_depth=4), RandomStream(9))
        b = fit_random_forest(reg_data, 5, TreeParams(max_depth=4), RandomStream(9))
        probe = RandomStream(10).normal_matrix(20, reg_data.d)
        assert np.array_equal(a.predict(probe).values, b.predict(probe).values)
        assert all(x.to_dict() == y.to_dict() for x, y in zip(a.trees, b.trees))

    def test_empty_dataset_rejected(self):
        rows = np.zeros((0, 2))
        data = Dataset(
            [f for f in compute_feature_meta(np.zeros((1, 2)), ["a", "b"])],
            rows, np.zeros(0), Task.regression(),
        )
        with pytest.raises(DataError):
            fit_random_forest(data, 3, TreeParams(), RandomStream(0))

    def test_bad_tree_count(self, reg_data):
        with pytest.raises(ConfigError):
            fit_random_forest(reg_data, 0, TreeParams(), RandomStream(0))

    def test_predicted_class(self, cls_data):
        # with no class given, predict_scalar_and_class scores the class predicted for row 0
        forest = fit_random_forest(cls_data, 10, TreeParams(max_depth=4), RandomStream(1))
        X = cls_data.rows[:5]
        probs = forest.predict(X).values
        scores, class_index = forest.predict_scalar_and_class(X)
        assert class_index == int(np.argmax(probs[0]))
        assert np.array_equal(scores, probs[:, class_index])


def reference_walk(tree, X):
    """predict_batch before the stacked walk: each row stops at its leaf."""
    X = np.asarray(X, dtype=float)
    feature, threshold, left, right, value = (
        tree.feature, tree.threshold, tree.child[:, 1], tree.child[:, 0], tree.value)
    current = np.zeros(X.shape[0], dtype=np.intp)
    active = feature[current] != LEAF
    while active.any():
        rows = np.nonzero(active)[0]
        nodes = current[rows]
        goes_left = X[rows, feature[nodes]] <= threshold[nodes]
        current[rows] = np.where(goes_left, left[nodes], right[nodes])
        active[rows] = feature[current[rows]] != LEAF
    return value[current]


def reference_scores(forest, X):
    """raw_scores before the stacked walk: a per-class mean of per-tree walks."""
    scores = np.empty((X.shape[0], forest.n_outputs))
    for c in range(forest.n_outputs):
        scores[:, c] = np.mean([reference_walk(t, X) for t in forest.class_trees(c)], axis=0)
    return scores


def chain(d: int, depth: int, rng: RandomStream):
    """A depth-deep chain: node i splits feature i % d near -0.5, its left child a leaf."""
    nodes = []
    for i in range(depth):
        nodes.append((i % d, -0.5 + 0.1 * rng.normal(1)[0], 2 * i + 1, 2 * i + 2, 1.0, 0.0))
        nodes.append((LEAF, NAN, LEAF, LEAF, 1.0, float(i)))
    nodes.append((LEAF, NAN, LEAF, LEAF, 1.0, float(depth)))
    # preorder: the left leaf of node i sits right after it, then node i + 1
    return tree_from_nodes(nodes, d, TreeParams(max_depth=depth))


def block_sizes(n_trees: int) -> list[int]:
    """Row counts on both sides of the walk's first and second block boundaries."""
    step = max(2, _BLOCK_PAIRS // n_trees)
    return [0, 1, 2, 3, step - 1, step, step + 1, step + 2, 2 * step + 1]


class TestReferenceWalk:
    """The stacked walk reproduces the per-tree walks and their mean bit for bit."""

    @pytest.mark.parametrize("k", [None, 3])
    def test_forest_scores_equal_reference(self, k):
        data = (make_classification_dataset(21, 300, 4, k) if k
                else tiny_dataset(Task.regression(), n=300, d=4))
        forest = fit_random_forest(data, 40, TreeParams(max_depth=5), RandomStream(4))
        for n in block_sizes(len(forest.trees)):
            X = RandomStream(n).normal_matrix(n, 4)
            assert np.array_equal(forest.raw_scores(X), reference_scores(forest, X)), n
            for tree in forest.trees[:3]:
                assert np.array_equal(predict_batch(tree, X), reference_walk(tree, X)), n

    def test_single_leaf_tree_with_deep_chain(self):
        rng = RandomStream(22)
        leaf = tree_from_nodes([(LEAF, NAN, LEAF, LEAF, 5.0, 2.5)], 3, TreeParams())
        trees = [leaf, chain(3, 30, rng), random_tree(rng, d=3, max_depth=4)]
        forest = ForestModel(trees=trees, task=Task.regression(), d=3)
        assert forest.stack.depth == 30
        for n in block_sizes(len(trees)):
            X = 0.3 * RandomStream(n).normal_matrix(n, 3)
            assert np.array_equal(forest.raw_scores(X), reference_scores(forest, X)), n
            for tree in trees:
                assert np.array_equal(predict_batch(tree, X), reference_walk(tree, X)), n

    def test_predict_memory_is_bounded_by_blocks(self):
        # 150 trees over 40k rows: an unblocked walk holds 48 MB per (tree, row) array
        data = make_classification_dataset(23, 300, 10, 3)
        forest = fit_random_forest(data, 50, TreeParams(max_depth=6), RandomStream(5))
        X = RandomStream(24).normal_matrix(40_000, 10)
        tracemalloc.start()
        try:
            forest.predict(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestForestChecks:
    def _saved(self, tmp_path):
        data = make_classification_dataset(25, 60, 3, 3)
        forest = fit_random_forest(data, 2, TreeParams(max_depth=2), RandomStream(0))
        path = tmp_path / "model.json"
        save_model(forest, path)
        return path, json.loads(path.read_text())

    def test_tree_dimension_mismatch_rejected(self, tmp_path):
        path, payload = self._saved(tmp_path)
        payload["trees"][4]["d"] = 4
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="tree 4 has d=4"):
            load_model(path)

    def test_tree_count_must_fill_every_class(self, tmp_path):
        path, payload = self._saved(tmp_path)
        del payload["trees"][-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="multiple of 3"):
            load_model(path)

    def test_empty_forest_rejected(self, tmp_path):
        for task in (Task.classification(3), Task.regression()):
            with pytest.raises(DataError, match="at least one tree"):
                ForestModel(trees=[], task=task, d=2)
        path, payload = self._saved(tmp_path)
        payload["trees"] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(f"cannot load model {path}: a forest needs")):
            load_model(path)


class TestMlp:
    def test_forward_shapes_and_probabilities(self, cls_data):
        model = fit_mlp(cls_data, [8], epochs=1, learning_rate=0.05, rng=RandomStream(0))
        out = model.predict(cls_data.rows[:7])
        assert out.values.shape == (7, 3)
        out.check_probabilities()
        assert np.all(np.isfinite(np.concatenate([w.ravel() for w in model.weights])))

    @pytest.mark.parametrize("kind", ["regression", "classification"])
    def test_predict_equals_training_forward(self, kind, reg_data, cls_data):
        data = cls_data if kind == "classification" else reg_data
        model = fit_mlp(data, [16, 8], epochs=2, learning_rate=0.02, rng=RandomStream(3))
        X = data.rows
        # the forward pass as first written: every layer kept, out of place
        want_inputs, h = [], X
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            want_inputs.append(h)
            h = h @ w + b
            if i < len(model.weights) - 1:
                h = np.maximum(h, 0.0)
        inputs = []
        raw = model._forward(X, inputs)
        assert raw.tobytes() == h.tobytes()
        assert [a.tobytes() for a in inputs] == [a.tobytes() for a in want_inputs]
        want = _softmax(h) if kind == "classification" else h
        assert model.predict(X).values.tobytes() == want.tobytes()

    def test_layer_dimension_checks(self):
        with pytest.raises(ValueError):
            MlpModel(weights=[np.zeros((2, 3)), np.zeros((4, 1))],
                     biases=[np.zeros(3), np.zeros(1)], task=Task.regression())
        with pytest.raises(ValueError):
            MlpModel(weights=[np.zeros((2, 3))], biases=[np.zeros(2)],
                     task=Task.regression())

    def test_xor_style_training(self):
        rng = RandomStream(12)
        X = rng.normal_matrix(200, 2)
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
        data = Dataset(compute_feature_meta(X, ["a", "b"]), X, y, Task.classification(2))
        model = fit_mlp(data, [8], epochs=500, learning_rate=0.1, rng=RandomStream(1))
        assert training_score(model, data) >= 0.9

    def test_epochs_must_be_positive(self, cls_data):
        with pytest.raises(ConfigError):
            fit_mlp(cls_data, [4], epochs=0, learning_rate=0.1, rng=RandomStream(0))

    def test_hidden_width_must_be_positive(self, cls_data):
        with pytest.raises(ConfigError):
            fit_mlp(cls_data, [0], epochs=1, learning_rate=0.1, rng=RandomStream(0))

    @pytest.mark.parametrize("rate", [NAN, float("inf"), 0.0, -0.1])
    def test_learning_rate_must_be_positive_and_finite(self, cls_data, rate):
        with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
            fit_mlp(cls_data, [4], epochs=1, learning_rate=rate, rng=RandomStream(0))

    @pytest.mark.parametrize("kind", ["regression", "classification"])
    def test_diverged_training_raises(self, kind, reg_data, cls_data):
        data = reg_data if kind == "regression" else cls_data
        with pytest.raises(ConfigError, match=r"diverged in epoch [123] of 3"):
            fit_mlp(data, [8], epochs=3, learning_rate=1e6, rng=RandomStream(0))

    def test_deterministic_training(self, reg_data):
        a = fit_mlp(reg_data, [6], epochs=3, learning_rate=0.01, rng=RandomStream(7))
        b = fit_mlp(reg_data, [6], epochs=3, learning_rate=0.01, rng=RandomStream(7))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("kind", ["classification", "regression"])
    def test_gradient_matches_finite_differences(self, kind):
        # 2-2-2 network, central differences with step 1e-5
        task = Task.classification(2) if kind == "classification" else Task.regression()
        rng = RandomStream(42)
        k_out = 2 if kind == "classification" else 1
        model = MlpModel(
            weights=[rng.normal_matrix(2, 2), rng.normal_matrix(2, k_out)],
            biases=[0.1 * rng.normal(2), 0.1 * rng.normal(k_out)],
            task=task,
        )
        X = rng.normal_matrix(6, 2)
        y = (np.arange(6) % 2).astype(float) if kind == "classification" else rng.normal(6)
        _, gw, gb = mlp_loss_and_gradients(model, X, y)
        step = 1e-5

        def loss_at() -> float:
            return mlp_loss_and_gradients(model, X, y)[0]

        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for arr, g in zip(params, grads):
                flat, gflat = arr.ravel(), g.ravel()
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + step
                    up = loss_at()
                    flat[i] = keep - step
                    down = loss_at()
                    flat[i] = keep
                    numeric = (up - down) / (2 * step)
                    denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                    assert abs(numeric - gflat[i]) / denom <= 1e-4

    def test_loss_decreases_on_easy_problem(self):
        data = tiny_dataset(Task.regression(), n=100)
        model0 = fit_mlp(data, [8], epochs=1, learning_rate=0.01, rng=RandomStream(3))
        model1 = fit_mlp(data, [8], epochs=80, learning_rate=0.01, rng=RandomStream(3))
        loss0 = mlp_loss_and_gradients(model0, data.rows, data.target)[0]
        loss1 = mlp_loss_and_gradients(model1, data.rows, data.target)[0]
        assert loss1 < loss0


SLAB_SIZES = [0, 1, _SLAB_ROWS - 1, _SLAB_ROWS, _SLAB_ROWS + 1, 2 * _SLAB_ROWS + 3]


class TestMlpSlabs:
    """predict runs the forward pass in _SLAB_ROWS-row slabs; training does not."""

    @pytest.fixture(params=["regression", "classification"])
    def model(self, request):
        task = Task.regression() if request.param == "regression" else Task.classification(3)
        return random_mlp(30, 6, [16, 8], task)

    @pytest.mark.parametrize("n", SLAB_SIZES)
    def test_predict_equals_per_slab_predicts(self, model, n):
        X = RandomStream(n).normal_matrix(n, 6)
        slabs = [model.predict(X[s : s + _SLAB_ROWS]).values for s in range(0, n, _SLAB_ROWS)]
        want = np.concatenate(slabs + [np.empty((0, model.task.n_outputs))])
        got = model.predict(X).values
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", SLAB_SIZES)
    def test_predict_matches_whole_matrix_forward(self, model, n):
        # equal bytes would depend on how the BLAS build splits a product by rows
        X = RandomStream(n).normal_matrix(n, 6)
        raw = model._forward(X)
        want = _softmax(raw) if model.task.is_classification else raw
        got = model.predict(X)
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-12)
        if model.task.is_classification:
            got.check_probabilities()
            np.testing.assert_allclose(got.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, _SLAB_ROWS + 1])
    def test_wrong_width_rejected(self, model, n):
        with pytest.raises(ValueError, match="expected 6 columns, got 7"):
            model.predict(np.zeros((n, 7)))

    def test_training_forward_is_whole_batch(self, model, monkeypatch):
        forward, seen = MlpModel._forward, []

        def spy(self, X, inputs=None):
            raw = forward(self, X, inputs)
            seen.append((X.shape[0], None if inputs is None else [a.shape[0] for a in inputs]))
            return raw

        monkeypatch.setattr(MlpModel, "_forward", spy)
        n = 2 * _SLAB_ROWS + 3
        X = RandomStream(31).normal_matrix(n, 6)
        y = np.arange(n) % 3 if model.task.is_classification else X[:, 0]
        mlp_loss_and_gradients(model, X, y)
        assert seen == [(n, [n] * len(model.weights))]
        seen.clear()
        model.predict(X)
        assert seen == [(_SLAB_ROWS, None), (_SLAB_ROWS, None), (3, None)]

    def test_predict_memory_is_bounded_by_slabs(self):
        # 40k rows through [64, 64]: a whole-matrix forward holds 20 MB per hidden layer
        model = random_mlp(32, 30, [64, 64])
        X = RandomStream(33).normal_matrix(40_000, 30)
        tracemalloc.start()
        try:
            model.predict(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestTrainingScore:
    def test_regression_r2_on_representable_target(self):
        data = tiny_dataset(Task.regression(), n=200, d=2, seed=8)
        tree = fit_tree(data.rows, data.target, np.ones(data.n),
                        TreeParams(max_depth=12, min_samples_leaf=1))
        assert training_score(TreeModel(tree), data) >= 0.99

    def test_classification_accuracy_range(self, cls_data):
        forest = fit_random_forest(cls_data, 5, TreeParams(max_depth=3), RandomStream(0))
        score = training_score(forest, cls_data)
        assert 0.0 <= score <= 1.0


class TestSerialization:
    def test_tree_model_round_trip(self, tmp_path, reg_data):
        tree = fit_tree(reg_data.rows, reg_data.target, np.ones(reg_data.n), TreeParams())
        model = TreeModel(tree)
        save_model(model, tmp_path / "m.json", feature_names=reg_data.feature_names)
        back = load_model(tmp_path / "m.json")
        probe = RandomStream(0).normal_matrix(10, reg_data.d)
        assert np.array_equal(back.predict(probe).values, model.predict(probe).values)
        assert back.task == model.task

    def test_forest_round_trip(self, tmp_path, cls_data):
        forest = fit_random_forest(cls_data, 4, TreeParams(max_depth=3), RandomStream(5))
        save_model(forest, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        probe = RandomStream(1).normal_matrix(10, cls_data.d)
        assert np.array_equal(back.predict(probe).values, forest.predict(probe).values)
        assert back.task == forest.task
        assert len(back.trees) == len(forest.trees)

    def test_mlp_round_trip(self, tmp_path, reg_data):
        model = fit_mlp(reg_data, [5, 3], epochs=2, learning_rate=0.01, rng=RandomStream(2))
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        probe = RandomStream(3).normal_matrix(10, reg_data.d)
        assert np.array_equal(back.predict(probe).values, model.predict(probe).values)

    @pytest.mark.parametrize("layer, part", [(0, "weights"), (1, "biases")])
    def test_non_finite_mlp_rejected(self, tmp_path, reg_data, layer, part):
        model = fit_mlp(reg_data, [5], epochs=1, learning_rate=0.01, rng=RandomStream(2))
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        row = payload[part][layer]
        if part == "weights":
            row = row[0]
        row[0] = NAN
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(f"cannot load model {path}: MLP layer "
                                                      f"{layer} has non-finite")):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "svm"}')
        with pytest.raises(DataError):
            load_model(path)
