"""Trainable models that play the black box: random forest and a small MLP.

Forests are built from the same regression trees the surrogate uses;
classification is handled as per-class probability trees whose averaged
scores are renormalized, which keeps a single tree type and lets the tree
explainer run directly on any forest.  A tree or forest model builds each
output's leaf boxes for that explainer (shapley.forest_shap) when it is
built, so no explained row builds any.  The MLP is deliberately minimal:
rectifier hidden layers, softmax/identity output, plain mini-batch SGD.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    BlackBoxModel,
    ConfigError,
    DataError,
    Dataset,
    ModelOutput,
    RandomStream,
    Task,
)
from .shapley import _leaf_boxes
from .stripes import stripe_map
from .trees import (
    DecisionTree,
    TreeParams,
    TreeStack,
    fit_tree,
    predict_batch,
    predict_stack,
    stack_trees,
)


class TreeModel(BlackBoxModel):
    """A single regression tree exposed through the black-box interface.

    To forest_shap it is a one-tree regression forest: boxes holds its
    leaf boxes (see ForestModel), built with the model.
    """

    def __init__(self, tree: DecisionTree):
        self.tree = tree
        self.task = Task.regression()
        self.d = tree.d
        self.boxes = [_leaf_boxes(tree, 0, 1)]

    def predict(self, X: np.ndarray) -> ModelOutput:
        return ModelOutput(predict_batch(self.tree, np.asarray(X, dtype=float))[:, None])


@dataclass
class ForestModel(BlackBoxModel):
    """Bagged regression trees; layout is round-major, output-minor.

    For classification, round r holds one tree per class (targets are the
    class indicator), so trees[r * k + c] scores class c.  Prediction
    averages per-class scores over rounds and renormalizes rows into a
    probability vector.

    The trees are stacked once, when the forest is built, class-major
    (see class_span), so one walk scores every output; a walk of many
    rows forks its row blocks over every CPU when that saves time (see
    trees.predict_stack), with the same scores.  boxes[c] holds output
    c's leaf boxes and base value for forest_shap, built from the stack
    at the same time (see shapley._leaf_boxes).
    """

    trees: list[DecisionTree]
    task: Task
    d: int
    stack: TreeStack = field(init=False, repr=False, compare=False)
    boxes: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trees:
            raise DataError("a forest needs at least one tree")
        for i, tree in enumerate(self.trees):
            if tree.d != self.d:
                raise DataError(f"forest tree {i} has d={tree.d}, the forest d={self.d}")
        if len(self.trees) % self.n_outputs:
            raise DataError(f"a forest of {self.n_outputs} outputs needs a multiple of "
                            f"{self.n_outputs} trees, got {len(self.trees)}")
        self.stack = stack_trees(
            [t for c in range(self.n_outputs) for t in self.class_trees(c)], self.d)
        self.boxes = [_leaf_boxes(self.stack, *self.class_span(c))
                      for c in range(self.n_outputs)]

    @property
    def n_outputs(self) -> int:
        return self.task.n_outputs

    @property
    def n_rounds(self) -> int:
        return len(self.trees) // self.n_outputs

    def class_trees(self, class_index: int) -> list[DecisionTree]:
        return self.trees[class_index :: self.n_outputs]

    def class_span(self, class_index: int) -> tuple[int, int]:
        """Stack trees first to stop - 1 are class_index's trees in round order."""
        return class_index * self.n_rounds, (class_index + 1) * self.n_rounds

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """Per-output mean of tree predictions, before any normalization."""
        return predict_stack(self.stack, X, self.n_outputs)

    def predict(self, X: np.ndarray) -> ModelOutput:
        scores = self.raw_scores(X)
        if self.task.is_classification:
            scores = np.clip(scores, 0.0, None)
            totals = scores.sum(axis=1, keepdims=True)
            uniform = np.full_like(scores, 1.0 / scores.shape[1])
            with np.errstate(invalid="ignore", divide="ignore"):
                scores = np.where(totals > 0, scores / totals, uniform)
        return ModelOutput(scores)


def fit_random_forest(
    data: Dataset,
    n_trees: int,
    params: TreeParams,
    rng: RandomStream,
    *,
    mtry: int | None = None,
) -> ForestModel:
    """Fit a bagged forest: bootstrap resamples, sqrt(d) features per split.

    Every tree's stream is derived from (seed, round, output), so the
    result is independent of fitting order, and the rounds go through
    stripes.stripe_map, which forks them over every CPU when a round
    time says striping saves time (see stripes).
    """
    if n_trees < 1:
        raise ConfigError("n_trees must be >= 1")
    if data.n == 0:
        raise DataError("empty dataset")
    n, d = data.rows.shape
    k = data.task.n_outputs
    if mtry is None:
        mtry = max(1, round(math.sqrt(d)))
    if data.task.is_classification:
        targets = [(data.target == c).astype(float) for c in range(k)]
    else:
        targets = [data.target]

    def fit_round(r: int) -> list[DecisionTree]:
        round_rng = rng.child(r)
        counts = np.bincount(round_rng.integers(0, n, n), minlength=n).astype(float)
        return [fit_tree(data.rows, targets[c], counts, params,
                         _feature_rng=round_rng.child(c), _mtry=mtry)
                for c in range(k)]

    rounds = stripe_map(fit_round, range(n_trees))
    return ForestModel(trees=[tree for trees in rounds for tree in trees], task=data.task, d=d)


# Rows per slab of an MLP forward pass at prediction.  A slab's activations
# (256 KB at width 64) stay in L2; a whole 16k-row kernel_shap call's (8 MB) do not.
_SLAB_ROWS = 512


@dataclass
class MlpModel(BlackBoxModel):
    """Fully connected net: rectifier hidden layers, softmax or identity out.

    predict runs the forward pass in slabs of _SLAB_ROWS rows, so each
    layer's activations stay in cache; training runs it on the whole batch.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    task: Task
    d: int = field(init=False)

    def __post_init__(self):
        for w_in, w_out in zip(self.weights[:-1], self.weights[1:]):
            if w_in.shape[1] != w_out.shape[0]:
                raise ValueError("consecutive layer dimensions do not match")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias length must match layer width")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DataError(f"MLP layer {i} has non-finite weights or biases")
        self.d = self.weights[0].shape[0]

    def _forward(self, X: np.ndarray, inputs: list[np.ndarray] | None = None) -> np.ndarray:
        """The raw output, keeping one activation at a time.

        inputs, when given, receives each layer's input (X first), which
        the backward pass needs; otherwise each layer's activation is
        dropped as the next one is computed.
        """
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if inputs is not None:
                inputs.append(h)
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
        return h

    def predict(self, X: np.ndarray) -> ModelOutput:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} columns, got {X.shape[1]}")
        raw = np.empty((X.shape[0], self.weights[-1].shape[1]))
        for start in range(0, X.shape[0], _SLAB_ROWS):
            raw[start : start + _SLAB_ROWS] = self._forward(X[start : start + _SLAB_ROWS])
        if self.task.is_classification:
            return ModelOutput(_softmax(raw))
        return ModelOutput(raw)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def mlp_loss_and_gradients(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean loss over the batch plus gradients w.r.t. weights and biases.

    Cross-entropy through softmax for classification, half squared error
    for regression.  The backward pass here is what fit_mlp descends, and
    what the finite-difference tests check.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    activations: list[np.ndarray] = []
    raw = model._forward(X, activations)
    if model.task.is_classification:
        probs = _softmax(raw)
        onehot = np.zeros_like(probs)
        onehot[np.arange(n), np.asarray(y, dtype=int)] = 1.0
        loss = float(-np.sum(onehot * np.log(np.clip(probs, 1e-12, None))) / n)
        delta = (probs - onehot) / n
    else:
        target = np.asarray(y, dtype=float).reshape(n, -1)
        diff = raw - target
        loss = float(0.5 * np.sum(diff * diff) / n)
        delta = diff / n
    grads_w: list[np.ndarray] = [None] * len(model.weights)
    grads_b: list[np.ndarray] = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0)
    return loss, grads_w, grads_b


# Rows per step of fit_mlp's mini-batch gradient descent
_TRAIN_BATCH_ROWS = 32


def fit_mlp(
    data: Dataset,
    hidden: list[int],
    epochs: int,
    learning_rate: float,
    rng: RandomStream,
) -> MlpModel:
    """Mini-batch gradient descent; deterministic given the stream.

    Returns the trained model regardless of achieved loss, unless its
    weights stop being finite: that raises ConfigError at the end of the
    epoch in which they did.
    """
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if not 0 < learning_rate < math.inf:  # NaN fails this too
        raise ConfigError(f"learning_rate must be positive and finite, got {learning_rate}")
    if any(h < 1 for h in hidden):
        raise ConfigError("hidden widths must be >= 1")
    n, d = data.rows.shape
    sizes = [d] + list(hidden) + [data.task.n_outputs]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = math.sqrt(2.0 / fan_in)
        weights.append(rng.normal_matrix(fan_in, fan_out) * scale)
        biases.append(np.zeros(fan_out))
    model = MlpModel(weights=weights, biases=biases, task=data.task)
    X, y = data.rows, data.target
    order = np.arange(n)
    for epoch in range(epochs):
        rng.shuffle(order)
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked below
            for start in range(0, n, _TRAIN_BATCH_ROWS):
                batch = order[start : start + _TRAIN_BATCH_ROWS]
                _, gw, gb = mlp_loss_and_gradients(model, X[batch], y[batch])
                for i in range(len(model.weights)):
                    model.weights[i] -= learning_rate * gw[i]
                    model.biases[i] -= learning_rate * gb[i]
        if not all(np.all(np.isfinite(a)) for a in model.weights + model.biases):
            raise ConfigError(f"MLP training diverged in epoch {epoch + 1} of {epochs}: "
                              f"its weights are no longer finite; lower the learning rate")
    return model


def training_score(model: BlackBoxModel, data: Dataset) -> float:
    """Accuracy for classification, R^2 for regression, on the given data."""
    out = model.predict(data.rows)
    if data.task.is_classification:
        predicted = np.argmax(out.values, axis=1)
        return float(np.mean(predicted == data.target.astype(int)))
    residual = data.target - out.values[:, 0]
    total = data.target - data.target.mean()
    denom = float(np.dot(total, total))
    if denom == 0.0:
        return 1.0 if float(np.dot(residual, residual)) == 0.0 else 0.0
    return 1.0 - float(np.dot(residual, residual)) / denom


def _task_to_dict(task: Task) -> dict:
    return {"kind": task.kind, "n_classes": task.n_classes}


def _task_from_dict(data: dict) -> Task:
    return Task(data["kind"], data["n_classes"])


def save_model(model: BlackBoxModel, path: str | Path, feature_names: list[str] | None = None) -> None:
    """Serialize a tree, forest, or MLP to a JSON file."""
    if isinstance(model, TreeModel):
        payload = {"kind": "tree", "task": _task_to_dict(model.task),
                   "tree": model.tree.to_dict()}
    elif isinstance(model, ForestModel):
        payload = {"kind": "forest", "task": _task_to_dict(model.task), "d": model.d,
                   "trees": [t.to_dict() for t in model.trees]}
    elif isinstance(model, MlpModel):
        payload = {"kind": "mlp", "task": _task_to_dict(model.task),
                   "weights": [w.tolist() for w in model.weights],
                   "biases": [b.tolist() for b in model.biases]}
    else:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    payload["feature_names"] = feature_names
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> BlackBoxModel:
    """Inverse of save_model.

    A file that cannot be read, is not JSON or does not hold a model's
    fields raises DataError naming it.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        kind = data.get("kind")
        if kind == "tree":
            return TreeModel(DecisionTree.from_dict(data["tree"]))
        if kind == "forest":
            return ForestModel(trees=[DecisionTree.from_dict(t) for t in data["trees"]],
                               task=_task_from_dict(data["task"]), d=int(data["d"]))
        if kind == "mlp":
            return MlpModel(weights=[np.array(w, dtype=float) for w in data["weights"]],
                            biases=[np.array(b, dtype=float) for b in data["biases"]],
                            task=_task_from_dict(data["task"]))
    except DataError as e:  # the file's fields do not make a model
        raise DataError(f"cannot load model {path}: {e}") from e
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        # each comes from the file: unreadable, not JSON, a missing key, a value of the wrong type
        raise DataError(f"cannot load model {path}: {type(e).__name__}: {e}") from e
    raise DataError(f"unknown model kind in {path}: {kind!r}")
