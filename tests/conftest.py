"""Shared builders: random trees with consistent covers and synthetic data."""
from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

import limase.stripes
from limase.core import Dataset, RandomStream, Task, compute_feature_meta
from limase.models import MlpModel
from limase.trees import LEAF, DecisionTree, TreeParams, _from_rows


@pytest.fixture(autouse=True)
def no_item_times():
    """Each test starts with no loop's item time, so the tests run before it
    cannot make a loop fork before its item 0."""
    limase.stripes._item_s.clear()


def tree_from_nodes(nodes: list, d: int, params: TreeParams) -> DecisionTree:
    """A tree from preorder (feature, threshold, left, right, cover, value) rows."""
    return _from_rows(nodes, d, params)


def random_tree(rng: RandomStream, d: int, max_depth: int,
                *, allowed_features: list[int] | None = None) -> DecisionTree:
    """A random tree whose internal covers/values follow the leaf recurrence.

    Every internal node's cover is the sum of its children's and its value
    their cover-weighted mean, the same bookkeeping a fitted tree carries;
    the explainers rely on that consistency.
    """
    features = list(range(d)) if allowed_features is None else list(allowed_features)
    nodes: list[list] = []

    def grow(depth: int) -> int:
        node_id = len(nodes)
        # Always split at the root (depth 0) so trees are non-trivial.
        split = depth < max_depth and (depth == 0 or rng.uniform(1)[0] < 0.7)
        if not split:
            cover = 0.5 + 9.5 * rng.uniform(1)[0]
            value = 3.0 * rng.normal(1)[0]
            nodes.append([LEAF, float("nan"), LEAF, LEAF, float(cover), float(value)])
            return node_id
        feature = features[int(rng.integers(0, len(features), 1)[0])]
        threshold = float(rng.normal(1)[0])
        nodes.append([feature, threshold, -1, -1, 0.0, 0.0])
        left = grow(depth + 1)
        right = grow(depth + 1)
        cl, cr = nodes[left][4], nodes[right][4]
        value = (cl * nodes[left][5] + cr * nodes[right][5]) / (cl + cr)
        nodes[node_id][2:] = left, right, cl + cr, value
        return node_id

    grow(0)
    return tree_from_nodes(nodes, d, TreeParams(max_depth=max(1, max_depth)))


def shift_subtree(tree: DecisionTree, root_of_subtree: int, c: float) -> DecisionTree:
    """Copy of the tree with c added to every leaf under the given node.

    Internal values are rebuilt bottom-up so the cover/value recurrence
    still holds.
    """
    feature, left, right, cover = (a.tolist() for a in (tree.feature, tree.child[:, 1],
                                                         tree.child[:, 0], tree.cover))
    value = tree.value.tolist()

    def shift(i: int) -> None:
        if feature[i] == LEAF:
            value[i] += c
            return
        shift(left[i])
        shift(right[i])

    def rebuild(i: int) -> None:
        if feature[i] == LEAF:
            return
        l, r = left[i], right[i]
        rebuild(l)
        rebuild(r)
        value[i] = (cover[l] * value[l] + cover[r] * value[r]) / (cover[l] + cover[r])

    shift(root_of_subtree)
    rebuild(0)
    return replace(tree, value=np.array(value, dtype=float))


def make_regression_dataset(seed: int, n: int, d: int, *, noise: float = 0.1) -> Dataset:
    """Gaussian features, a linear target with one interaction, mild noise."""
    rng = RandomStream(seed)
    scales = 0.5 + 2.0 * rng.uniform(d)
    X = rng.normal_matrix(n, d) * scales
    w = rng.normal(d)
    y = X @ w + noise * rng.normal(n)
    if d >= 2:
        y = y + 0.5 * X[:, 0] * X[:, 1]
    names = [f"f{j}" for j in range(d)]
    ds = Dataset(compute_feature_meta(X, names), X, y, Task.regression())
    ds.validate()
    return ds


def make_classification_dataset(seed: int, n: int, d: int, k: int = 3) -> Dataset:
    """Separable classes: label = argmax over k random linear scores."""
    rng = RandomStream(seed)
    X = rng.normal_matrix(n, d)
    W = rng.normal_matrix(d, k)
    labels = np.argmax(X @ W, axis=1).astype(float)
    names = [f"f{j}" for j in range(d)]
    ds = Dataset(compute_feature_meta(X, names), X, labels, Task.classification(k))
    ds.validate()
    return ds


@pytest.fixture
def reg_data() -> Dataset:
    return make_regression_dataset(11, 300, 5)


@pytest.fixture
def cls_data() -> Dataset:
    return make_classification_dataset(13, 300, 5, 3)


def random_mlp(seed: int, d: int, hidden: list[int], task: Task = Task.regression()) -> MlpModel:
    """An untrained MLP with He-scaled weights and small biases."""
    rng = RandomStream(seed)
    sizes = [d] + hidden + [task.n_outputs]
    weights = [rng.normal_matrix(a, b) * np.sqrt(2.0 / a) for a, b in zip(sizes, sizes[1:])]
    biases = [0.1 * rng.normal(b) for b in sizes[1:]]
    return MlpModel(weights=weights, biases=biases, task=task)


def no_child_processes() -> bool:
    """Whether this process has no child left, running or exited and not reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
