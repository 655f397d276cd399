"""Exact Shapley attribution for decision trees.

Three routes to the same numbers, used to cross-check each other:

* :func:`shapley_brute_force` enumerates every coalition and applies the
  factorial-weighted marginal-contribution sum directly (exact rational
  weights, one float conversion).
* :func:`tree_conditional_value` defines the cover-weighted conditional
  value function of a tree, and :func:`enumerate_tree_values` tabulates it
  over all coalitions at once.
* :func:`tree_shap` computes the identical attribution in polynomial time
  by carrying the weighted distribution of coalition sizes down each
  root-to-leaf path (extend/unwind bookkeeping).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

import numpy as np

from .trees import LEAF, DecisionTree

MAX_ENUMERATION_FEATURES = 24


def _node_lists(tree: DecisionTree) -> tuple[list, ...]:
    """The tree's six node arrays as Python lists, for per-node recursion."""
    return tuple(a.tolist() for a in (tree.feature, tree.threshold, tree.left,
                                      tree.right, tree.cover, tree.value))


@dataclass
class ShapExplanation:
    """Base value, per-feature attribution and the explained output.

    The efficiency identity base_value + sum(phi) == fx holds within
    1e-9 for exact explainers and 1e-6 for the kernel estimator.
    """

    base_value: float
    phi: np.ndarray
    fx: float
    instance: np.ndarray
    explainer: str
    elapsed_ms: float | None = None
    class_index: int | None = None

    @property
    def d(self) -> int:
        return self.phi.shape[0]

    def efficiency_gap(self) -> float:
        return float(self.base_value + self.phi.sum() - self.fx)

    def to_json_dict(self, feature_names: list[str] | None = None) -> dict:
        return {
            "explainer": self.explainer,
            "base_value": self.base_value,
            "fx": self.fx,
            "phi": [float(v) for v in self.phi],
            "feature_names": feature_names,
            "instance": [float(v) for v in self.instance],
            "class_index": self.class_index,
            "elapsed_ms": self.elapsed_ms,
        }


def _coalition_mask(S: int | Iterable[int], d: int) -> int:
    if isinstance(S, (int, np.integer)):
        mask = int(S)
        if mask < 0 or mask >= (1 << d):
            raise ValueError(f"coalition mask {mask} out of range for d={d}")
        return mask
    mask = 0
    for i in S:
        if not 0 <= i < d:
            raise ValueError(f"feature {i} out of range for d={d}")
        mask |= 1 << i
    return mask


def shapley_brute_force(v: Callable[[int], float], d: int) -> np.ndarray:
    """Exact Shapley values of the coalition game v by full enumeration.

    v maps an integer bitmask (bit i set = feature i present) to a real.
    The |s|!(d-|s|-1)!/d! weights are built as exact integer ratios and
    converted to float once, so they stay exact for d <= 24.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > MAX_ENUMERATION_FEATURES:
        raise ValueError(f"d={d} too large for 2^d enumeration (max {MAX_ENUMERATION_FEATURES})")
    n_masks = 1 << d
    values = np.fromiter((v(m) for m in range(n_masks)), dtype=float, count=n_masks)
    masks = np.arange(n_masks, dtype=np.uint64)
    sizes = np.bitwise_count(masks).astype(np.intp)
    weights = np.array(
        [float(Fraction(factorial(s) * factorial(d - s - 1), factorial(d))) for s in range(d)]
    )
    phi = np.empty(d)
    for i in range(d):
        without = ((masks >> np.uint64(i)) & np.uint64(1)) == 0
        sub = masks[without].astype(np.intp)
        phi[i] = float(np.dot(weights[sizes[sub]], values[sub | (1 << i)] - values[sub]))
    return phi


def tree_conditional_value(tree: DecisionTree, x: np.ndarray, S: int | Iterable[int]) -> float:
    """Cover-weighted conditional expectation of the tree given x on S.

    At a node splitting on a feature in S the traversal follows x's
    branch; otherwise both branches contribute weighted by cover.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.d,):
        raise ValueError(f"expected a row of length {tree.d}, got shape {x.shape}")
    mask = _coalition_mask(S, tree.d)
    feature, threshold, left, right, cover, value = _node_lists(tree)

    def walk(i: int) -> float:
        f = feature[i]
        if f == LEAF:
            return value[i]
        l, r = left[i], right[i]
        if (mask >> f) & 1:
            return walk(l if x[f] <= threshold[i] else r)
        return (cover[l] * walk(l) + cover[r] * walk(r)) / cover[i]

    return walk(0)


def enumerate_tree_values(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    """tree_conditional_value tabulated for all 2^d coalitions at once.

    Returns an array indexed by coalition bitmask; the backend for
    brute-force oracle comparisons, vectorized over masks per leaf path.
    """
    x = np.asarray(x, dtype=float)
    d = tree.d
    if x.shape != (d,):
        raise ValueError(f"expected a row of length {d}, got shape {x.shape}")
    if d > MAX_ENUMERATION_FEATURES:
        raise ValueError(f"d={d} too large for 2^d enumeration")
    n_masks = 1 << d
    masks = np.arange(n_masks, dtype=np.uint64)
    in_coalition = [((masks >> np.uint64(f)) & np.uint64(1)).astype(bool) for f in range(d)]
    total = np.zeros(n_masks)
    feature, threshold, left, right, cover, value = _node_lists(tree)

    def walk(i: int, factor: np.ndarray) -> None:
        f = feature[i]
        if f == LEAF:
            total[:] += factor * value[i]
            return
        goes_left = x[f] <= threshold[i]
        member = in_coalition[f]
        l, r = left[i], right[i]
        walk(l, factor * np.where(member, 1.0 if goes_left else 0.0, cover[l] / cover[i]))
        walk(r, factor * np.where(member, 0.0 if goes_left else 1.0, cover[r] / cover[i]))

    walk(0, np.ones(n_masks))
    return total


class _Path:
    """Decision-path bookkeeping for the polynomial tree explainer.

    Tracks, for each distinct feature on the current path, the fraction of
    coalitions that keep the path alive when the feature is absent (zero
    fraction, a cover ratio) or present (one fraction, 0/1 by routing),
    plus the permutation-weight mass per coalition size (pweight).
    """

    __slots__ = ("features", "zeros", "ones", "pweights")

    def __init__(self):
        self.features: list[int] = []
        self.zeros: list[float] = []
        self.ones: list[float] = []
        self.pweights: list[float] = []

    def copy(self) -> "_Path":
        p = _Path.__new__(_Path)
        p.features = self.features.copy()
        p.zeros = self.zeros.copy()
        p.ones = self.ones.copy()
        p.pweights = self.pweights.copy()
        return p

    def extend(self, pz: float, po: float, pi: int) -> None:
        l = len(self.features)
        self.features.append(pi)
        self.zeros.append(pz)
        self.ones.append(po)
        self.pweights.append(1.0 if l == 0 else 0.0)
        pw = self.pweights
        for i in range(l - 1, -1, -1):
            pw[i + 1] += po * pw[i] * (i + 1) / (l + 1)
            pw[i] = pz * pw[i] * (l - i) / (l + 1)

    def unwind(self, index: int) -> None:
        l = len(self.features) - 1
        po = self.ones[index]
        pz = self.zeros[index]
        pw = self.pweights
        n = pw[l]
        for j in range(l - 1, -1, -1):
            if po != 0.0:
                t = pw[j]
                pw[j] = n * (l + 1) / ((j + 1) * po)
                n = t - pw[j] * pz * (l - j) / (l + 1)
            else:
                pw[j] = pw[j] * (l + 1) / (pz * (l - j))
        for j in range(index, l):
            self.features[j] = self.features[j + 1]
            self.zeros[j] = self.zeros[j + 1]
            self.ones[j] = self.ones[j + 1]
        self.features.pop()
        self.zeros.pop()
        self.ones.pop()
        self.pweights.pop()

    def unwound_sum(self, index: int) -> float:
        """Total permutation weight if entry `index` were unwound."""
        l = len(self.features) - 1
        po = self.ones[index]
        pz = self.zeros[index]
        pw = self.pweights
        n = pw[l]
        total = 0.0
        for j in range(l - 1, -1, -1):
            if po != 0.0:
                t = n * (l + 1) / ((j + 1) * po)
                total += t
                n = pw[j] - t * pz * (l - j) / (l + 1)
            else:
                total += pw[j] * (l + 1) / (pz * (l - j))
        return total


def tree_shap(tree: DecisionTree, x: np.ndarray) -> ShapExplanation:
    """Exact Shapley values of the tree's conditional value function at x.

    Identical to shapley_brute_force over tree_conditional_value, but in
    time polynomial in leaves x depth^2 rather than exponential in d.
    Features never split on receive an exact zero.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.d,):
        raise ValueError(f"expected a row of length {tree.d}, got shape {x.shape}")
    start = time.perf_counter()
    phi = np.zeros(tree.d)
    feature, threshold, left, right, cover, value = _node_lists(tree)

    def recurse(i: int, path: _Path, pz: float, po: float, pi: int) -> float:
        """Add the leaves under node i to phi; return the value of the leaf x reaches."""
        path = path.copy()
        path.extend(pz, po, pi)
        f = feature[i]
        if f == LEAF:
            for k in range(1, len(path.features)):
                w = path.unwound_sum(k)
                phi[path.features[k]] += w * (path.ones[k] - path.zeros[k]) * value[i]
            return value[i]
        if x[f] <= threshold[i]:
            hot, cold = left[i], right[i]
        else:
            hot, cold = right[i], left[i]
        hot_ratio = cover[hot] / cover[i]
        cold_ratio = cover[cold] / cover[i]
        incoming_zero = 1.0
        incoming_one = 1.0
        try:
            k = path.features.index(f, 1)  # slot 0 is the root placeholder
        except ValueError:
            k = -1
        if k >= 0:
            incoming_zero = path.zeros[k]
            incoming_one = path.ones[k]
            path.unwind(k)
        fx = recurse(hot, path, incoming_zero * hot_ratio, incoming_one, f)
        recurse(cold, path, incoming_zero * cold_ratio, 0.0, f)
        return fx

    fx = recurse(0, _Path(), 1.0, 1.0, -1)
    elapsed = (time.perf_counter() - start) * 1000.0
    return ShapExplanation(
        base_value=value[0],
        phi=phi,
        fx=fx,
        instance=x.copy(),
        explainer="treeshap",
        elapsed_ms=elapsed,
    )


def forest_shap(forest, x: np.ndarray, class_index: int | None = None) -> ShapExplanation:
    """Per-tree tree_shap averaged over the forest (Shapley linearity).

    For classification the explained scalar is the selected class's
    pre-normalization score (mean of that class's trees); default is the
    model's predicted class at x.
    """
    if not forest.trees:
        raise ValueError("empty forest")
    x = np.asarray(x, dtype=float)
    start = time.perf_counter()
    if forest.task.is_classification:
        if class_index is None:
            class_index = forest.predicted_class(x)
        if not 0 <= class_index < forest.task.n_classes:
            raise ValueError(f"class_index {class_index} out of range")
        trees = forest.class_trees(class_index)
    else:
        if class_index is not None:
            raise ValueError("class_index given for a regression forest")
        trees = forest.trees
    parts = [tree_shap(t, x) for t in trees]
    phi = np.mean([p.phi for p in parts], axis=0)
    base = float(np.mean([p.base_value for p in parts]))
    fx = float(np.mean([p.fx for p in parts]))
    elapsed = (time.perf_counter() - start) * 1000.0
    return ShapExplanation(
        base_value=base, phi=phi, fx=fx, instance=x.copy(),
        explainer="treeshap", elapsed_ms=elapsed, class_index=class_index,
    )
