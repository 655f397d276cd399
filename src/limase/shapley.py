"""Exact Shapley attribution for decision trees.

Three routes to the same numbers, used to cross-check each other:

* :func:`shapley_brute_force` enumerates every coalition and applies the
  factorial-weighted marginal-contribution sum directly (exact rational
  weights, one float conversion).
* :func:`tree_conditional_value` defines the cover-weighted conditional
  value function of a tree, and :func:`enumerate_tree_values` tabulates it
  over all coalitions at once.
* :func:`tree_shap` and :func:`forest_shap` compute the identical
  attribution in polynomial time.  Each leaf's share of the value
  function is a product game over the distinct features on its path
  (Linear TreeShap, Yu et al., arXiv:2209.08192), so one polynomial per
  leaf gives every feature's Shapley value, for all leaves of all
  explained trees in one vectorized pass.  The oracles above share no
  code with this kernel.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable

import numpy as np

from .core import check_row
from .trees import LEAF, DecisionTree, TreeStack

MAX_ENUMERATION_FEATURES = 24


def _node_lists(tree: DecisionTree) -> tuple[list, ...]:
    """The tree's five node arrays as Python lists, for per-node recursion."""
    return tuple(a.tolist() for a in (tree.feature, tree.threshold, tree.child,
                                       tree.cover, tree.value))


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
    feature, threshold, child, cover, value = _node_lists(tree)

    def walk(i: int) -> float:
        f = feature[i]
        if f == LEAF:
            return value[i]
        r, l = child[i]
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
    feature, threshold, child, cover, value = _node_lists(tree)

    def walk(i: int, factor: np.ndarray) -> None:
        f = feature[i]
        if f == LEAF:
            total[:] += factor * value[i]
            return
        goes_left = x[f] <= threshold[i]
        member = in_coalition[f]
        r, l = child[i]
        walk(l, factor * np.where(member, 1.0 if goes_left else 0.0, cover[l] / cover[i]))
        walk(r, factor * np.where(member, 0.0 if goes_left else 1.0, cover[r] / cover[i]))

    walk(0, np.ones(n_masks))
    return total


def _leaf_boxes(stack: TreeStack, first: int, stop: int) -> tuple[np.ndarray, ...]:
    """Every leaf of the stack's trees first to stop - 1 as a box.

    A box has one slot per distinct feature on the leaf's path.  All
    leaves walk up to their roots together, one vectorized step per
    level.  Returns (feature, lo, hi, z, value): the splits on the path
    of leaf l that test feature[l, j] send x there iff lo[l, j] < x <=
    hi[l, j], and their cover ratios multiply to z[l, j].  A leaf with
    fewer distinct features than the widest is padded with null players:
    feature d, an unbounded interval and z = 1.
    """
    span, d = slice(int(stack.start[first]), int(stack.start[stop])), stack.d
    feature, threshold = stack.feature[span], stack.threshold[span]
    cover, value = stack.cover[span], stack.value[span]
    right, left = (stack.child[span] - span.start).T  # a leaf's children go unread
    internal = np.flatnonzero(feature != LEAF)
    parent = np.full(feature.size, -1)
    parent[left[internal]] = internal
    parent[right[internal]] = internal

    # one (leaf, node) record per split on a leaf's path: node is the child taken
    leaves = np.flatnonzero(feature == LEAF)
    owners, nodes = [], []
    owner, node = np.arange(leaves.size), leaves
    while node.size:
        up = parent[node]
        keep = up >= 0
        owner, node = owner[keep], node[keep]
        owners.append(owner)
        nodes.append(node)
        node = up[keep]
    node = np.concatenate(nodes)
    split = parent[node]

    # the records of one (leaf, feature) pair merge into one slot
    key = np.concatenate(owners) * d + feature[split]
    order = np.argsort(key, kind="stable")
    node, split, key = node[order], split[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    leaf, f = np.divmod(key[starts], d)
    t = threshold[split]
    went_left = left[split] == node
    hi = np.minimum.reduceat(np.where(went_left, t, np.inf), starts)
    lo = np.maximum.reduceat(np.where(went_left, -np.inf, t), starts)
    z = np.multiply.reduceat(cover[node] / cover[split], starts)
    width = np.bincount(leaf, minlength=leaves.size)
    slot = np.arange(starts.size) - (np.cumsum(width) - width)[leaf]

    shape = (leaves.size, max(1, int(width.max())))
    boxes = (np.full(shape, d), np.full(shape, -np.inf), np.full(shape, np.inf), np.ones(shape))
    for box, slots in zip(boxes, (f, lo, hi, z)):
        box[leaf, slot] = slots
    return boxes + (value[leaves],)


def _box_shap(boxes: tuple[np.ndarray, ...], x: np.ndarray) -> tuple[np.ndarray, float]:
    """phi and the model value at x of the sum of the leaf games in boxes.

    With o_j = 1 when x lies in slot j's interval, leaf l is the product
    game v(S) = value[l] * prod_{j in S} o_j * prod_{j not in S} z_j over
    its D slots (Linear TreeShap, Yu et al. 2022).  Slot i's Shapley value
    is value[l] * (o_i - z_i) * sum_k w_k [t^k] prod_{j != i} (z_j + o_j t)
    with w_k = k! (D-1-k)! / D!.  The product over all slots is built once;
    slot i's factor comes out by synthetic division when o_i = 1 (no
    division, and stable as z_i <= 1) and by dividing by z_i when o_i = 0.
    """
    feature, lo, hi, z, value = boxes
    d = x.size
    xs = np.append(x, 0.0)[feature]  # padded slots test 0 against (-inf, inf]
    inside = (xs > lo) & (xs <= hi)
    o = inside.astype(float)
    n_leaves, width = z.shape
    poly = np.zeros((n_leaves, width + 1))  # coefficient of t^k in column k
    poly[:, 0] = 1.0
    for j in range(width):
        grown = poly * z[:, j, None]
        grown[:, 1:] += poly[:, :-1] * o[:, j, None]
        poly = grown
    w = np.array([1.0 / (width * comb(width - 1, k)) for k in range(width)])
    q = np.broadcast_to(poly[:, width, None], z.shape)
    by_one = w[width - 1] * q
    for k in range(width - 1, 0, -1):
        q = poly[:, k, None] - z * q
        by_one += w[k - 1] * q
    by_zero = (poly[:, :width] @ w)[:, None] / z
    contrib = value[:, None] * (o - z) * np.where(inside, by_one, by_zero)
    phi = np.bincount(feature.ravel(), contrib.ravel(), minlength=d + 1)[:d]
    fx = float(value[inside.all(axis=1)].sum())
    return phi, fx


def tree_shap(tree: DecisionTree, x: np.ndarray) -> ShapExplanation:
    """Exact Shapley values of the tree's conditional value function at x.

    Identical to shapley_brute_force over tree_conditional_value, but in
    time polynomial in leaves x depth^2 rather than exponential in d.
    Features never split on receive an exact zero.
    """
    x = check_row(x, tree.d)
    start = time.perf_counter()
    phi, fx = _box_shap(_leaf_boxes(tree, 0, 1), x)
    elapsed = (time.perf_counter() - start) * 1000.0
    return ShapExplanation(
        base_value=float(tree.value[0]),
        phi=phi,
        fx=fx,
        instance=x.copy(),
        explainer="treeshap",
        elapsed_ms=elapsed,
    )


def forest_leaf_boxes(forest, output: int) -> tuple[np.ndarray, ...]:
    """The output's leaf boxes (see _leaf_boxes), each leaf's value divided by its trees.

    The boxes do not depend on x, so each output's are built on first use
    and kept in forest.leaf_boxes; this is the one reader and writer of
    that cache.
    """
    boxes = forest.leaf_boxes.get(output)
    if boxes is None:
        first, stop = forest.class_span(output)
        feature, lo, hi, z, value = _leaf_boxes(forest.stack, first, stop)
        boxes = forest.leaf_boxes[output] = (feature, lo, hi, z, value / (stop - first))
    return boxes


def build_forest_boxes(forest, X: np.ndarray, class_index: int | None = None) -> None:
    """Build the leaf boxes that forest_shap(forest, x, class_index) needs for each row x of X.

    Those are class_index's, output 0's for regression, or else those of
    the rows' predicted classes, read from one predict call.  A batch
    that calls this first times its row 0 without the one-time build,
    and forked workers inherit every output the rows explain.
    """
    forest.task.check_class_index(class_index)
    if class_index is not None or not forest.task.is_classification:
        outputs = [class_index or 0]
    else:
        outputs = np.unique(np.argmax(forest.predict(X).values, axis=1)).tolist()
    for output in outputs:
        forest_leaf_boxes(forest, output)


def forest_shap(forest, x: np.ndarray, class_index: int | None = None) -> ShapExplanation:
    """Shapley values of the forest's mean tree game (Shapley linearity).

    All explained trees go through one leaf-box pass, each leaf's value
    divided by the number of trees (forest_leaf_boxes).
    For classification the explained scalar is the selected class's
    pre-normalization score (mean of that class's trees); default is the
    model's predicted class at x.
    """
    x = check_row(x, forest.d)
    start = time.perf_counter()
    forest.task.check_class_index(class_index)
    if forest.task.is_classification and class_index is None:
        class_index = forest.predicted_class(x)
    output = 0 if class_index is None else class_index
    first, stop = forest.class_span(output)
    phi, fx = _box_shap(forest_leaf_boxes(forest, output), x)
    base = float(np.mean(forest.stack.value[forest.stack.start[first:stop]]))
    elapsed = (time.perf_counter() - start) * 1000.0
    return ShapExplanation(
        base_value=base, phi=phi, fx=fx, instance=x.copy(),
        explainer="treeshap", elapsed_ms=elapsed, class_index=class_index,
    )
