"""Weighted CART regression trees.

The same tree type serves as the local surrogate and as the random-forest
building block.  Fitting greedily minimizes weighted squared error; split
thresholds sit at midpoints between consecutive distinct sorted values and
routing sends x left iff x[feature] <= threshold.  Ties between equally
good splits resolve to the lowest feature index, then the lowest
threshold, so a fit is reproducible across platforms.

Split search follows CART's presorting (Breiman et al. 1984) and SLIQ's
sort-once lists (Mehta et al. 1996): each column is stable-sorted once
per tree, and a split stable-partitions the sorted lists into its
children.  A node's lists are therefore exactly what a stable sort of
its own rows would give, with equal values ordered by row index, so
every cumulative sum and every tie-break matches a per-node sort bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, RandomStream

LEAF = -1


@dataclass(frozen=True)
class TreeParams:
    """Growth limits.

    min_samples_leaf counts *weight*, not rows: a row with weight k is
    equivalent to k unit-weight copies, so integer-weighted fits match
    fits on the expanded multiset exactly.
    """

    max_depth: int = 6
    min_samples_leaf: float = 5.0
    min_weight_fraction_leaf: float = 0.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        if not 0.0 <= self.min_weight_fraction_leaf < 1.0:
            raise ConfigError("min_weight_fraction_leaf must be in [0, 1)")


@dataclass
class TreeNode:
    """One node; feature == LEAF marks a leaf (threshold/left/right unused)."""

    feature: int
    threshold: float
    left: int
    right: int
    cover: float  # sum of sample weights routed here
    value: float  # weight-weighted mean of targets routed here

    @property
    def is_leaf(self) -> bool:
        return self.feature == LEAF


@dataclass
class DecisionTree:
    nodes: list[TreeNode]
    d: int
    params: TreeParams
    root: int = 0
    _arrays: tuple | None = field(default=None, repr=False, compare=False)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """(feature, threshold, left, right, cover, value) as flat arrays."""
        if self._arrays is None:
            ns = self.nodes
            self._arrays = (
                np.array([n.feature for n in ns], dtype=np.intp),
                np.array([n.threshold for n in ns], dtype=float),
                np.array([n.left for n in ns], dtype=np.intp),
                np.array([n.right for n in ns], dtype=np.intp),
                np.array([n.cover for n in ns], dtype=float),
                np.array([n.value for n in ns], dtype=float),
            )
        return self._arrays

    @property
    def n_leaves(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)

    def depth(self) -> int:
        def walk(i: int) -> int:
            n = self.nodes[i]
            if n.is_leaf:
                return 0
            return 1 + max(walk(n.left), walk(n.right))

        return walk(self.root)

    def split_features(self) -> set[int]:
        return {n.feature for n in self.nodes if not n.is_leaf}

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "root": self.root,
            "params": {
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
                "min_weight_fraction_leaf": self.params.min_weight_fraction_leaf,
            },
            "nodes": [
                # leaf thresholds are NaN in memory; None keeps the JSON valid
                {"feature": n.feature, "threshold": None if n.is_leaf else n.threshold,
                 "left": n.left, "right": n.right, "cover": n.cover, "value": n.value}
                for n in self.nodes
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "DecisionTree":
        params = TreeParams(**data["params"])
        nodes = [TreeNode(int(n["feature"]),
                          float("nan") if n["threshold"] is None else float(n["threshold"]),
                          int(n["left"]), int(n["right"]), float(n["cover"]), float(n["value"]))
                 for n in data["nodes"]]
        return DecisionTree(nodes=nodes, d=int(data["d"]), params=params, root=int(data["root"]))


def _weighted_mean(y: np.ndarray, w: np.ndarray, wsum: float) -> float:
    # anchored at y[0] so a constant target yields that constant exactly
    y0 = y[0]
    return float(y0 + np.dot(w, y - y0) / wsum)


def _best_split(rows, vals, w, wu, wsum, total_s, min_leaf_w):
    """Best (list, threshold) by weighted-SSE gain over presorted lists.

    rows is (k, m): each row lists the node's row ids sorted by one
    candidate feature, and vals holds the matching feature values.  w is
    the sample weight and wu the weight times the node-centered target,
    both indexed by row id.  Returns (list index, threshold) or None.

    Gain is the decrease in weighted SSE, computed in node-centered form
    so it is non-negative by construction.  The cumulative sums run along
    each list, and all lists are scanned as one flat array in which the
    last position of each list is no candidate.  The first maximum in
    flat order is the lowest list, then the lowest threshold.
    """
    m = rows.shape[1]
    cw = np.cumsum(w.take(rows), axis=1).ravel()[:-1]
    cs = np.cumsum(wu.take(rows), axis=1).ravel()[:-1]
    v = vals.ravel()
    rest = wsum - cw
    ok = v[1:] > v[:-1]
    ok &= cw >= min_leaf_w
    ok &= rest >= min_leaf_w
    ok[m - 1::m] = False  # a list's end: the next value belongs to another list
    cand = np.flatnonzero(ok)
    if cand.size == 0:
        return None
    sl = cs.take(cand)
    sr = total_s - sl
    gain = sl * sl / cw.take(cand) + sr * sr / rest.take(cand)
    best = int(np.argmax(gain))
    if not gain[best] > 0.0:
        return None
    p = int(cand[best])
    lo, hi = v[p], v[p + 1]
    threshold = 0.5 * (lo + hi)
    if threshold >= hi:  # adjacent floats: keep right side non-empty
        threshold = lo
    return p // m, float(threshold)


def _partition(rows, vals, keep):
    """The sorted lists restricted to the row ids where keep is true.

    One flat selection keeps each list's order (a stable partition), and
    every list keeps the same number of entries.
    """
    pos = np.flatnonzero(keep.take(rows))
    k = rows.shape[0]
    return rows.take(pos).reshape(k, -1), vals.take(pos).reshape(k, -1)


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    params: TreeParams,
    *,
    _feature_rng: RandomStream | None = None,
    _mtry: int | None = None,
) -> DecisionTree:
    """Grow a weighted CART regression tree.

    Zero-weight rows have no effect on the fit.  Recursion stops at
    max_depth, at the leaf-weight minimums, at zero weighted variance, or
    when no split improves weighted SSE.  The private _feature_rng/_mtry
    hooks restrict each split search to a random feature subset (used by
    the random forest); without them the search is exhaustive.

    A stable argsort of the live rows, once at the root, lists each
    feature's row ids in value order; a split stable-partitions these
    lists into its children, so equal values stay ordered by row index
    as a fresh stable sort of each node would order them.  A child
    builds its lists only when it searches for a split.  Node sums
    (cover, mean, SSE) run over the node's rows in ascending index order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or y.shape != w.shape:
        raise ValueError("X, y, w must be (n, d), (n,), (n,) with matching n")
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise ValueError("X, y, w must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    live = np.nonzero(w > 0)[0]
    if live.size == 0:
        raise ValueError("all weights are zero")

    d = X.shape[1]
    Xt = np.ascontiguousarray(X.T)
    total_w = float(w[live].sum())
    min_leaf_w = max(float(params.min_samples_leaf),
                     params.min_weight_fraction_leaf * total_w)
    wu = np.zeros_like(w)  # w * (y - node value) of the node being split, by row id
    nodes: list[TreeNode] = []

    def presort() -> tuple[np.ndarray, np.ndarray]:
        cols = Xt[:, live]
        order = np.argsort(cols, axis=1, kind="stable")
        return live.take(order), np.take_along_axis(cols, order, axis=1)

    def grow(idx: np.ndarray, depth: int, parent: tuple | None) -> int:
        # parent: the parent's sorted lists and the mask of this child's
        # row ids, partitioned on demand; None at the root
        wi = w[idx]
        wsum = float(wi.sum())
        yi = y[idx]
        value = _weighted_mean(yi, wi, wsum)
        node_id = len(nodes)
        nodes.append(TreeNode(LEAF, float("nan"), LEAF, LEAF, wsum, value))
        u = yi - value
        sse = float(np.dot(wi, u * u))
        if depth >= params.max_depth or sse <= 0.0:
            return node_id
        rows, vals = presort() if parent is None else _partition(*parent)
        if _mtry is not None and _mtry < d:
            features = np.sort(_feature_rng.choice(d, size=_mtry, replace=False))
            scan_rows, scan_vals = rows[features], vals[features]
        else:
            features = None
            scan_rows, scan_vals = rows, vals
        un = wi * u
        wu[idx] = un
        found = _best_split(scan_rows, scan_vals, w, wu, wsum, float(un.sum()), min_leaf_w)
        if found is None:
            return node_id
        j, threshold = found
        feature = j if features is None else int(features[j])
        goes_left = Xt[feature] <= threshold
        left = goes_left[idx]
        node = nodes[node_id]
        node.feature = feature
        node.threshold = threshold
        node.left = grow(idx[left], depth + 1, (rows, vals, goes_left))
        node.right = grow(idx[~left], depth + 1, (rows, vals, ~goes_left))
        return node_id

    grow(live, 0, None)
    return DecisionTree(nodes=nodes, d=d, params=params)


def predict_tree(tree: DecisionTree, x: np.ndarray) -> float:
    """Value of the unique leaf x reaches (<= goes left)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.d,):
        raise ValueError(f"expected a row of length {tree.d}, got shape {x.shape}")
    node = tree.nodes[tree.root]
    while not node.is_leaf:
        node = tree.nodes[node.left if x[node.feature] <= node.threshold else node.right]
    return node.value


def predict_batch(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Vectorized predict_tree over the rows of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != tree.d:
        raise ValueError(f"expected (n, {tree.d}) matrix, got shape {X.shape}")
    feature, threshold, left, right, _, value = tree.arrays()
    current = np.full(X.shape[0], tree.root, dtype=np.intp)
    active = feature[current] != LEAF
    while active.any():
        rows = np.nonzero(active)[0]
        nodes = current[rows]
        goes_left = X[rows, feature[nodes]] <= threshold[nodes]
        current[rows] = np.where(goes_left, left[nodes], right[nodes])
        active[rows] = feature[current[rows]] != LEAF
    return value[current]
