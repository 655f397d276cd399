"""Weighted CART regression trees.

The same tree type serves as the local surrogate and as the random-forest
building block.  Every tree lives in one node layout, TreeStack: preorder
node arrays in which child[i] holds node i's two children, right then
left, and a leaf is its own child.  A DecisionTree is a stack of one
tree, and a forest stacks its trees end to end with each tree's child
indices offset, so prediction and the tree explainer walk one tree or
many the same way.  Only the JSON form (to_dict/from_dict) spells the
children as left and right, with LEAF at leaves.

Fitting greedily minimizes weighted squared error; split thresholds sit
at midpoints between consecutive distinct sorted values and routing
sends x left iff x[feature] <= threshold.  Ties between equally good
splits resolve to the lowest feature index, then the lowest threshold,
so a fit is reproducible across platforms.

Split search follows CART's presorting (Breiman et al. 1984) and SLIQ's
sort-once lists (Mehta et al. 1996): each column is stable-sorted once
per tree, and a split stable-partitions the sorted lists into its
children.  A node's lists are therefore exactly what a stable sort of
its own rows would give, with equal values ordered by row index, so
every cumulative sum and every tie-break matches a per-node sort bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConfigError, DataError, RandomStream
from .stripes import stripe_map

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

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not 1 <= self.min_samples_leaf < np.inf:  # NaN fails this too
            raise ConfigError(f"min_samples_leaf must be finite and >= 1, "
                              f"got {self.min_samples_leaf}")


@dataclass(eq=False)
class TreeStack:
    """Trees' node arrays end to end, walked as one.

    Tree t owns nodes start[t] to start[t + 1] - 1 in its own preorder,
    so its root is node start[t].  Node i splits on feature[i] at
    threshold[i]; child[i, 1] is where x goes when x[feature[i]] <=
    threshold[i] and child[i, 0] where it goes otherwise, both as stacked
    indices.  A leaf has feature LEAF, a NaN threshold and itself as both
    children, so depth levels of the walk bring every row of every tree
    to its leaf.  cover[i] is the sum of sample weights routed to node i
    and value[i] their weight-weighted mean target.
    """

    feature: np.ndarray  # intp
    threshold: np.ndarray
    child: np.ndarray  # (n_nodes, 2) intp
    cover: np.ndarray
    value: np.ndarray
    start: np.ndarray  # (n_trees + 1,) intp
    d: int

    @property
    def n_trees(self) -> int:
        return self.start.size - 1

    @cached_property
    def depth(self) -> int:
        """The deepest tree's depth, found level by level on first use."""
        level, frontier = 0, self.start[:-1]
        while True:
            frontier = frontier[self.feature[frontier] != LEAF]
            if frontier.size == 0:
                return level
            frontier = self.child[frontier].ravel()
            level += 1


@dataclass(eq=False)
class DecisionTree(TreeStack):
    """A fitted tree: a TreeStack of one tree (start is [0, n], root node 0).

    params are the growth limits it was fitted under.
    """

    params: TreeParams

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == LEAF))

    def to_dict(self) -> dict:
        # the JSON format names the children left and right, LEAF at leaves
        right, left = np.where((self.feature == LEAF)[:, None], LEAF, self.child).T
        columns = (self.feature, self.threshold, left, right, self.cover, self.value)
        return {
            "d": self.d,
            "root": 0,
            "params": {
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
            },
            "nodes": [
                # leaf thresholds are NaN in memory; None keeps the JSON valid
                {"feature": f, "threshold": None if f == LEAF else t,
                 "left": l, "right": r, "cover": c, "value": v}
                for f, t, l, r, c, v in zip(*(a.tolist() for a in columns))
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "DecisionTree":
        if int(data["root"]) != 0:
            raise DataError(f"tree root must be node 0, got {data['root']}")
        rows = [(n["feature"], np.nan if n["threshold"] is None else n["threshold"],
                 n["left"], n["right"], n["cover"], n["value"]) for n in data["nodes"]]
        if not rows:
            raise DataError("tree has no nodes")
        params = dict(data["params"])
        # older files hold min_weight_fraction_leaf; at 0.0 it never changed a fit
        fraction = params.pop("min_weight_fraction_leaf", 0.0)
        if fraction != 0.0:
            raise DataError(f"min_weight_fraction_leaf {fraction!r} is not supported; "
                            f"only 0.0 loads")
        tree = _from_rows(rows, int(data["d"]), TreeParams(**params))
        # Preorder puts both children after their parent, so every walk ends;
        # the explainers divide by covers and sum values.
        left, right = np.array([row[2:4] for row in rows], dtype=np.intp).T
        n, index = len(rows), np.arange(len(rows))
        internal = tree.feature != LEAF
        bad = np.flatnonzero(
            internal & ((tree.feature < 0) | (tree.feature >= tree.d)
                        | (left <= index) | (left >= n)
                        | (right <= index) | (right >= n)
                        | ~np.isfinite(tree.threshold))
            | ~internal & ((left != LEAF) | (right != LEAF))
            | ~(np.isfinite(tree.cover) & (tree.cover > 0)) | ~np.isfinite(tree.value))
        if bad.size:
            i = int(bad[0])
            raise DataError(f"tree node {i} of {n} is malformed: feature {tree.feature[i]} "
                            f"(d={tree.d}), threshold {tree.threshold[i]}, children "
                            f"{left[i]} and {right[i]}, cover {tree.cover[i]}, "
                            f"value {tree.value[i]}")
        return tree


def _from_rows(rows: list, d: int, params: TreeParams) -> DecisionTree:
    """A tree from preorder (feature, threshold, left, right, cover, value) rows.

    A leaf row's left and right are LEAF; the tree points them at the leaf.
    """
    feature, threshold, left, right, cover, value = zip(*rows)
    feature = np.array(feature, dtype=np.intp)
    child = np.where((feature == LEAF)[:, None], np.arange(feature.size)[:, None],
                     np.array([right, left], dtype=np.intp).T)
    return DecisionTree(
        feature, np.array(threshold, dtype=float), child, np.array(cover, dtype=float),
        np.array(value, dtype=float), np.array([0, feature.size], dtype=np.intp), d, params)


def _weighted_mean(y: np.ndarray, w: np.ndarray, wsum: float) -> float:
    # anchored at y[0] so a constant target yields that constant exactly
    y0 = y[0]
    return float(y0 + np.dot(w, y - y0) / wsum)


def _presort(Xt: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's live row ids in value order, and which columns have ties.

    Returns (rows, tied): rows is (d, live.size), equal values ordered by
    row id, and tied[f] says whether column f has two equal live values
    (-0.0 == 0.0 counts).  Distinct values have one sorted order, so the
    fast sort is exact except on tied columns, which are sorted again
    stably.
    """
    cols = Xt[:, live]
    order = np.argsort(cols, axis=1)
    vals = np.take_along_axis(cols, order, axis=1)
    tied = (vals[:, 1:] == vals[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(cols[tied], axis=1, kind="stable")
    return live.take(order), tied


def _best_split(Xt, rows, features, tied, wc, wsum, total_s, min_leaf_w):
    """Best (list, threshold) by weighted-SSE gain over presorted lists.

    rows is (k, m): row j lists the node's row ids sorted by column
    features[j] of Xt, and tied[j] says whether that column has ties.  wc
    holds, by row id, the sample weight in .real and the weight times the
    node-centered target in .imag, so one cumulative sum along the lists
    runs both sums: numpy adds the two parts of a complex number as two
    independent float additions.  Returns (list index, threshold) or None.

    Gain is the decrease in weighted SSE, computed in node-centered form
    so it is non-negative by construction.  Position p of list j splits
    after its p-th entry; it is a candidate when both sides weigh at least
    min_leaf_w and, on a tied column, the next value is larger (an untied
    column's lists are strictly increasing).  The first maximum over the
    (k, m - 1) block in row-major order is the lowest list, then the
    lowest threshold.
    """
    k, m = rows.shape
    if m < 2:
        return None
    c = np.cumsum(wc.take(rows), axis=1)[:, :-1]
    cw, cs = c.real, c.imag
    with np.errstate(all="ignore"):  # non-candidates may divide by zero
        rest = wsum - cw
        sr = total_s - cs
        sr *= sr
        sr /= rest
        gain = cs * cs
        gain /= cw
        gain += sr
    bad = cw < min_leaf_w
    bad |= rest < min_leaf_w
    for j in np.flatnonzero(tied):
        v = Xt[features[j]].take(rows[j])
        bad[j] |= v[1:] <= v[:-1]
    np.copyto(gain, -np.inf, where=bad)
    best = int(np.argmax(gain))
    if not gain.flat[best] > 0.0:
        return None
    j, p = divmod(best, m - 1)
    x = Xt[features[j]]
    lo, hi = x[rows[j, p]], x[rows[j, p + 1]]
    threshold = 0.5 * lo + 0.5 * hi  # halves first: lo + hi may overflow
    if threshold >= hi:  # adjacent floats: keep right side non-empty
        threshold = lo
    return j, float(threshold)


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
    max_depth, at the leaf-weight minimum, at zero weighted variance, or
    when no split improves weighted SSE.  The private _feature_rng/_mtry
    hooks restrict each split search to a random feature subset (used by
    the random forest); without them the search is exhaustive.

    A sort of the live rows, once at the root, lists each feature's row
    ids in value order, equal values by row index; a split
    stable-partitions these lists into its children, so equal values stay
    ordered by row index as a fresh stable sort of each node would order
    them.  A child builds its lists only when it searches for a split.
    Node sums (cover, mean, SSE) run over the node's rows in ascending
    index order.

    A node lighter than 2 * min_leaf_w is a leaf without a search, after
    its feature draw: a candidate's left weight cw is at least min_leaf_w,
    so more than half the node's weight wsum, and wsum - cw is then exact
    (Sterbenz) and below min_leaf_w, so the search would find nothing.
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
    min_leaf_w = float(params.min_samples_leaf)
    # by row id: .real is w, .imag is w * (y - node value) of the node being split
    wc = w.astype(complex)
    root_rows, tied = _presort(Xt, live)
    nodes: list[list] = []  # rows for _from_rows, in preorder

    def grow(idx: np.ndarray, depth: int, lists) -> int:
        # lists() returns the node's sorted lists; called only to search
        wi = w[idx]
        wsum = float(wi.sum())
        yi = y[idx]
        value = _weighted_mean(yi, wi, wsum)
        node_id = len(nodes)
        nodes.append([LEAF, float("nan"), LEAF, LEAF, wsum, value])
        if depth >= params.max_depth:
            return node_id
        u = yi - value
        if float(np.dot(wi, u * u)) <= 0.0:
            return node_id
        if _mtry is not None and _mtry < d:
            features = np.sort(_feature_rng.choice(d, size=_mtry, replace=False))
        else:
            features = None
        if wsum < 2.0 * min_leaf_w:
            return node_id
        rows = lists()
        if features is None:
            features, scan = np.arange(d), rows
        else:
            scan = rows[features]
        un = wi * u
        wc.imag[idx] = un
        found = _best_split(Xt, scan, features, tied[features], wc, wsum,
                            float(un.sum()), min_leaf_w)
        if found is None:
            return node_id
        j, threshold = found
        feature = int(features[j])
        goes_left = Xt[feature] <= threshold
        left = goes_left[idx]
        side = None  # goes_left gathered onto rows, once, by the first child to search

        def child_lists(is_left: bool) -> np.ndarray:
            # one flat selection keeps each list's order (a stable partition),
            # and every list keeps the same number of entries
            nonlocal side
            if side is None:
                side = goes_left.take(rows)
            keep = np.flatnonzero(side if is_left else ~side)
            return rows.take(keep).reshape(rows.shape[0], -1)

        nodes[node_id][:2] = feature, threshold
        nodes[node_id][2] = grow(idx[left], depth + 1, lambda: child_lists(True))
        nodes[node_id][3] = grow(idx[~left], depth + 1, lambda: child_lists(False))
        return node_id

    grow(live, 0, lambda: root_rows)
    return _from_rows(nodes, d, params)


def stack_trees(trees: list[DecisionTree], d: int) -> TreeStack:
    """The trees' node arrays end to end in the given order (see TreeStack)."""
    sizes = [t.feature.size for t in trees]
    start = np.cumsum([0] + sizes).astype(np.intp)

    def joined(name: str, empty: np.ndarray) -> np.ndarray:
        # the empty head keeps the dtype and shape, and concatenate working, with no trees
        return np.concatenate([empty] + [getattr(t, name) for t in trees])

    child = joined("child", np.empty((0, 2), np.intp)) + np.repeat(start[:-1], sizes)[:, None]
    return TreeStack(joined("feature", np.empty(0, np.intp)), joined("threshold", np.empty(0)),
                     child, joined("cover", np.empty(0)), joined("value", np.empty(0)), start, d)


# (tree, row) pairs per block of a stacked walk: each level's temporaries
# (a few 128 KB arrays) stay in L2, and the walk's peak memory is bounded.
_BLOCK_PAIRS = 1 << 14


def predict_stack(stack: TreeStack, X: np.ndarray, n_groups: int = 1) -> np.ndarray:
    """(n, n_groups) mean leaf value of each group's trees at each row of X.

    The trees form n_groups equal groups in stack order.  Rows run in
    blocks of about _BLOCK_PAIRS (tree, row) pairs.  Each of depth levels
    is a few flat takes: the split feature and threshold of every pair's
    node, then child[node, x <= threshold].  A leaf tests its NaN
    threshold against some in-bounds cell (its LEAF feature index, -1,
    reads the cell before, or wraps to the last), so every row goes right,
    to the leaf itself.

    Each group's mean adds its trees in stack order with numpy's
    reduction, as np.mean over a (trees, rows) stack of per-tree
    predictions would: tree after tree for several rows, pairwise for one
    row.  So no block after the first holds a single row, and scores equal
    that per-tree mean bit for bit.

    The blocks are independent, so they go through stripes.stripe_map,
    which forks them over every CPU when a block time says striping
    saves time (see stripes).  Each block's scores are written into the
    result here; where a block runs does not change them.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != stack.d:
        raise ValueError(f"expected (n, {stack.d}) matrix, got shape {X.shape}")
    n, d, n_trees, depth = X.shape[0], stack.d, stack.n_trees, stack.depth
    flat, feature, threshold = X.ravel(), stack.feature, stack.threshold
    child, value = stack.child.ravel(), stack.value
    step = max(2, _BLOCK_PAIRS // max(1, n_trees))
    stops = list(range(step, n, step)) + [n] if n else []
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    blocks = list(zip([0] + stops[:-1], stops))

    def walk(block: tuple[int, int]) -> np.ndarray:
        begin, stop = block
        base = np.tile(np.arange(begin * d, stop * d, d), n_trees)
        node = np.repeat(stack.start[:-1], stop - begin)
        for _ in range(depth):
            goes_left = flat.take(base + feature.take(node)) <= threshold.take(node)
            node = child.take(2 * node + goes_left)
        leaves = value.take(node).reshape(n_groups, n_trees // n_groups, stop - begin)
        return leaves.mean(axis=1).T

    out = np.empty((n, n_groups))
    for (begin, stop), scores in zip(blocks, stripe_map(walk, blocks)):
        out[begin:stop] = scores
    return out


def predict_batch(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Value of the leaf each row of X reaches (<= goes left)."""
    return predict_stack(tree, X)[:, 0]
