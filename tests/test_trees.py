"""Weighted CART fitting, routing, the split-search oracle and the reference fit."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import limase
from limase.core import ConfigError, DataError, RandomStream
from limase.shapley import tree_conditional_value
from limase.trees import LEAF, DecisionTree, TreeParams, _best_split, fit_tree, predict_batch

from conftest import random_tree


def unit_w(n: int) -> np.ndarray:
    return np.ones(n)


def walk(tree: DecisionTree, x: np.ndarray) -> float:
    """The leaf value x reaches, by the per-row walk with every feature known."""
    return tree_conditional_value(tree, x, (1 << tree.d) - 1)


def assert_cover_value_recurrence(tree: DecisionTree):
    cover, value = tree.cover, tree.value
    for i in range(tree.feature.size):
        if tree.feature[i] == LEAF:
            assert cover[i] > 0
            continue
        l, r = tree.child[i, 1], tree.child[i, 0]
        assert cover[i] == pytest.approx(cover[l] + cover[r], rel=1e-9)
        mixed = (cover[l] * value[l] + cover[r] * value[r]) / cover[i]
        assert value[i] == pytest.approx(mixed, rel=1e-9, abs=1e-12)


def brute_force_split(X, y, w, min_leaf_w):
    """Enumerate every (feature, midpoint) candidate; weighted child-SSE sum.

    Independent of the production search: recomputes SSE per side from
    scratch rather than via the centered-gain shortcut.
    """
    n, d = X.shape

    def sse(mask):
        wm, ym = w[mask], y[mask]
        if wm.sum() == 0:
            return 0.0
        mu = np.average(ym, weights=wm)
        return float(np.dot(wm, (ym - mu) ** 2))

    best = None  # (sse_sum, feature, threshold)
    for j in range(d):
        vals = np.unique(X[:, j])
        for lo, hi in zip(vals[:-1], vals[1:]):
            t = (lo + hi) / 2
            if t >= hi:
                t = lo
            left = X[:, j] <= t
            if w[left].sum() < min_leaf_w or w[~left].sum() < min_leaf_w:
                continue
            cand = (sse(left) + sse(~left), j, t)
            if best is None or cand[0] < best[0] - 1e-12:
                best = cand
    return best


def split_sse(X, y, w, feature, threshold):
    """Weighted SSE of the two sides of one split, each around its own mean."""
    left = X[:, feature] <= threshold
    total = 0.0
    for side in (left, ~left):
        mu = np.average(y[side], weights=w[side])
        total += float(np.dot(w[side], (y[side] - mu) ** 2))
    return total


def node_rows(tree: DecisionTree, X: np.ndarray) -> list[np.ndarray]:
    """Per node, the mask of rows of X routed through it."""
    masks = [None] * tree.feature.size
    masks[0] = np.ones(X.shape[0], dtype=bool)
    for i, feature in enumerate(tree.feature):  # preorder: parents come first
        if feature != LEAF:
            left = X[:, feature] <= tree.threshold[i]
            masks[tree.child[i, 1]] = masks[i] & left
            masks[tree.child[i, 0]] = masks[i] & ~left
    return masks


def reference_fit(X, y, w, params, feature_rng=None, mtry=None):
    """Node tuples of a tree grown with a fresh stable sort at every node.

    The straightforward form of the split search, kept as the reference
    that the presorted fit must match bit for bit: every node gathers its
    rows of the candidate columns, stable-argsorts each, and scans the
    cumulative sums of weight and centered target.
    """
    live = np.nonzero(w > 0)[0]
    d = X.shape[1]
    min_leaf_w = max(float(params.min_samples_leaf),
                     params.min_weight_fraction_leaf * float(w[live].sum()))
    nodes = []

    def best_split(u, idx, wsum, cols):
        Xn = X[np.ix_(idx, cols)]
        wn = w[idx]
        un = wn * u
        total_s = float(un.sum())
        order = np.argsort(Xn, axis=0, kind="stable")
        xv = np.take_along_axis(Xn, order, axis=0)
        cw = np.cumsum(wn[order], axis=0)[:-1]
        cs = np.cumsum(un[order], axis=0)[:-1]
        ok = (xv[1:] > xv[:-1]) & (cw >= min_leaf_w) & (wsum - cw >= min_leaf_w)
        if not ok.any():
            return None
        sr = total_s - cs
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(ok, cs * cs / cw + sr * sr / (wsum - cw), -np.inf)
        pos = np.argmax(gain, axis=0)
        col_gain = gain[pos, np.arange(cols.size)]
        j = int(np.argmax(col_gain))
        if not col_gain[j] > 0.0:
            return None
        lo, hi = xv[pos[j], j], xv[pos[j] + 1, j]
        threshold = 0.5 * (lo + hi)
        if threshold >= hi:
            threshold = lo
        return int(cols[j]), float(threshold)

    def grow(idx, depth):
        wi = w[idx]
        wsum = float(wi.sum())
        yi = y[idx]
        value = float(yi[0] + np.dot(wi, yi - yi[0]) / wsum)
        node_id = len(nodes)
        nodes.append([LEAF, float("nan"), LEAF, LEAF, wsum, value])
        u = yi - value
        if depth >= params.max_depth or float(np.dot(wi, u * u)) <= 0.0:
            return node_id
        if mtry is not None and mtry < d:
            cols = np.sort(feature_rng.choice(d, size=mtry, replace=False))
        else:
            cols = np.arange(d)
        found = best_split(u, idx, wsum, cols) if idx.size >= 2 else None
        if found is None:
            return node_id
        feature, threshold = found
        go_left = X[idx, feature] <= threshold
        nodes[node_id][:2] = feature, threshold
        nodes[node_id][2] = grow(idx[go_left], depth + 1)
        nodes[node_id][3] = grow(idx[~go_left], depth + 1)
        return node_id

    grow(live, 0)
    return [tuple(n) for n in nodes]


def assert_same_nodes(tree: DecisionTree, want: list[tuple]):
    assert tree.feature.size == len(want)
    for i, (feature, threshold, left, right, cover, value) in enumerate(want):
        children = (i, i) if feature == LEAF else (left, right)  # a leaf is its own child
        assert (tree.feature[i], tree.child[i, 1], tree.child[i, 0]) == (feature, *children)
        assert tree.cover[i] == cover and tree.value[i] == value
        if feature == LEAF:
            assert np.isnan(tree.threshold[i]) and np.isnan(threshold)
        else:
            assert tree.threshold[i] == threshold


class TestFitTreeExamples:
    def test_constant_target_single_leaf(self):
        X = RandomStream(0).normal_matrix(20, 3)
        w = 0.5 + RandomStream(1).uniform(20)
        tree = fit_tree(X, np.full(20, 3.7), w, TreeParams())
        assert tree.n_leaves == 1
        assert tree.value[0] == 3.7
        assert tree.cover[0] == pytest.approx(w.sum())

    def test_step_function_stump(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 4.0, 4.0])
        tree = fit_tree(X, y, unit_w(4), TreeParams(max_depth=1, min_samples_leaf=1))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.5)
        l, r = tree.child[0, 1], tree.child[0, 0]
        assert (tree.value[l], tree.cover[l]) == (0.0, 2.0)
        assert (tree.value[r], tree.cover[r]) == (4.0, 2.0)

    def test_zero_weight_row_has_no_effect(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [1.2]])
        y = np.array([0.0, 0.0, 4.0, 4.0, 100.0])
        w = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        tree = fit_tree(X, y, w, TreeParams(max_depth=1, min_samples_leaf=1))
        base = fit_tree(X[:4], y[:4], w[:4], TreeParams(max_depth=1, min_samples_leaf=1))
        assert tree.to_dict() == base.to_dict()

    def test_threshold_between_huge_negative_values(self):
        # lo + hi overflows to -inf here; the midpoint must not
        X = np.array([[-1.7e308], [-1.6e308], [0.0], [1.0]])
        y = np.array([0.0, 1.0, 4.0, 4.0])
        tree = fit_tree(X, y, unit_w(4), TreeParams(max_depth=2, min_samples_leaf=1))
        assert np.array_equal(predict_batch(tree, X), y)


class TestPredict:
    def test_single_leaf_constant(self):
        tree = fit_tree(np.zeros((3, 2)), np.full(3, 3.7), unit_w(3), TreeParams())
        assert predict_batch(tree, np.array([[99.0, -99.0]]))[0] == 3.7

    def test_stump_routing(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 4.0, 4.0])
        tree = fit_tree(X, y, unit_w(4), TreeParams(max_depth=1, min_samples_leaf=1))
        got = predict_batch(tree, np.array([[0.5], [1.5], [1.5000001]]))
        assert got.tolist() == [0.0, 0.0, 4.0]  # the boundary 1.5 goes left

    def test_dimension_mismatch(self):
        tree = fit_tree(np.zeros((3, 2)), np.arange(3.0), unit_w(3), TreeParams())
        with pytest.raises(ValueError):
            predict_batch(tree, np.zeros(2))  # one row, not a (1, 2) matrix

    def test_batch_matches_scalar(self):
        rng = RandomStream(21)
        X = rng.normal_matrix(200, 4)
        y = rng.normal(200)
        tree = fit_tree(X, y, 0.1 + rng.uniform(200), TreeParams(min_samples_leaf=1))
        probe = rng.normal_matrix(500, 4)
        got = predict_batch(tree, probe)
        want = np.array([walk(tree, row) for row in probe])
        assert np.array_equal(got, want)

    def test_batch_shape_check(self):
        tree = fit_tree(np.zeros((3, 2)), np.arange(3.0), unit_w(3), TreeParams())
        with pytest.raises(ValueError):
            predict_batch(tree, np.zeros((4, 3)))


class TestFitTreeErrors:
    def test_all_zero_weights(self):
        with pytest.raises(ValueError, match="zero"):
            fit_tree(np.zeros((2, 1)), np.zeros(2), np.zeros(2), TreeParams())

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((2, 1)), np.zeros(2), np.array([1.0, -1.0]), TreeParams())

    def test_nan_input(self):
        with pytest.raises(ValueError):
            fit_tree(np.array([[np.nan]]), np.zeros(1), unit_w(1), TreeParams())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((3, 1)), np.zeros(2), unit_w(3), TreeParams())

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            TreeParams(max_depth=0)
        with pytest.raises(ConfigError):
            TreeParams(min_samples_leaf=0)
        with pytest.raises(ConfigError, match="min_samples_leaf"):
            TreeParams(min_samples_leaf=float("nan"))
        with pytest.raises(ConfigError, match="min_samples_leaf must be finite"):
            TreeParams(min_samples_leaf=float("inf"))
        with pytest.raises(ConfigError):
            TreeParams(min_weight_fraction_leaf=1.0)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_cover_value_recurrence_on_fits(self, seed):
        rng = RandomStream(seed)
        X = rng.normal_matrix(120, 4)
        y = rng.normal(120) + X[:, 0]
        w = 0.05 + rng.uniform(120)
        tree = fit_tree(X, y, w, TreeParams(max_depth=5, min_samples_leaf=2))
        assert_cover_value_recurrence(tree)
        assert tree.depth <= 5

    def test_integer_weights_equal_row_repetition(self):
        rng = RandomStream(33)
        X = rng.normal_matrix(40, 3)
        y = rng.normal(40)
        k = rng.integers(1, 4, 40).astype(float)
        params = TreeParams(max_depth=4, min_samples_leaf=3)
        weighted = fit_tree(X, y, k, params)
        reps = np.repeat(np.arange(40), k.astype(int))
        expanded = fit_tree(X[reps], y[reps], unit_w(len(reps)), params)
        # structure and covers identical; values reassociate the same sum,
        # so they agree only to machine precision
        for name in ("feature", "child", "cover"):
            assert np.array_equal(getattr(weighted, name), getattr(expanded, name))
        assert np.array_equal(weighted.threshold, expanded.threshold, equal_nan=True)
        assert np.allclose(weighted.value, expanded.value, rtol=0.0, atol=1e-12)

    def test_purity_reproduces_targets_on_distinct_rows(self):
        rng = RandomStream(8)
        X = rng.normal_matrix(32, 2)
        y = rng.normal(32)
        tree = fit_tree(X, y, unit_w(32), TreeParams(max_depth=32, min_samples_leaf=1))
        got = np.array([walk(tree, row) for row in X])
        assert np.allclose(got, y, atol=1e-12)

    def test_tie_breaks_lowest_feature(self):
        # duplicated column: identical gains on features 0 and 1
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])
        y = np.array([0.0, 0.0, 4.0, 4.0])
        tree = fit_tree(X, y, unit_w(4), TreeParams(max_depth=1, min_samples_leaf=1))
        assert tree.feature[0] == 0

    def test_tie_breaks_lowest_threshold(self):
        # symmetric bump: splitting at 0.5 or 2.5 gives equal gain
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 4.0, 4.0, 0.0])
        tree = fit_tree(X, y, unit_w(4), TreeParams(max_depth=1, min_samples_leaf=1))
        assert tree.threshold[0] == pytest.approx(0.5)

    def test_min_samples_leaf_counts_weight(self):
        # weight 5 on one side lets a split pass that row counts alone would
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 4.0])
        params = TreeParams(max_depth=2, min_samples_leaf=5)
        assert fit_tree(X, y, unit_w(2), params).n_leaves == 1
        assert fit_tree(X, y, np.array([5.0, 5.0]), params).n_leaves == 2

    def test_deterministic_fit(self):
        rng = RandomStream(77)
        X = rng.normal_matrix(60, 3)
        y = rng.normal(60)
        w = 0.1 + rng.uniform(60)
        a = fit_tree(X, y, w, TreeParams())
        b = fit_tree(X, y, w, TreeParams())
        assert a.to_dict() == b.to_dict()


class TestSplitOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_root_split_matches_exhaustive_enumeration(self, seed):
        rng = RandomStream(100 + seed)
        n, d = 30, 3
        X = np.round(rng.normal_matrix(n, d), 1)  # coarse values force ties
        y = rng.normal(n) + 2.0 * X[:, seed % d]
        w = 0.1 + rng.uniform(n)
        params = TreeParams(max_depth=1, min_samples_leaf=2)
        tree = fit_tree(X, y, w, params)
        want = brute_force_split(X, y, w, min_leaf_w=2.0)
        if want is None:
            assert tree.n_leaves == 1
            return
        got_sse = split_sse(X, y, w, tree.feature[0], tree.threshold[0])
        # same quality as the oracle's optimum (tie-break may pick another
        # equally good candidate only if gains match exactly)
        assert got_sse == pytest.approx(want[0], rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_internal_split_matches_exhaustive_enumeration(self, seed):
        rng = RandomStream(200 + seed)
        n, d = 60, 3
        X = np.round(rng.normal_matrix(n, d), 1)
        y = rng.normal(n) + 2.0 * X[:, seed % d] - X[:, (seed + 1) % d] ** 2
        w = 0.1 + rng.uniform(n)
        tree = fit_tree(X, y, w, TreeParams(max_depth=4, min_samples_leaf=2))
        internal = 0
        for i, rows in enumerate(node_rows(tree, X)):
            if tree.feature[i] == LEAF:
                continue
            internal += 1
            Xn, yn, wn = X[rows], y[rows], w[rows]
            want = brute_force_split(Xn, yn, wn, min_leaf_w=2.0)
            assert want is not None
            got_sse = split_sse(Xn, yn, wn, tree.feature[i], tree.threshold[i])
            assert got_sse == pytest.approx(want[0], rel=1e-9, abs=1e-9)
        assert internal >= 3


def reference_case(kind: str, seed: int):
    """(X, y, w) for one reference-equality case."""
    rng = RandomStream(300 + seed)
    n, d = 120, 5
    X = rng.normal_matrix(n, d)
    y = rng.normal(n) + X[:, 0] - 0.5 * X[:, 1] * X[:, 2]
    w = 0.1 + rng.uniform(n)
    if kind == "ties":
        X = np.round(X, 1)
        X[:, 3] = np.round(X[:, 3])
        X[:, 4] = 1.0  # a constant column: every candidate on it is tied
    elif kind == "grid":
        # integer values and unit weights: equal gains at many nodes, so
        # the pick depends on the sums running in stable-sort order
        X = np.round(X)
        w = np.ones(n)
    elif kind == "zero_weights":
        w[rng.uniform(n) < 0.3] = 0.0
    elif kind == "integer_weights":
        w = rng.integers(0, 4, n).astype(float)
        w[0] = 1.0
    elif kind == "kernel_weights":
        w = np.exp(-np.sum((X - X[0]) ** 2, axis=1) / 5.0 ** 2)
    elif kind == "signed_zeros":
        # Column 2's only tie is 0.0 at row a and -0.0 at row b > a, so its
        # list must hold a before b.  Column 3 is its twin with b at the
        # next float above 0.0: it lists the rows in that order, so every
        # gain it shares with column 2 ties, and column 2 wins the tie.  An
        # unstable order of a and b rounds column 2's sums differently and
        # can hand a split to column 3.  Low targets at a and b keep the
        # split between them, which only column 3 has, from winning.
        a, b = np.sort(np.argsort(np.abs(X[:, 2]))[:2])
        X[[a, b], 2] = 0.0, -0.0
        X[:, 3] = X[:, 2]
        X[b, 3] = 5e-324
        y = y + 3.0 * X[:, 2]
        y[[a, b]] = y.min() - 1.0, y.min() - 2.0
    elif kind == "mixed_ties":
        # tied columns beside untied ones: column 1 is coarse, and column
        # 3's rounding leaves 0.0 and -0.0 among its ties; columns 0, 2 and
        # 4 keep distinct values, so their lists need no value check
        X[:, 1] = np.round(X[:, 1], 1)
        X[:, 3] = np.round(X[:, 3])
        assert np.signbit(X[X[:, 3] == 0.0, 3]).any() and (X[:, 3] == 0.0).sum() > 1
        y = y + X[:, 3]
    return X, y, w


# (max_depth, min_samples_leaf, min_weight_fraction_leaf) per case seed
REFERENCE_PARAMS = [(8, 1, 0.0), (8, 1, 0.0), (5, 3, 0.05), (8, 2, 0.0)]


class TestReferenceFit:
    """The presorted fit reproduces the per-node-sort fit exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["ties", "grid", "zero_weights", "integer_weights",
                                      "kernel_weights", "signed_zeros", "mixed_ties"])
    def test_equals_reference(self, kind, seed):
        X, y, w = reference_case(kind, seed)
        params = TreeParams(*REFERENCE_PARAMS[seed])
        assert_same_nodes(fit_tree(X, y, w, params), reference_fit(X, y, w, params))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["ties", "grid", "integer_weights", "mixed_ties"])
    def test_equals_reference_with_feature_subsets(self, kind, seed):
        X, y, w = reference_case(kind, seed)
        params = TreeParams(max_depth=6, min_samples_leaf=2)
        got = fit_tree(X, y, w, params, _feature_rng=RandomStream(seed), _mtry=2)
        want = reference_fit(X, y, w, params, RandomStream(seed), 2)
        assert_same_nodes(got, want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["zero_weights", "integer_weights"])
    def test_light_nodes_draw_features(self, kind, seed):
        # With a large leaf minimum many nodes weigh less than twice it:
        # they become leaves without a search, but each still draws its
        # features first, so every later node draws what the reference
        # draws.
        X, y, w = reference_case(kind, seed)
        params = TreeParams(max_depth=8, min_samples_leaf=8)
        tree = fit_tree(X, y, w, params, _feature_rng=RandomStream(seed), _mtry=2)
        assert_same_nodes(tree, reference_fit(X, y, w, params, RandomStream(seed), 2))
        light = np.flatnonzero((tree.feature == LEAF) & (tree.cover < 16.0))
        assert light.size >= 3
        assert (tree.feature[light[0]:] != LEAF).any()  # a split after a light leaf


class TestComplexRunningSums:
    """The split search runs its weight and target sums as one complex cumsum."""

    @pytest.mark.parametrize("case", ["random", "signed_zeros", "subnormal", "huge",
                                      "zero_weights"])
    def test_parts_equal_real_cumsums(self, case):
        rng = np.random.default_rng(11)
        n, k = 200, 6
        w = 0.1 + rng.random(n)
        wu = rng.normal(size=n)
        if case == "signed_zeros":
            wu[::3], wu[1::3] = -0.0, 0.0
            wu[2::7] = -1e-300
        elif case == "subnormal":
            w *= 1e-310
            wu *= 5e-324 * 64
        elif case == "huge":  # sums overflow to +-inf part way along
            w *= 1e308
            wu = np.sign(wu) * 1.7e308
        elif case == "zero_weights":
            dead = rng.random(n) < 0.4
            w[dead] = 0.0
            wu[dead] = np.where(rng.random(dead.sum()) < 0.5, 0.0, -0.0)
        rows = np.stack([rng.permutation(n) for _ in range(k)])
        wc = w.astype(complex)  # as fit_tree builds it: the parts, not 1j * wu
        wc.imag = wu
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.cumsum(wc.take(rows), axis=1)
            want_w = np.cumsum(w.take(rows), axis=1)
            want_u = np.cumsum(wu.take(rows), axis=1)
        assert np.ascontiguousarray(c.real).tobytes() == want_w.tobytes()
        assert np.ascontiguousarray(c.imag).tobytes() == want_u.tobytes()

    def test_one_entry_lists_have_no_split(self):
        rows = np.zeros((2, 1), dtype=np.intp)
        wc = np.array([2.0 + 1.0j])
        found = _best_split(np.zeros((2, 1)), rows, np.arange(2), np.zeros(2, dtype=bool),
                            wc, 2.0, 1.0, 1.0)
        assert found is None


class TestSerialization:
    def test_round_trip(self):
        rng = RandomStream(5)
        X = rng.normal_matrix(50, 3)
        tree = fit_tree(X, rng.normal(50), unit_w(50), TreeParams(min_samples_leaf=2))
        back = DecisionTree.from_dict(tree.to_dict())
        assert back.to_dict() == tree.to_dict()
        probe = rng.normal_matrix(20, 3)
        assert np.array_equal(predict_batch(back, probe), predict_batch(tree, probe))

    def test_nonzero_root_rejected(self):
        data = fit_tree(np.array([[0.0], [1.0]]), np.array([0.0, 4.0]), unit_w(2),
                        TreeParams(min_samples_leaf=1)).to_dict()
        assert data["root"] == 0
        data["root"] = 1
        with pytest.raises(DataError, match="root"):
            DecisionTree.from_dict(data)

    @staticmethod
    def _one_node(**fields) -> dict:
        node = {"feature": LEAF, "threshold": None, "left": LEAF, "right": LEAF,
                "cover": 1.0, "value": 2.0}
        node.update(fields)
        return {"d": 1, "root": 0, "params": {"max_depth": 1, "min_samples_leaf": 1.0,
                                              "min_weight_fraction_leaf": 0.0},
                "nodes": [node]}

    def test_child_cycle_rejected(self):
        # Loading this used to succeed, then predict_batch looped forever;
        # a child process under a timeout keeps a regression from hanging the suite.
        data = self._one_node(feature=0, threshold=0.5, left=0, right=0)
        script = ("import json, sys\n"
                  "from limase.core import DataError\n"
                  "from limase.trees import DecisionTree, predict_batch\n"
                  "try:\n"
                  "    predict_batch(DecisionTree.from_dict(json.loads(sys.argv[1])), [[0.0]])\n"
                  "except DataError as e:\n"
                  "    print(e)\n"
                  "    sys.exit(3)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(limase.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(data)],
                              capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 3, done.stderr
        assert "node 0" in done.stdout

    def test_out_of_range_child_rejected(self):
        data = self._one_node(feature=0, threshold=0.5, left=5, right=5)
        with pytest.raises(DataError, match="node 0"):
            predict_batch(DecisionTree.from_dict(data), np.zeros((1, 1)))

    def test_leaf_with_children_rejected(self):
        with pytest.raises(DataError, match="node 0"):
            DecisionTree.from_dict(self._one_node(left=0))

    def test_empty_node_list_rejected(self):
        data = self._one_node()
        data["nodes"] = []
        with pytest.raises(DataError, match="no nodes"):
            DecisionTree.from_dict(data)

    def test_feature_out_of_range_rejected(self):
        data = fit_tree(np.array([[0.0], [1.0]]), np.array([0.0, 4.0]), unit_w(2),
                        TreeParams(min_samples_leaf=1)).to_dict()
        data["nodes"][0]["feature"] = 1
        with pytest.raises(DataError, match="feature 1"):
            DecisionTree.from_dict(data)

    @pytest.mark.parametrize("cover", [0.0, -1.0, float("nan"), float("inf")])
    def test_cover_not_finite_and_positive_rejected(self, cover):
        # a zero cover made tree_shap divide by zero; a NaN one gave NaN phi
        with pytest.raises(DataError, match="cover"):
            DecisionTree.from_dict(self._one_node(cover=cover))

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_value_not_finite_rejected(self, value):
        with pytest.raises(DataError, match="value"):
            DecisionTree.from_dict(self._one_node(value=value))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_internal_threshold_not_finite_rejected(self, threshold):
        data = fit_tree(np.array([[0.0], [1.0]]), np.array([0.0, 4.0]), unit_w(2),
                        TreeParams(min_samples_leaf=1)).to_dict()
        data["nodes"][0]["threshold"] = threshold
        with pytest.raises(DataError, match="node 0"):
            DecisionTree.from_dict(data)

    def test_random_tree_fixture_is_consistent(self):
        tree = random_tree(RandomStream(1), d=4, max_depth=3)
        assert_cover_value_recurrence(tree)
        assert tree.depth <= 3
        assert tree.n_leaves >= 2
