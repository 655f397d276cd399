"""Exact Shapley machinery against the brute-force oracle."""
from math import comb

import numpy as np
import pytest

import limase.shapley
from limase.core import ConfigError, DataError, RandomStream, Task
from limase.models import ForestModel, TreeModel, fit_random_forest, load_model, save_model
from limase.pipeline import LimaseConfig, limase_explain
from limase.shapley import (
    enumerate_tree_values,
    forest_shap,
    shapley_brute_force,
    tree_conditional_value,
    tree_shap,
)
from limase.trees import LEAF, DecisionTree, TreeParams, predict_batch

from conftest import (
    make_classification_dataset,
    make_regression_dataset,
    random_mlp,
    random_tree,
    tree_from_nodes,
)

NAN = float("nan")


def hand_stump(d: int = 2) -> DecisionTree:
    """Root splits feature 0 at 0; left (cover 3, value 0), right (cover 1, value 4)."""
    nodes = [
        (0, 0.0, 1, 2, 4.0, 1.0),
        (LEAF, NAN, LEAF, LEAF, 3.0, 0.0),
        (LEAF, NAN, LEAF, LEAF, 1.0, 4.0),
    ]
    return tree_from_nodes(nodes, d, TreeParams(max_depth=1))


X_RIGHT = np.array([1.0, 0.0])  # routes right in hand_stump


class TestConditionalValue:
    def test_full_coalition_is_prediction(self):
        tree = random_tree(RandomStream(0), d=4, max_depth=4)
        x = RandomStream(1).normal(4)
        full = tree_conditional_value(tree, x, range(4))
        assert full == pytest.approx(predict_batch(tree, x[None, :])[0], abs=1e-12)

    def test_empty_coalition_is_root_value(self):
        tree = random_tree(RandomStream(2), d=3, max_depth=3)
        x = RandomStream(3).normal(3)
        assert tree_conditional_value(tree, x, []) == pytest.approx(
            tree.value[0], abs=1e-12
        )

    def test_stump_empty_coalition_hand_value(self):
        assert tree_conditional_value(hand_stump(), X_RIGHT, []) == pytest.approx(1.0)

    def test_stump_conditioned_on_split_feature(self):
        assert tree_conditional_value(hand_stump(), X_RIGHT, [0]) == 4.0

    def test_accepts_bitmask_or_iterable(self):
        tree = hand_stump()
        assert tree_conditional_value(tree, X_RIGHT, 0b01) == tree_conditional_value(
            tree, X_RIGHT, [0]
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tree_conditional_value(hand_stump(), np.zeros(3), [])

    def test_bad_feature_index(self):
        with pytest.raises(ValueError):
            tree_conditional_value(hand_stump(), X_RIGHT, [5])

    @pytest.mark.parametrize("seed", range(5))
    def test_enumerate_matches_scalar_recursion(self, seed):
        rng = RandomStream(40 + seed)
        tree = random_tree(rng, d=5, max_depth=4)
        x = rng.normal(5)
        table = enumerate_tree_values(tree, x)
        for mask in range(1 << 5):
            assert table[mask] == pytest.approx(
                tree_conditional_value(tree, x, mask), abs=1e-10
            )


class TestBruteForce:
    def test_additive_game(self):
        c = np.array([1.0, 2.0, 3.0])

        def v(mask):
            return sum(c[i] for i in range(3) if (mask >> i) & 1)

        assert np.allclose(shapley_brute_force(v, 3), c, atol=1e-12)

    def test_and_game_splits_evenly(self):
        def v(mask):
            return 1.0 if mask == 0b11 else 0.0

        assert np.allclose(shapley_brute_force(v, 2), [0.5, 0.5], atol=1e-15)

    def test_stump_value_function(self):
        tree = hand_stump()

        def v(mask):
            return tree_conditional_value(tree, X_RIGHT, mask)

        phi = shapley_brute_force(v, 2)
        assert np.allclose(phi, [3.0, 0.0], atol=1e-12)

    def test_d_limit(self):
        with pytest.raises(ValueError):
            shapley_brute_force(lambda m: 0.0, 25)
        with pytest.raises(ValueError):
            shapley_brute_force(lambda m: 0.0, 0)


class TestTreeShap:
    def test_stump_example(self):
        exp = tree_shap(hand_stump(), X_RIGHT)
        assert exp.base_value == pytest.approx(1.0)
        assert exp.fx == pytest.approx(4.0)
        assert np.allclose(exp.phi, [3.0, 0.0], atol=1e-12)
        assert exp.explainer == "treeshap"

    def test_missingness_is_bitwise_zero(self):
        # feature 3 never split on
        tree = random_tree(RandomStream(7), d=4, max_depth=4, allowed_features=[0, 1, 2])
        assert 3 not in tree.feature
        for seed in range(10):
            x = RandomStream(seed).normal(4)
            assert tree_shap(tree, x).phi[3] == 0.0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = RandomStream(1000 + seed)
        d = 2 + int(rng.integers(0, 9, 1)[0])  # d in [2, 10]
        depth = 1 + int(rng.integers(0, 5, 1)[0])
        tree = random_tree(rng, d=d, max_depth=depth)
        x = rng.normal(d)
        exp = tree_shap(tree, x)
        table = enumerate_tree_values(tree, x)
        want = shapley_brute_force(lambda m: table[m], d)
        assert np.max(np.abs(exp.phi - want)) <= 1e-9
        assert abs(exp.efficiency_gap()) <= 1e-9 * max(1.0, abs(exp.fx))

    def test_symmetry_on_mirror_tree(self):
        # features 0 and 1 play interchangeable roles with equal covers/values
        nodes = [
            (0, 0.0, 1, 2, 8.0, 1.0),
            (1, 0.0, 3, 4, 4.0, 0.0),
            (1, 0.0, 5, 6, 4.0, 2.0),
            (LEAF, NAN, LEAF, LEAF, 2.0, -1.0),
            (LEAF, NAN, LEAF, LEAF, 2.0, 1.0),
            (LEAF, NAN, LEAF, LEAF, 2.0, 1.0),
            (LEAF, NAN, LEAF, LEAF, 2.0, 3.0),
        ]
        tree = tree_from_nodes(nodes, 2, TreeParams(max_depth=2))
        x = np.array([1.0, 1.0])  # both route right
        phi = tree_shap(tree, x).phi
        assert abs(phi[0] - phi[1]) <= 1e-12

    def test_single_leaf_tree(self):
        tree = tree_from_nodes([(LEAF, NAN, LEAF, LEAF, 5.0, 2.5)], 3, TreeParams())
        exp = tree_shap(tree, np.zeros(3))
        assert exp.base_value == 2.5
        assert exp.fx == 2.5
        assert np.all(exp.phi == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tree_shap(hand_stump(), np.zeros(5))

    @pytest.mark.parametrize("bad", [NAN, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        # such a row lies in no leaf's interval box, so fx would read 0
        with pytest.raises(DataError, match="finite"):
            tree_shap(hand_stump(), np.array([bad, 0.0]))

    def test_deep_tree_stays_polynomial(self):
        # d=24 would need 16M coalition evaluations by enumeration; the
        # path algorithm handles it instantly and still satisfies
        # efficiency against the tree prediction
        rng = RandomStream(50)
        tree = random_tree(rng, d=24, max_depth=6)
        x = rng.normal(24)
        exp = tree_shap(tree, x)
        assert abs(exp.efficiency_gap()) <= 1e-9 * max(1.0, abs(exp.fx))


def chain_tree(rng: RandomStream, x0: np.ndarray, depth: int) -> DecisionTree:
    """A chain of depth splits on random features of x0 with one leaf at each level.

    The chain continues on x0's side of every split, so x0 reaches the
    deepest leaf and lies inside every merged interval on its path.
    Covers and values follow the leaf recurrence.
    """
    d = x0.size
    nodes: list[list] = []

    def grow(level: int) -> int:
        node_id = len(nodes)
        if level == depth:
            nodes.append([LEAF, NAN, LEAF, LEAF, 0.5 + 9.5 * rng.uniform(1)[0],
                          3.0 * rng.normal(1)[0]])
            return node_id
        f = int(rng.integers(0, d, 1)[0])
        threshold = float(x0[f] + rng.normal(1)[0])
        nodes.append([f, threshold, -1, -1, 0.0, 0.0])
        if x0[f] <= threshold:
            left = grow(level + 1)
            right = grow(depth)
        else:
            left = grow(depth)
            right = grow(level + 1)
        cl, cr = nodes[left][4], nodes[right][4]
        value = (cl * nodes[left][5] + cr * nodes[right][5]) / (cl + cr)
        nodes[node_id][2:] = left, right, cl + cr, value
        return node_id

    grow(0)
    return tree_from_nodes(nodes, d, TreeParams(max_depth=depth))


class TestDeepPaths:
    @pytest.mark.parametrize("seed", range(5))
    def test_thirty_deep_chain_matches_brute_force(self, seed):
        # each feature is split on about ten times along the chain
        rng = RandomStream(4000 + seed)
        x0 = rng.normal(3)
        tree = chain_tree(rng, x0, 30)
        assert tree.depth == 30
        for x in [x0] + [x0 + 0.5 * rng.normal(3) for _ in range(4)]:
            table = enumerate_tree_values(tree, x)
            want = shapley_brute_force(lambda m: table[m], 3)
            exp = tree_shap(tree, x)
            assert np.max(np.abs(exp.phi - want)) <= 1e-12
            assert exp.fx == predict_batch(tree, x[None, :])[0]


class TestConsistency:
    def test_shifted_subtree_increases_attribution(self):
        # T2 random with a root split; T1 adds c > 0 to every leaf under
        # the child x routes to.  For every coalition S without the root
        # feature i: v1(S∪i) − v1(S) = v2(S∪i) − v2(S) + c(1 − cover
        # share), so i contributes consistently more and φ1_i ≥ φ2_i.
        from conftest import shift_subtree

        verified = 0
        for seed in range(60):
            rng = RandomStream(3000 + seed)
            d = 2 + int(rng.integers(0, 5, 1)[0])  # d in [2, 6]
            t2 = random_tree(rng, d=d, max_depth=4)
            x = rng.normal(d)
            i = t2.feature[0]
            hot = t2.child[0, 1] if x[i] <= t2.threshold[0] else t2.child[0, 0]
            c = 0.5 + float(rng.uniform(1)[0])
            t1 = shift_subtree(t2, hot, c)
            v1 = enumerate_tree_values(t1, x)
            v2 = enumerate_tree_values(t2, x)
            # verify the premise exhaustively before using the pair
            bit = 1 << i
            premise = all(
                v1[m | bit] - v1[m] >= v2[m | bit] - v2[m] - 1e-12
                for m in range(1 << d)
                if not m & bit
            )
            assert premise, f"construction broke the consistency premise (seed {seed})"
            phi1 = tree_shap(t1, x).phi[i]
            phi2 = tree_shap(t2, x).phi[i]
            assert phi1 >= phi2 - 1e-12
            verified += 1
        assert verified >= 50


def refuse_to_build(*args):
    raise AssertionError("a row built leaf boxes")


class TestForestShap:
    def test_singleton_forest_equals_tree_shap(self):
        tree = random_tree(RandomStream(9), d=3, max_depth=3)
        forest = ForestModel(trees=[tree], task=Task.regression(), d=3)
        x = RandomStream(10).normal(3)
        single = tree_shap(tree, x)
        combined = forest_shap(forest, x)
        assert np.allclose(combined.phi, single.phi, atol=1e-12)
        assert combined.base_value == pytest.approx(single.base_value)
        assert combined.explainer == "treeshap"

    def test_two_identical_trees(self):
        tree = random_tree(RandomStream(11), d=3, max_depth=3)
        forest = ForestModel(trees=[tree, tree], task=Task.regression(), d=3)
        x = RandomStream(12).normal(3)
        assert np.allclose(forest_shap(forest, x).phi, tree_shap(tree, x).phi, atol=1e-12)

    def test_five_tree_forest_matches_brute_force_mean_game(self):
        rng = RandomStream(13)
        d = 6
        trees = [random_tree(rng.child(t), d=d, max_depth=3) for t in range(5)]
        forest = ForestModel(trees=trees, task=Task.regression(), d=d)
        x = rng.normal(d)
        table = np.mean([enumerate_tree_values(t, x) for t in trees], axis=0)
        want = shapley_brute_force(lambda m: table[m], d)
        got = forest_shap(forest, x)
        assert np.max(np.abs(got.phi - want)) <= 1e-9

    def test_linearity_against_member_mean(self):
        rng = RandomStream(14)
        trees = [random_tree(rng.child(t), d=4, max_depth=3) for t in range(7)]
        forest = ForestModel(trees=trees, task=Task.regression(), d=4)
        x = rng.normal(4)
        member_mean = np.mean([tree_shap(t, x).phi for t in trees], axis=0)
        assert np.max(np.abs(forest_shap(forest, x).phi - member_mean)) <= 1e-12

    def test_single_leaf_and_deep_trees_mixed(self):
        rng = RandomStream(19)
        x = rng.normal(4)
        stump = tree_from_nodes([(LEAF, NAN, LEAF, LEAF, 5.0, 2.5)], 4, TreeParams())
        trees = [random_tree(rng.child(0), d=4, max_depth=2), stump,
                 random_tree(rng.child(1), d=4, max_depth=6), chain_tree(rng, x, 12)]
        forest = ForestModel(trees=trees, task=Task.regression(), d=4)
        exp = forest_shap(forest, x)
        member_mean = np.mean([tree_shap(t, x).phi for t in trees], axis=0)
        assert np.max(np.abs(exp.phi - member_mean)) <= 1e-12
        assert exp.fx == pytest.approx(forest.raw_scores(x[None, :])[0, 0], abs=1e-12)

    def test_classification_explains_selected_class_score(self):
        data = make_classification_dataset(15, 200, 4, 3)
        forest = fit_random_forest(data, 6, TreeParams(max_depth=4), RandomStream(0))
        x = data.rows[0]
        exp = forest_shap(forest, x, class_index=1)
        assert exp.class_index == 1
        member_mean = np.mean([tree_shap(t, x).phi for t in forest.class_trees(1)], axis=0)
        assert np.allclose(exp.phi, member_mean, atol=1e-12)
        # raw class score, before renormalization
        assert exp.fx == pytest.approx(forest.raw_scores(x[None, :])[0, 1])

    def test_default_class_is_models_argmax(self):
        data = make_classification_dataset(16, 200, 4, 3)
        forest = fit_random_forest(data, 6, TreeParams(max_depth=4), RandomStream(0))
        x = data.rows[3]
        exp = forest_shap(forest, x)
        assert exp.class_index == int(np.argmax(forest.predict(x[None, :]).values[0]))

    def test_tree_model_matches_brute_force_and_tree_shap(self):
        rng = RandomStream(22)
        tree = random_tree(rng, d=5, max_depth=5)
        model = TreeModel(tree)  # a one-tree regression forest
        for i in range(4):
            x = rng.child(i).normal(5)
            exp = forest_shap(model, x)
            table = enumerate_tree_values(tree, x)
            assert np.max(np.abs(exp.phi - shapley_brute_force(lambda m: table[m], 5))) <= 1e-9
            # its leaf values are divided by one tree, which is exact
            direct = tree_shap(tree, x)
            assert np.array_equal(exp.phi, direct.phi)
            assert (exp.base_value, exp.fx, exp.class_index) == (direct.base_value, direct.fx, None)

    def test_tree_models_hold_their_boxes_when_built(self, tmp_path):
        data = make_classification_dataset(23, 150, 4, 3)
        forest = fit_random_forest(data, 4, TreeParams(max_depth=3), RandomStream(0))
        save_model(forest, tmp_path / "forest.json")
        tree = random_tree(RandomStream(24), d=4, max_depth=4)
        models = [forest, load_model(tmp_path / "forest.json"), TreeModel(tree)]
        for model, stack, spans in zip(models, [forest.stack, forest.stack, tree],
                                       [[(0, 4), (4, 8), (8, 12)]] * 2 + [[(0, 1)]]):
            assert len(model.boxes) == len(spans)
            for boxes, (first, stop) in zip(model.boxes, spans):
                want = limase.shapley._leaf_boxes(stack, first, stop)
                assert all(np.array_equal(a, b) for a, b in zip(boxes, want))
                assert boxes[-1] == np.mean(stack.value[stack.start[first:stop]])

    @pytest.mark.parametrize("class_index", [None, 0, 2])
    def test_prebuilt_boxes_match_brute_force(self, monkeypatch, class_index):
        data = make_classification_dataset(20, 200, 5, 3)
        forest = fit_random_forest(data, 5, TreeParams(max_depth=4), RandomStream(0))
        monkeypatch.setattr(limase.shapley, "_leaf_boxes", refuse_to_build)
        for x in data.rows[:4]:  # every class's boxes were built with the forest
            exp = forest_shap(forest, x, class_index)
            trees = forest.class_trees(exp.class_index)
            table = np.mean([enumerate_tree_values(t, x) for t in trees], axis=0)
            want = shapley_brute_force(lambda m: table[m], 5)
            assert np.max(np.abs(exp.phi - want)) <= 1e-12
            assert exp.fx == pytest.approx(table[-1], abs=1e-12)

    def test_regression_boxes_reused_across_rows(self, monkeypatch):
        rng = RandomStream(21)
        trees = [random_tree(rng.child(t), d=4, max_depth=4) for t in range(6)]
        forest = ForestModel(trees=trees, task=Task.regression(), d=4)
        monkeypatch.setattr(limase.shapley, "_leaf_boxes", refuse_to_build)
        for i in range(3):
            x = rng.child(10 + i).normal(4)
            table = np.mean([enumerate_tree_values(t, x) for t in trees], axis=0)
            want = shapley_brute_force(lambda m: table[m], 4)
            assert np.max(np.abs(forest_shap(forest, x).phi - want)) <= 1e-12

    def test_class_index_errors(self):
        data = make_classification_dataset(17, 100, 3, 3)
        forest = fit_random_forest(data, 2, TreeParams(max_depth=3), RandomStream(0))
        with pytest.raises(ConfigError):
            forest_shap(forest, data.rows[0], class_index=3)
        reg_tree = random_tree(RandomStream(18), d=3, max_depth=2)
        reg_forest = ForestModel(trees=[reg_tree], task=Task.regression(), d=3)
        with pytest.raises(ConfigError):
            forest_shap(reg_forest, np.zeros(3), class_index=0)

    def test_empty_forest_rejected(self):
        # forest_shap has no check of its own: an empty forest cannot be built
        with pytest.raises(DataError, match="at least one tree"):
            forest_shap(ForestModel(trees=[], task=Task.regression(), d=2), np.zeros(2))


def leaf_major(boxes: tuple) -> tuple:
    """The slot-major boxes laid out leaf-major, (leaves, width), as the reference reads them."""
    feature, lo, hi, z, leaf_feature, value, base = boxes
    assert np.array_equal(leaf_feature, feature.T.ravel())
    return tuple(np.ascontiguousarray(a.T) for a in (feature, lo, hi, z)) + (value, base)


def leaf_major_box_shap(boxes: tuple, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The leaf-major kernel that the slot-major one must match bit for bit.

    Every numpy step runs along one leaf's few slots; the float
    operations, and the order of every sum, are the ones _box_shap makes.
    """
    feature, lo, hi, z, value, _ = boxes
    d = x.size
    xs = np.append(x, 0.0)[feature]
    inside = (xs > lo) & (xs <= hi)
    o = inside.astype(float)
    n_leaves, width = z.shape
    poly = np.zeros((n_leaves, width + 1))
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
    return phi, float(value[inside.all(axis=1)].sum())


class TestSlotMajorKernel:
    """The slot-major kernel against the leaf-major reference, byte for byte."""

    def assert_same_bits(self, exp, boxes: tuple, x: np.ndarray):
        reference = leaf_major(boxes)
        phi, fx = leaf_major_box_shap(reference, x)
        assert exp.phi.tobytes() == phi.tobytes()
        assert exp.fx == fx
        assert exp.base_value == reference[-1]

    def test_boxes_are_slot_major(self):
        data = make_classification_dataset(30, 200, 5, 3)
        forest = fit_random_forest(data, 4, TreeParams(max_depth=4), RandomStream(0))
        for feature, lo, hi, z, leaf_feature, value, _ in forest.boxes:
            assert feature.shape == lo.shape == hi.shape == z.shape == (z.shape[0], value.size)
            assert all(a.flags.c_contiguous for a in (feature, lo, hi, z, leaf_feature))

    def test_three_class_forest_with_padded_slots(self):
        data = make_classification_dataset(31, 300, 6, 3)
        forest = fit_random_forest(data, 8, TreeParams(max_depth=5), RandomStream(1))
        for c, boxes in enumerate(forest.boxes):
            assert (boxes[0] == data.d).any()  # some leaves are padded with null players
            for x in data.rows[:12]:
                self.assert_same_bits(forest_shap(forest, x, c), boxes, x)

    def test_surrogate_boxes(self):
        data = make_regression_dataset(32, 200, 8)
        model = random_mlp(33, 8, [16, 16])
        for i in range(4):
            x = data.rows[i]
            surrogate = limase_explain(model, x, data.features,
                                       LimaseConfig(seed=i, n_samples=400)).surrogate
            boxes = limase.shapley._leaf_boxes(surrogate, 0, 1)
            for row in (x, data.rows[10 + i]):
                self.assert_same_bits(tree_shap(surrogate, row), boxes, row)

    def test_one_leaf_tree_is_a_width_one_null_box(self):
        tree = tree_from_nodes([(LEAF, NAN, LEAF, LEAF, 5.0, 2.5)], 3, TreeParams())
        boxes = limase.shapley._leaf_boxes(tree, 0, 1)
        assert boxes[0].tolist() == [[3]] and boxes[3].tolist() == [[1.0]]
        x = np.array([0.5, -1.0, 2.0])
        self.assert_same_bits(tree_shap(tree, x), boxes, x)

    def test_stump(self):
        tree = hand_stump()
        boxes = limase.shapley._leaf_boxes(tree, 0, 1)
        for x in (X_RIGHT, np.array([-1.0, 3.0])):
            self.assert_same_bits(tree_shap(tree, x), boxes, x)

    def test_row_on_a_split_threshold(self):
        tree = random_tree(RandomStream(34), d=4, max_depth=5)
        boxes = limase.shapley._leaf_boxes(tree, 0, 1)
        internal = np.flatnonzero(tree.feature != LEAF)
        for i in internal[:6]:
            x = RandomStream(35 + int(i)).normal(4)
            x[tree.feature[i]] = tree.threshold[i]  # x <= threshold: it goes left
            self.assert_same_bits(tree_shap(tree, x), boxes, x)


class TestExplanationRecord:
    def test_json_dict_field_set(self):
        exp = tree_shap(hand_stump(), X_RIGHT)
        record = exp.to_json_dict(feature_names=["a", "b"])
        assert set(record) == {
            "explainer", "base_value", "fx", "phi", "feature_names",
            "instance", "class_index", "elapsed_ms",
        }
        assert record["feature_names"] == ["a", "b"]
        assert record["phi"] == [pytest.approx(3.0), pytest.approx(0.0)]

    def test_efficiency_gap_definition(self):
        exp = tree_shap(hand_stump(), X_RIGHT)
        assert exp.efficiency_gap() == pytest.approx(
            exp.base_value + exp.phi.sum() - exp.fx
        )
