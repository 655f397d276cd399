"""Submodular pick: importance, coverage, greedy guarantee."""
from itertools import combinations

import numpy as np
import pytest

from limase.core import ConfigError, DataError, LimaseError, RandomStream
from limase.models import fit_random_forest
from limase.pipeline import LimaseConfig
from limase.sp import (
    ExplanationMatrix,
    coverage,
    feature_importance,
    sp_explain,
    submodular_pick,
)
from limase.trees import TreeParams

from conftest import make_regression_dataset


def mat(rows) -> ExplanationMatrix:
    rows = np.asarray(rows, dtype=float)
    return ExplanationMatrix(S=rows, indices=list(range(rows.shape[0])))


def brute_force_best_coverage(matrix: ExplanationMatrix, G: int) -> float:
    importance = feature_importance(matrix)
    return max(
        coverage(list(combo), matrix, importance)
        for combo in combinations(range(matrix.n), G)
    )


class TestImportance:
    def test_all_zero(self):
        assert np.all(feature_importance(mat([[0.0, 0.0], [0.0, 0.0]])) == 0.0)

    def test_hand_example(self):
        got = feature_importance(mat([[1.0, 0.0], [4.0, 0.0]]))
        assert np.allclose(got, [np.sqrt(5.0), 0.0])

    def test_negative_values_need_absolute(self):
        matrix = mat([[-3.0]])
        assert feature_importance(matrix)[0] == pytest.approx(np.sqrt(3.0))

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            feature_importance(mat(np.zeros((0, 2))))


class TestCoverage:
    def test_empty_pick(self):
        matrix = mat([[1.0, 0.0], [0.0, 2.0]])
        assert coverage([], matrix, feature_importance(matrix)) == 0.0

    def test_hand_examples(self):
        matrix = mat([[1.0, 0.0], [0.0, 2.0]])
        importance = np.array([1.0, np.sqrt(2.0)])
        assert coverage([0], matrix, importance) == pytest.approx(1.0)
        assert coverage([1], matrix, importance) == pytest.approx(np.sqrt(2.0))
        assert coverage([0, 1], matrix, importance) == pytest.approx(1.0 + np.sqrt(2.0))

    def test_full_touch_equals_total_mass(self):
        rng = RandomStream(0)
        S = rng.normal_matrix(6, 4)
        matrix = mat(S)
        importance = feature_importance(matrix)
        assert coverage(range(6), matrix, importance) == pytest.approx(importance.sum())

    def test_negative_contributions_counted(self):
        matrix = mat([[-1.0, 0.0]])
        importance = feature_importance(matrix)
        assert coverage([0], matrix, importance) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        matrix = mat([[1.0]])
        with pytest.raises(IndexError):
            coverage([1], matrix, feature_importance(matrix))

    def test_monotone_and_submodular_on_random_matrices(self):
        for seed in range(10):
            rng = RandomStream(400 + seed)
            S = rng.normal_matrix(7, 4)
            S[rng.uniform(7 * 4).reshape(7, 4) < 0.4] = 0.0
            matrix = mat(S)
            imp = feature_importance(matrix)
            order = list(rng.choice(7, size=7, replace=False))
            extra = int(rng.integers(0, 7, 1)[0])
            prev_cov, prev_gain = 0.0, None
            chain: list[int] = []
            for i in order:
                new_cov = coverage(chain + [i], matrix, imp)
                assert new_cov >= prev_cov - 1e-12  # monotone
                chain.append(i)
                prev_cov = new_cov
            # submodularity: marginal gain of `extra` shrinks along the chain
            gains = []
            for stop in range(len(chain) + 1):
                prefix = [i for i in chain[:stop] if i != extra]
                gains.append(
                    coverage(prefix + [extra], matrix, imp)
                    - coverage(prefix, matrix, imp)
                )
            assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))


class TestSubmodularPick:
    def test_budget_covers_everything(self):
        rng = RandomStream(1)
        matrix = mat(rng.normal_matrix(5, 3))
        result = submodular_pick(matrix, G=10)
        assert sorted(result.selected) == list(range(5))
        assert len(result.selected) == 5

    def test_disjoint_supports_picks_heavier_mass(self):
        matrix = mat([[1.0, 0.0], [0.0, 2.0]])
        result = submodular_pick(matrix, G=1)
        assert result.selected == [1]  # sqrt(2) beats 1
        assert result.coverage_history == [pytest.approx(np.sqrt(2.0))]

    def test_tie_breaks_lowest_index(self):
        matrix = mat([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = submodular_pick(matrix, G=1)
        assert result.selected == [0]

    def test_zero_gain_padding(self):
        matrix = mat([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        result = submodular_pick(matrix, G=3)
        assert result.selected[0] == 0  # first pick covers everything
        assert result.selected == [0, 1, 2]  # padded in index order
        assert len(result.coverage_history) == 3
        assert result.coverage_history[0] == pytest.approx(result.coverage_history[2])

    def test_history_non_decreasing(self):
        for seed in range(10):
            rng = RandomStream(500 + seed)
            S = rng.normal_matrix(9, 5)
            S[rng.uniform(45).reshape(9, 5) < 0.5] = 0.0
            result = submodular_pick(mat(S), G=6)
            history = result.coverage_history
            assert all(a <= b + 1e-12 for a, b in zip(history, history[1:]))
            assert len(result.selected) == len(set(result.selected))

    @pytest.mark.parametrize("seed", range(12))
    def test_greedy_guarantee_against_brute_force(self, seed):
        rng = RandomStream(600 + seed)
        S = rng.normal_matrix(8, 5)
        S[rng.uniform(40).reshape(8, 5) < 0.5] = 0.0
        matrix = mat(S)
        G = 3
        result = submodular_pick(matrix, G)
        greedy_cov = coverage(result.selected, matrix, result.importance)
        best = brute_force_best_coverage(matrix, G)
        assert greedy_cov >= (1 - 1 / np.e) * best - 1e-12

    def test_scaling_invariance_of_selection(self):
        rng = RandomStream(7)
        S = rng.normal_matrix(8, 4)
        S[rng.uniform(32).reshape(8, 4) < 0.4] = 0.0
        a = submodular_pick(mat(S), G=4)
        b = submodular_pick(mat(2.5 * S), G=4)
        assert a.selected == b.selected
        assert np.allclose(np.array(b.coverage_history),
                           np.sqrt(2.5) * np.array(a.coverage_history))

    def test_bad_budget(self):
        with pytest.raises(ConfigError):
            submodular_pick(mat([[1.0]]), G=0)

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            submodular_pick(mat(np.zeros((0, 3))), G=1)

    def test_json_record(self):
        result = submodular_pick(mat([[1.0, 0.0], [0.0, 2.0]]), G=2)
        record = result.to_json_dict()
        assert set(record) == {"selected", "importance", "coverage_history", "budget"}
        assert record["budget"] == 2


@pytest.fixture(scope="module")
def setup():
    data = make_regression_dataset(50, 120, 4)
    model = fit_random_forest(data, 5, TreeParams(max_depth=4), RandomStream(0))
    return data, model


class TestSpExplain:
    def test_end_to_end_pick(self, setup):
        data, model = setup
        cfg = LimaseConfig(n_samples=100, seed=3)
        result, matrix, results = sp_explain(model, data, range(12), cfg, G=4)
        assert len(result.selected) == 4
        assert matrix.S.shape == (12, 4)
        assert len(results) == 12
        assert matrix.indices == list(range(12))
        # greedy base case: first pick is the single best instance
        single = submodular_pick(matrix, G=1)
        assert result.selected[0] == single.selected[0]

    def test_deterministic_rerun(self, setup):
        data, model = setup
        cfg = LimaseConfig(n_samples=100, seed=3)
        a, ma, _ = sp_explain(model, data, range(10), cfg, G=3)
        b, mb, _ = sp_explain(model, data, range(10), cfg, G=3)
        assert a.selected == b.selected
        assert np.array_equal(ma.S, mb.S)
        assert a.coverage_history == b.coverage_history

    def test_constant_model_pads_deterministically(self, setup):
        data, _ = setup
        from test_pipeline import ConstantModel

        cfg = LimaseConfig(n_samples=50, seed=0)
        result, matrix, _ = sp_explain(ConstantModel(1.0, 4), data, range(6), cfg, G=3)
        assert np.all(matrix.S == 0.0)
        assert result.selected == [0, 1, 2]
        assert result.coverage_history == [0.0, 0.0, 0.0]

    def test_bad_indices(self, setup):
        data, model = setup
        cfg = LimaseConfig(n_samples=50, seed=0)
        with pytest.raises(IndexError):
            sp_explain(model, data, [0, data.n], cfg, G=1)
        with pytest.raises(DataError):
            sp_explain(model, data, [], cfg, G=1)

    def test_failed_row_names_dataset_index(self, setup):
        data, _ = setup
        from test_pipeline import FlakyModel

        rows = data.rows.copy()
        rows[7] = [1000.0, 0.0, 0.0, 0.0]
        from limase.core import Dataset, compute_feature_meta

        poisoned = Dataset(
            compute_feature_meta(rows, data.feature_names), rows, data.target, data.task
        )
        cfg = LimaseConfig(n_samples=50, seed=0)
        with pytest.raises(LimaseError, match="row 7") as caught:
            sp_explain(FlakyModel(4, threshold=500.0), poisoned, range(10), cfg, G=2)
        # a failing model is a runtime failure, not a data error
        assert type(caught.value) is LimaseError
        assert not isinstance(caught.value, DataError)
        cause = caught.value.__cause__
        assert isinstance(cause, LimaseError)
        assert "black-box prediction failed" in str(cause)
        assert isinstance(cause.__cause__, RuntimeError)
