"""Acceptance gate: every shipped guarantee, one verdict line per criterion.

Each test checks one end-to-end guarantee at its stated tolerance and
prints a single PASS/FAIL line on the real stdout so the gate can be
read off a plain pytest run.  Tolerances and runtime budgets are pinned
here on purpose; loosening them is a behavior change, not a test fix.
"""
import itertools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from limase.cli import main as cli_main
from limase.core import (
    BlackBoxModel,
    Dataset,
    ModelOutput,
    RandomStream,
    Task,
    child_seed,
    compute_feature_meta,
    write_csv,
)
from limase.kernel import kernel_shap
from limase.models import fit_mlp, fit_random_forest
from limase.pipeline import LimaseConfig, limase_explain_batch, sigma_sweep
from limase.shapley import (
    enumerate_tree_values,
    forest_shap,
    shapley_brute_force,
    tree_conditional_value,
    tree_shap,
)
from limase.sp import (
    ExplanationMatrix,
    coverage,
    feature_importance,
    sp_explain,
    submodular_pick,
)
from limase.trees import TreeParams

from conftest import make_regression_dataset, random_tree, shift_subtree


def _randint(rng: RandomStream, low: int, high: int) -> int:
    return int(rng.integers(low, high, 1)[0])


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdict_channel(request):
    # verdict lines must reach the terminal even under fd-level capture
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{verdict}] {name}: {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _rank_average_ties(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = _rank_average_ties(a), _rank_average_ties(b)
    if ra.std() == 0 or rb.std() == 0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


class QuadraticModel(BlackBoxModel):
    def __init__(self, d):
        self.d, self.task = d, Task.regression()

    def predict(self, X):
        X = np.atleast_2d(X)
        return ModelOutput(np.sum(X * X, axis=1)[:, None])


def _interventional_table(model, x, background, d, class_index=None):
    """v(S) for every coalition bitmask: mean over background composites."""
    masks = np.arange(1 << d)
    member = (masks[:, None] >> np.arange(d)) & 1 == 1
    composites = np.where(member[:, None, :], x[None, None, :], background[None, :, :])
    out = model.predict_scalar(composites.reshape(-1, d), class_index)
    return out.reshape(1 << d, background.shape[0]).mean(axis=1)


def test_criterion_01_local_accuracy_everywhere():
    started = time.perf_counter()
    rng = RandomStream(101)
    worst_tree = 0.0
    for _ in range(1000):
        d = _randint(rng, 2, 13)
        depth = _randint(rng, 1, 7)
        tree = random_tree(rng, d, depth)
        x = 3.0 * rng.normal(d)
        res = tree_shap(tree, x)
        fx = tree_conditional_value(tree, x, (1 << d) - 1)
        gap = abs(res.base_value + res.phi.sum() - fx) / max(1.0, abs(fx))
        worst_tree = max(worst_tree, gap)

    data = make_regression_dataset(102, 200, 5)
    forest = fit_random_forest(data, 15, TreeParams(max_depth=4), RandomStream(103))
    results = limase_explain_batch(
        forest, data.rows[:30], data.features, LimaseConfig(n_samples=200, seed=7)
    )
    worst_local = 0.0
    for r in results:
        assert not isinstance(r, Exception)
        e = r.explanation
        gap = abs(e.base_value + e.phi.sum() - e.fx) / max(1.0, abs(e.fx))
        worst_local = max(worst_local, gap)

    elapsed = time.perf_counter() - started
    ok = worst_tree <= 1e-9 and worst_local <= 1e-9 and elapsed < 10.0
    detail = (f"additivity gap {worst_tree:.2e} over 1000 trees, "
              f"{worst_local:.2e} over 30 surrogate results ({elapsed:.1f}s)")
    _report(1, "base + sum(phi) recovers the prediction", ok, detail)
    assert ok, detail


def test_criterion_02_tree_explainer_matches_subset_enumeration():
    started = time.perf_counter()
    rng = RandomStream(201)
    worst = 0.0
    for _ in range(200):
        d = _randint(rng, 2, 11)
        tree = random_tree(rng, d, _randint(rng, 1, 6))
        x = 3.0 * rng.normal(d)
        table = enumerate_tree_values(tree, x)
        exact = shapley_brute_force(lambda mask: table[mask], d)
        worst = max(worst, float(np.abs(tree_shap(tree, x).phi - exact).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    detail = f"max |phi - brute force| {worst:.2e} over 200 trees ({elapsed:.1f}s)"
    _report(2, "path algorithm equals enumeration", ok, detail)
    assert ok, detail


def test_criterion_03_unused_features_get_exactly_zero():
    rng = RandomStream(301)
    exact_zeros = 0
    for _ in range(100):
        d = _randint(rng, 3, 9)
        skipped = _randint(rng, 0, d)
        allowed = [j for j in range(d) if j != skipped]
        tree = random_tree(rng, d, _randint(rng, 2, 6), allowed_features=allowed)
        x = 3.0 * rng.normal(d)
        if tree_shap(tree, x).phi[skipped] == 0.0:
            exact_zeros += 1
    ok = exact_zeros == 100
    detail = f"{exact_zeros}/100 ignored features scored exactly 0.0"
    _report(3, "attribution vanishes for unused features", ok, detail)
    assert ok, detail


def test_criterion_04_larger_marginals_never_rank_lower():
    rng = RandomStream(401)
    verified = 0
    violations = 0
    for _ in range(60):
        d = _randint(rng, 2, 7)
        t2 = random_tree(rng, d, _randint(rng, 2, 5))
        x = 3.0 * rng.normal(d)
        i = t2.feature[0]
        hot = t2.child[0, 1] if x[i] <= t2.threshold[0] else t2.child[0, 0]
        c = 0.5 + 2.0 * float(rng.uniform(1)[0])
        t1 = shift_subtree(t2, hot, c)

        v1 = enumerate_tree_values(t1, x)
        v2 = enumerate_tree_values(t2, x)
        masks = np.arange(1 << d)
        without_i = masks[(masks >> i) & 1 == 0]
        gain1 = v1[without_i | (1 << i)] - v1[without_i]
        gain2 = v2[without_i | (1 << i)] - v2[without_i]
        if not np.all(gain1 >= gain2 - 1e-12):
            continue
        verified += 1
        if not tree_shap(t1, x).phi[i] >= tree_shap(t2, x).phi[i] - 1e-12:
            violations += 1
    ok = verified >= 50 and violations == 0
    detail = (f"{verified} pairs with enumerated premise (need >= 50), "
              f"{violations} ordering violations")
    _report(4, "monotone game change never lowers phi", ok, detail)
    assert ok, detail


def test_criterion_05_weighted_regression_estimator_is_exact():
    rng = RandomStream(501)
    worst = 0.0
    checked = 0
    for k in range(50):
        d = _randint(rng, 2, 9)
        n = 60
        X = rng.normal_matrix(n, d)
        class_index = None
        if k % 2 == 0:
            y = X @ rng.normal(d) + 0.3 * rng.normal(n)
            data = Dataset(compute_feature_meta(X, [f"f{j}" for j in range(d)]),
                           X, y, Task.regression())
            model = fit_mlp(data, [6], 5, 0.05, RandomStream(child_seed(502, k)))
        else:
            if k % 4 == 1:
                labels = (X @ rng.normal(d) > 0).astype(float)
                task, class_index = Task.classification(2), 1
            else:
                labels = X @ rng.normal(d)
                task = Task.regression()
            data = Dataset(compute_feature_meta(X, [f"f{j}" for j in range(d)]),
                           X, labels, task)
            model = fit_random_forest(data, 5, TreeParams(max_depth=3),
                                      RandomStream(child_seed(503, k)))
        x = X[0]
        background = X[10:25]
        table = _interventional_table(model, x, background, d, class_index)
        exact = shapley_brute_force(lambda mask: table[mask], d)
        est = kernel_shap(model, x, background, "exact", RandomStream(504),
                          class_index=class_index)
        worst = max(worst, float(np.abs(est.phi - exact).max()))
        checked += 1
    ok = worst <= 1e-6 and checked == 50
    detail = f"max |exact-mode - brute force| {worst:.2e} over {checked} models"
    _report(5, "exact coalition regression equals brute force", ok, detail)
    assert ok, detail


def test_criterion_06_surrogate_is_at_least_ten_times_faster():
    started = time.perf_counter()
    data = make_regression_dataset(601, 400, 30, noise=0.05)
    model = fit_mlp(data, [128, 128], 10, 0.05, RandomStream(602))
    X = data.rows[:100]
    background = data.rows[:100]

    t0 = time.perf_counter()
    results = limase_explain_batch(model, X, data.features,
                                   LimaseConfig(n_samples=1000, seed=0))
    t_limase = time.perf_counter() - t0
    assert all(not isinstance(r, Exception) for r in results)

    t0 = time.perf_counter()
    for i in range(X.shape[0]):
        kernel_shap(model, X[i], background, 2048, RandomStream(child_seed(603, i)))
    t_kernel = time.perf_counter() - t0

    total = time.perf_counter() - started
    speedup = t_kernel / t_limase
    ok = speedup >= 10.0 and total < 600.0
    detail = (f"surrogate {t_limase:.1f}s vs coalition sampling {t_kernel:.1f}s "
              f"over 100 instances (speedup {speedup:.1f}x, total {total:.0f}s)")
    _report(6, "surrogate pipeline speedup >= 10x", ok, detail)
    assert ok, detail


def test_criterion_07_surrogate_agrees_with_direct_tree_explainer():
    rng = RandomStream(701)
    n, d = 300, 4
    X = rng.normal_matrix(n, d)
    # axis-aligned steps with well-separated magnitudes; both explainers
    # should rank features by which thresholds the instance straddles
    y = (X > 0) @ np.array([16.0, 4.0, 2.0, 1.0]) + 0.05 * rng.normal(n)
    data = Dataset(compute_feature_meta(X, [f"f{j}" for j in range(d)]),
                   X, y, Task.regression())
    forest = fit_random_forest(data, 40, TreeParams(max_depth=6), RandomStream(702),
                               mtry=d)

    results = limase_explain_batch(forest, X[:100], data.features,
                                   LimaseConfig(n_samples=1000, seed=3))
    top1_hits = 0
    correlations = []
    for i, r in enumerate(results):
        assert not isinstance(r, Exception)
        local = np.abs(r.explanation.phi)
        direct = np.abs(forest_shap(forest, X[i]).phi)
        if int(np.argmax(local)) == int(np.argmax(direct)):
            top1_hits += 1
        correlations.append(_spearman(local, direct))
    mean_rho = float(np.mean(correlations))
    ok = top1_hits >= 70 and mean_rho >= 0.6
    detail = (f"top-1 feature agreement {top1_hits}/100 (need >= 70), "
              f"mean rank correlation {mean_rho:.3f} (need >= 0.6)")
    _report(7, "surrogate ranks features like the direct explainer", ok, detail)
    assert ok, detail


def test_criterion_08_wider_kernels_pull_base_toward_global_mean():
    d = 4
    model = QuadraticModel(d)
    rng = RandomStream(801)
    rows = rng.normal_matrix(400, d)
    features = compute_feature_meta(rows, [f"f{j}" for j in range(d)])
    global_mean = float(model.predict_scalar(rows).mean())
    x = np.zeros(d)
    sigmas = [0.5, 2.0, 50.0]

    per_sigma = np.zeros(len(sigmas))
    for seed in range(5):
        sweep = sigma_sweep(model, x, features,
                            LimaseConfig(n_samples=2000, seed=seed), sigmas)
        per_sigma += [abs(res.explanation.base_value - global_mean)
                      for _, res in sweep]
    per_sigma /= 5
    ok = bool(per_sigma[0] >= per_sigma[1] >= per_sigma[2])
    gaps = ", ".join(f"sigma={s}: {g:.3f}" for s, g in zip(sigmas, per_sigma))
    _report(8, "base value approaches global mean as sigma grows", ok, gaps)
    assert ok, gaps


def test_criterion_09_greedy_pick_meets_the_submodular_bound():
    rng = RandomStream(901)
    bound = 1.0 - 1.0 / np.e
    worst_ratio = np.inf
    histories_ok = True
    for _ in range(25):
        S = rng.normal_matrix(8, 5) * (rng.uniform(40).reshape(8, 5) > 0.4)
        matrix = ExplanationMatrix(S=S, indices=list(range(8)))
        result = submodular_pick(matrix, 3)
        histories_ok &= all(a <= b + 1e-12 for a, b in
                            zip(result.coverage_history, result.coverage_history[1:]))
        importance = feature_importance(matrix)
        best = max(coverage(list(combo), matrix, importance)
                   for combo in itertools.combinations(range(8), 3))
        if best > 0:
            worst_ratio = min(worst_ratio, result.coverage_history[-1] / best)

    started = time.perf_counter()
    data = make_regression_dataset(902, 150, 4)
    forest = fit_random_forest(data, 10, TreeParams(max_depth=4), RandomStream(903))
    pick, matrix, _ = sp_explain(forest, data, list(range(100)),
                                 LimaseConfig(n_samples=100, seed=1), 10)
    elapsed = time.perf_counter() - started
    full_ok = (len(pick.selected) == 10 and matrix.n == 100
               and all(a <= b + 1e-12 for a, b in
                       zip(pick.coverage_history, pick.coverage_history[1:])))

    ok = worst_ratio >= bound and histories_ok and full_ok and elapsed < 60.0
    detail = (f"worst greedy/optimal ratio {worst_ratio:.3f} (bound {bound:.3f}), "
              f"100-instance pick in {elapsed:.1f}s")
    _report(9, "greedy coverage meets the 1-1/e bound", ok, detail)
    assert ok, detail


def test_criterion_10_command_line_reruns_are_byte_identical(tmp_path):
    data = make_regression_dataset(1001, 120, 4)
    csv = tmp_path / "data.csv"
    write_csv(data, csv, target_column="y")

    jobs = [
        ("explain", ["--n-samples", "100", "--instance", "3"]),
        ("global", ["--n-samples", "60", "--count", "6"]),
        ("sp", ["--n-samples", "60", "--count", "6", "--budget", "2"]),
    ]
    stable = []
    for command, extra in jobs:
        out = tmp_path / command
        argv = [command, "--data", str(csv), "--target", "y",
                "--seed", "5", "--out", str(out), *extra]
        assert cli_main(argv) == 0
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert cli_main(argv) == 0
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        stable.append(first == second and len(first) >= 2)
    ok = all(stable)
    detail = ", ".join(f"{cmd}: {'stable' if s else 'DRIFTED'}"
                       for (cmd, _), s in zip(jobs, stable))
    _report(10, "rerun artifacts are byte-identical", ok, detail)
    assert ok, detail
