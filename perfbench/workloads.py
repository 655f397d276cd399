"""The three benchmark workloads: inputs made from a seed, and their parts.

Every workload is closed-loop: one caller issues a request and waits for
its reply before the next. A workload is a list of parts, each a fixed
list of work items derived from the seed. The harness runs every part's
list in turn, round after round, until the run time is used, so the set
of explained rows, and hence every checked output, does not depend on
how fast the machine is; the item lists set how the time divides.

Each workload's black box (data set and trained model) is fixed: it is
built from a constant seed, so runs differ only in what the run seed
draws, which rows are explained and every seed the explainers get.
Data and draws come from numpy directly, not from the package's random
streams, so a change to the program cannot change them.
"""
from __future__ import annotations

import json
import math
import shlex
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import limase as lm
import limase.cli

HERE = Path(__file__).resolve().parent

KERNEL_BUDGET = 2048
MLP_HIDDEN = [64, 64]
MLP_EPOCHS = 20
MLP_LEARNING_RATE = 0.01
# The model must carry signal, or fidelity describes a constant function.
MIN_TRAIN_SCORE = 0.95

ADDITIVITY_TOL = 1e-9
KERNEL_ADDITIVITY_TOL = 1e-6
OUTPUT_TOL = 1e-9


@dataclass
class Outcome:
    """The checked result of one explained row."""

    ok: bool
    digest: bytes = b""
    fidelity: float | None = None
    degenerate: bool | None = None


@dataclass
class Part:
    """One timed part of a workload.

    run(item) does the work and returns its raw result; check(item, result)
    turns it into Outcomes, one per row the item stands for.
    """

    name: str
    items: Callable[[], list]
    rows: Callable[[object], int]
    run: Callable[[object], object]
    check: Callable[[object, object], list[Outcome]]


@dataclass
class Workload:
    """A set-up workload: its parts, in order, and what to release after."""

    parts: list[Part]
    info: dict = field(default_factory=dict)
    close: Callable[[], None] = lambda: None


# -- inputs ------------------------------------------------------------


def regression_dataset(rng: np.random.Generator, n: int, d: int) -> lm.Dataset:
    """Gaussian features of mixed scale, a linear target, one interaction."""
    scales = 0.5 + 2.0 * rng.random(d)
    X = rng.standard_normal((n, d)) * scales
    y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n) + 0.5 * X[:, 0] * X[:, 1]
    names = [f"f{j}" for j in range(d)]
    return lm.Dataset(lm.compute_feature_meta(X, names), X, y, lm.Task.regression())


def classification_dataset(rng: np.random.Generator, n: int, d: int, k: int) -> lm.Dataset:
    """Label = argmax over k random linear scores."""
    X = rng.standard_normal((n, d))
    labels = np.argmax(X @ rng.standard_normal((d, k)), axis=1).astype(float)
    names = [f"f{j}" for j in range(d)]
    return lm.Dataset(lm.compute_feature_meta(X, names), X, labels, lm.Task.classification(k))


def seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


# -- checks ------------------------------------------------------------


def explanation_outcome(e, tol: float, expected_fx: float | None = None) -> Outcome:
    """Finite phi, base + sum(phi) = fx within tol, fx = model output if given."""
    phi = np.asarray(e.phi, dtype=float)
    base, fx = float(e.base_value), float(e.fx)
    ok = (phi.ndim == 1 and bool(np.all(np.isfinite(phi)))
          and math.isfinite(base) and math.isfinite(fx)
          and abs(base + phi.sum() - fx) <= tol)
    if expected_fx is not None:
        ok = ok and abs(fx - expected_fx) <= OUTPUT_TOL * (1.0 + abs(expected_fx))
    return Outcome(ok, phi.tobytes() + np.array([base, fx]).tobytes())


def limase_outcome(result) -> Outcome:
    if isinstance(result, Exception):
        return Outcome(False)
    out = explanation_outcome(result.explanation, ADDITIVITY_TOL)
    fidelity = result.fidelity_r2
    if fidelity is not None and not (math.isfinite(fidelity) and fidelity <= 1.0 + 1e-12):
        out.ok = False
    out.fidelity = fidelity
    out.degenerate = bool(result.degenerate)
    return out


# -- shared parts --------------------------------------------------------


def batch_part(model, data: lm.Dataset, config: lm.LimaseConfig,
               rows: np.ndarray) -> Part:
    """All rows in one limase_explain_batch call, which derives per-row seeds."""
    return Part(
        "batch", lambda: [rows], len,
        lambda X: lm.limase_explain_batch(model, X, data.features, config),
        lambda X, results: [limase_outcome(r) for r in results],
    )


def single_part(model, data: lm.Dataset, config: lm.LimaseConfig,
                singles: list[tuple[np.ndarray, int]], surrogates: list) -> Part:
    """One limase_explain call per row; keeps each row's surrogate for tree_shap."""

    def run(item):
        x, seed = item
        return lm.limase_explain(model, x, data.features, replace(config, seed=seed))

    def check(item, result):
        if len(surrogates) < len(singles):  # the first round's surrogates
            surrogates.append((item[0], result.surrogate))
        return [limase_outcome(result)]

    return Part("single", lambda: singles, lambda item: 1, run, check)


def tree_shap_part(surrogates: list) -> Part:
    """Exact TreeSHAP on the surrogate trees the single-row part fitted."""
    return Part(
        "treeshap", lambda: surrogates, lambda item: 1,
        lambda item: lm.tree_shap(item[1], item[0]),
        lambda item, e: [explanation_outcome(e, ADDITIVITY_TOL)],
    )


def kernel_part(model, reference, background: np.ndarray,
                items: list[tuple[np.ndarray, int]]) -> Part:
    """kernel_shap rows; fx must equal the in-process reference model's output."""

    def check(item, e):
        expected = reference.predict_scalar(item[0][None, :], e.class_index)[0]
        return [explanation_outcome(e, KERNEL_ADDITIVITY_TOL, float(expected))]

    return Part(
        "kernel", lambda: items, lambda item: 1,
        lambda item: lm.kernel_shap(model, item[0], background, KERNEL_BUDGET,
                                    lm.RandomStream(item[1])),
        check,
    )


def pick(rng: np.random.Generator, data: lm.Dataset, count: int) -> np.ndarray:
    return data.rows[np.sort(rng.choice(data.n, size=count, replace=False))]


# -- workloads -----------------------------------------------------------

# Seed of every workload's black box; the run seed never reaches it.
BLACK_BOX_SEED = 20221010


def mlp_black_box() -> tuple[lm.Dataset, lm.MlpModel, float]:
    """d=30 regression data and a [64, 64] MLP fitted to it (train R2 ~0.99)."""
    rng = np.random.default_rng([BLACK_BOX_SEED, 1])
    data = regression_dataset(rng, 2000, 30)
    model = lm.fit_mlp(data, MLP_HIDDEN, MLP_EPOCHS, MLP_LEARNING_RATE,
                       lm.RandomStream(seeds(rng, 1)[0]))
    return data, model, lm.training_score(model, data)


def mlp_global(seed: int, workdir: Path) -> Workload:
    data, model, score = mlp_black_box()
    rng = np.random.default_rng([seed, 1])
    config = lm.LimaseConfig(seed=seeds(rng, 1)[0])
    batch = pick(rng, data, 24)
    singles = list(zip(pick(rng, data, 30), seeds(rng, 30)))
    background = pick(rng, data, 100)
    kernel_rows = list(zip(pick(rng, data, 2), seeds(rng, 2)))
    surrogates: list = []
    parts = [
        batch_part(model, data, config, batch),
        single_part(model, data, config, singles, surrogates),
        tree_shap_part(surrogates),
        kernel_part(model, model, background, kernel_rows),
    ]
    return Workload(parts, {"train_r2": score, "inputs_ok": score >= MIN_TRAIN_SCORE})


def forest_cls(seed: int, workdir: Path) -> Workload:
    box = np.random.default_rng([BLACK_BOX_SEED, 2])
    data = classification_dataset(box, 1000, 10, 3)
    forest = lm.fit_random_forest(data, 50, lm.TreeParams(max_depth=6),
                                  lm.RandomStream(seeds(box, 1)[0]))
    score = lm.training_score(forest, data)
    rng = np.random.default_rng([seed, 2])
    config = lm.LimaseConfig(seed=seeds(rng, 1)[0])
    batch = pick(rng, data, 16)
    singles = list(zip(pick(rng, data, 20), seeds(rng, 20)))
    forest_rows = list(pick(rng, data, 10))
    background = pick(rng, data, 20)
    kernel_rows = list(zip(pick(rng, data, 2), seeds(rng, 2)))

    def check_forest(x, e):
        expected = forest.raw_scores(x[None, :])[0, e.class_index]
        return [explanation_outcome(e, ADDITIVITY_TOL, float(expected))]

    parts = [
        batch_part(forest, data, config, batch),
        single_part(forest, data, config, singles, []),
        Part("treeshap", lambda: forest_rows, lambda item: 1,
             lambda x: lm.forest_shap(forest, x), check_forest),
        kernel_part(forest, forest, background, kernel_rows),
    ]
    return Workload(parts, {"train_accuracy": score, "inputs_ok": score >= MIN_TRAIN_SCORE})


def external_sp(seed: int, workdir: Path) -> Workload:
    data, model, score = mlp_black_box()
    weights = workdir / "mlp.npz"
    np.savez(weights, **{f"w{i}": w for i, w in enumerate(model.weights)},
             **{f"b{i}": b for i, b in enumerate(model.biases)})
    csv_path = workdir / "data.csv"
    lm.write_csv(data, csv_path, "target")
    command = [sys.executable, str(HERE / "mlp_server.py"), str(weights)]
    rng = np.random.default_rng([seed, 3])
    external = lm.attach_external(command, data.d, "regression")
    try:
        probe = pick(rng, data, 64)
        served = external.predict(probe).values
        local = model.predict(probe).values
        faithful = bool(np.max(np.abs(served - local))
                        <= OUTPUT_TOL * (1.0 + np.max(np.abs(local))))
    except BaseException:
        external.close()
        raise

    budget, count = 5, 20
    out_dir = workdir / "sp"
    argv = ("sp", "--data", str(csv_path), "--target", "target", "--task", "regression",
            "--model", "external:" + shlex.join(command), "--count", str(count),
            "--budget", str(budget), "--seed", str(seeds(rng, 1)[0]), "--out", str(out_dir))

    def run_sp(args):
        """The sp command; the explanations it computes are kept for the check.

        limase.cli binds sp_explain, which returns the pick, the matrix
        and every row's LimaseResult; the command writes only the pick.
        Wrapping that binding from outside, for the command's duration,
        hands the results to check_sp.
        """
        shutil.rmtree(out_dir, ignore_errors=True)
        inner = limase.cli.sp_explain
        results: list = []

        def keep_results(*a, **kw):
            out = inner(*a, **kw)
            results.extend(out[2])
            return out

        limase.cli.sp_explain = keep_results
        try:
            code = limase.cli.main(list(args))
        finally:
            limase.cli.sp_explain = inner
        return code, results

    def check_sp(args, out):
        """Each explained row passes the limase check; sp.json picks `budget` rows.

        One outcome per explained row. sp.json must parse, pick `budget`
        distinct rows of the sample, and carry the importance that the
        checked explanations give, sqrt of the column sums of |phi|; if
        it does not, every row of the command fails.
        """
        code, results = out
        if len(results) != count:
            return [Outcome(False) for _ in range(count)]
        outcomes = [limase_outcome(r) for r in results]
        try:
            payload = json.loads((out_dir / "sp.json").read_text(encoding="utf-8"))
            selected = [int(i) for i in payload["selected"]]
            importance = np.asarray(payload["importance"], dtype=float)
            history = np.asarray(payload["coverage_history"], dtype=float)
            phi = np.vstack([np.asarray(r.explanation.phi, dtype=float) for r in results])
            expected = np.sqrt(np.abs(phi).sum(axis=0))
            ok = (code == 0 and len(selected) == budget and len(set(selected)) == budget
                  and all(0 <= i < count for i in selected)
                  and importance.shape == (data.d,)
                  and bool(np.all(np.abs(importance - expected)
                                  <= OUTPUT_TOL * (1.0 + expected)))
                  and (out_dir / "summary.svg").is_file())
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            return [Outcome(False) for _ in range(count)]
        outcomes[0].digest += (np.asarray(selected, dtype=np.int64).tobytes()
                               + importance.tobytes() + history.tobytes())
        return outcomes

    config = lm.LimaseConfig(seed=seeds(rng, 1)[0])
    singles = list(zip(pick(rng, data, 15), seeds(rng, 15)))
    background = pick(rng, data, 5)
    kernel_rows = list(zip(pick(rng, data, 2), seeds(rng, 2)))
    surrogates: list = []
    parts = [
        Part("sp", lambda: [argv], lambda args: count, run_sp, check_sp),
        single_part(external, data, config, singles, surrogates),
        tree_shap_part(surrogates),
        kernel_part(external, model, background, kernel_rows),
    ]
    info = {"train_r2": score, "server_faithful": faithful,
            "inputs_ok": score >= MIN_TRAIN_SCORE and faithful}
    return Workload(parts, info, external.close)


WORKLOADS = {
    "mlp-global": mlp_global,
    "forest-cls": forest_cls,
    "external-sp": external_sp,
}
