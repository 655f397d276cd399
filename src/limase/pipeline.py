"""Local surrogate explanation: perturb, weight, fit a tree, explain it.

For one instance x the pipeline samples N Gaussian perturbations scaled
by each feature's spread, weights them by exp(-distance^2 / sigma^2) in
standardized space, fits a weighted regression tree g to the black box's
scalar output, and reads exact Shapley values off g with the tree
explainer.  The anchor x is always part of the training set with weight
one, and the explanation's efficiency identity holds against g(x); how
far g is from f locally is reported as a weighted R^2, never hidden.
"""
from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BlackBoxModel,
    ConfigError,
    FeatureMeta,
    LimaseError,
    RandomStream,
    check_row,
    child_seed,
)
from .external import ExternalModel
from .shapley import ShapExplanation, tree_shap
from .stripes import _usable_cpus, stripe_map
from .trees import DecisionTree, TreeParams, fit_tree, predict_batch


@dataclass(frozen=True)
class LimaseConfig:
    """Knobs of the local surrogate pipeline.

    sigma is the kernel width in standardized-distance units; it is
    recorded in every result.
    """

    n_samples: int = 1000
    sigma: float = 5.0
    tree_params: TreeParams = field(default_factory=TreeParams)
    seed: int = 0
    class_index: int | None = None

    def __post_init__(self):
        if self.n_samples < 10:
            raise ConfigError(f"n_samples must be >= 10, got {self.n_samples}")
        if not 0 < self.sigma < np.inf:  # NaN fails this too
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass
class LimaseResult:
    """Surrogate explanation of one instance plus the fit diagnostics.

    fidelity_r2 is None when the weighted variance of the model's output
    over the perturbation set is zero (locally constant model); those and
    any no-split fits carry degenerate=True and an all-zero phi vector.
    """

    explanation: ShapExplanation
    surrogate: DecisionTree
    fidelity_r2: float | None
    degenerate: bool
    config: LimaseConfig

    def to_json_dict(self, feature_names: list[str] | None = None) -> dict:
        record = self.explanation.to_json_dict(feature_names)
        record["fidelity_r2"] = self.fidelity_r2
        record["sigma"] = self.config.sigma
        record["n_samples"] = self.config.n_samples
        record["degenerate"] = self.degenerate
        record["surrogate_depth"] = self.surrogate.depth
        return record


def sample_around(
    x: np.ndarray, features: list[FeatureMeta], N: int, rng: RandomStream
) -> np.ndarray:
    """N Gaussian perturbations of x, scaled per feature by its spread.

    Constant features (std 0) are never perturbed.  Deterministic given
    the stream.
    """
    x = np.asarray(x, dtype=float)
    d = len(features)
    if x.shape != (d,):
        raise ValueError(f"expected a row of length {d}, got shape {x.shape}")
    if N < 0:
        raise ValueError("N must be non-negative")
    stds = np.array([f.std for f in features])
    return x + rng.normal_matrix(N, d) * stds


def _standardized_sq_distances(
    x: np.ndarray, Z: np.ndarray, features: list[FeatureMeta]
) -> np.ndarray:
    stds = np.array([f.std for f in features])
    safe = np.where(stds > 0, stds, 1.0)
    diff = (np.atleast_2d(Z) - x) / safe
    diff[:, stds == 0] = 0.0
    return np.sum(diff * diff, axis=1)


def kernel_weights(
    x: np.ndarray, Z: np.ndarray, sigma: float, features: list[FeatureMeta]
) -> np.ndarray:
    """exp(-d^2/sigma^2) per row, with d Euclidean in standardized space."""
    x = np.asarray(x, dtype=float)
    return np.exp(-_standardized_sq_distances(x, Z, features) / (sigma * sigma))


def _score(
    model: BlackBoxModel, x: np.ndarray, features: list[FeatureMeta], config: LimaseConfig
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Validate x, sample around it and score the rows in one black-box call.

    Returns the rows (row 0 is x), their scalar targets and the class
    whose probability the targets are (None for regression).
    """
    model.task.check_class_index(config.class_index)
    x = check_row(x, len(features))
    if model.d != x.size:
        raise ValueError(f"model expects {model.d} features, metadata describes {x.size}")

    rng = RandomStream(config.seed)
    sampled = sample_around(x, features, config.n_samples, rng)
    rows = np.vstack([x[None, :], sampled])

    # row 0 is x, so the one scoring call also picks the default class
    targets, class_index = model.predict_scalar_and_class(rows, config.class_index)
    return rows, targets, class_index


def _fit(
    x: np.ndarray, rows: np.ndarray, targets: np.ndarray, class_index: int | None,
    features: list[FeatureMeta], config: LimaseConfig,
) -> LimaseResult:
    """Weight the scored rows at config.sigma, fit the surrogate and explain x."""
    weights = kernel_weights(x, rows, config.sigma, features)
    surrogate = fit_tree(rows, targets, weights, config.tree_params)
    explanation = tree_shap(surrogate, x)
    explanation.class_index = class_index
    explanation.explainer = "limase"

    w_total = weights.sum()
    mean_w = float(np.dot(weights, targets)) / w_total
    centered = targets - mean_w
    denom = float(np.dot(weights, centered * centered))
    degenerate = surrogate.n_leaves == 1
    if denom == 0.0:
        fidelity = None
        degenerate = True
    else:
        residual = predict_batch(surrogate, rows) - targets
        fidelity = 1.0 - float(np.dot(weights, residual * residual)) / denom
    return LimaseResult(explanation=explanation, surrogate=surrogate,
                        fidelity_r2=fidelity, degenerate=degenerate, config=config)


def limase_explain(
    model: BlackBoxModel,
    x: np.ndarray,
    features: list[FeatureMeta],
    config: LimaseConfig,
) -> LimaseResult:
    """Explain one instance through a locally fitted surrogate tree.

    Classification explains the probability of config.class_index,
    defaulting to the model's predicted class at x.  The efficiency
    identity base + sum(phi) = g(x) holds within 1e-9; the g-vs-f gap is
    reported as fidelity_r2 over the weighted perturbation set.  Scores
    that are not one finite value per perturbation row raise
    ModelOutputError; any other failure of the black box is wrapped in a
    LimaseError.  A non-finite x raises DataError.  A class_index the
    model cannot score raises ConfigError before the black box is called.
    """
    started = time.perf_counter()
    rows, targets, class_index = _score(model, x, features, config)
    result = _fit(rows[0], rows, targets, class_index, features, config)
    result.explanation.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return result


def limase_explain_batch(
    model: BlackBoxModel,
    X: np.ndarray,
    features: list[FeatureMeta],
    config: LimaseConfig,
) -> list[LimaseResult | LimaseError]:
    """explain_rows over the rows of X with limase_rows: a failed row holds its LimaseError."""
    return explain_rows(model, X, limase_rows(model, features, config))


def limase_rows(
    model: BlackBoxModel, features: list[FeatureMeta], config: LimaseConfig
) -> Callable[[int, np.ndarray], LimaseResult]:
    """explain(i, x) for explain_rows: limase_explain at seed child_seed(config.seed, i).

    A class_index the model cannot score raises ConfigError before any row.
    """
    model.task.check_class_index(config.class_index)

    def explain(i: int, x: np.ndarray) -> LimaseResult:
        return limase_explain(model, x, features, replace(config, seed=child_seed(config.seed, i)))

    return explain


def explain_rows(
    model: BlackBoxModel,
    X: np.ndarray,
    explain: Callable[[int, np.ndarray], object],
    indices: Sequence[int] | None = None,
) -> list:
    """[explain(i, X[i]) for each row i]: the one row runner of every explainer.

    A row whose explain raises a LimaseError holds that error, with its
    __cause__ chain, in place of a result; any other exception fails the
    call.  With indices, the dataset row of each row of X, the first
    failed row fails the call instead, with a LimaseError that names its
    dataset row and has the row's error as its cause.

    The black box decides how rows run, and results do not depend on it:
    each row is one call of explain with its own i, so every entry
    equals the serial one bit for bit.
    - An ExternalModel's rows share a pool of one thread per usable CPU:
      a thread waiting on the child's pipe releases the GIL, so one row's
      in-process work overlaps another row's round trip.
    - Any other model's rows go through stripes.stripe_map, which forks
      stripes of them over every CPU when a row time says that saves time
      (see stripes), and otherwise runs them in order in the caller's
      thread.  A thread pool would not help: in-process work contends
      for the GIL.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))

    def explain_row(i: int):
        try:
            return explain(i, X[i])
        except LimaseError as e:
            return e

    rows = range(X.shape[0])
    if isinstance(model, ExternalModel):
        with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
            results = list(pool.map(explain_row, rows))
    else:
        results = stripe_map(explain_row, rows)
    for index, result in zip(indices or (), results):
        if isinstance(result, LimaseError):
            raise LimaseError(f"explanation failed for dataset row {index}: {result}") from result
    return results


def sigma_sweep(
    model: BlackBoxModel,
    x: np.ndarray,
    features: list[FeatureMeta],
    config: LimaseConfig,
    sigmas: list[float],
) -> list[tuple[float, LimaseResult]]:
    """Explain one instance at several kernel widths from one scoring call.

    The rows are sampled and scored once; each sigma only reweights them,
    fits its own surrogate and explains it, so entry i equals
    limase_explain at sigmas[i] bit for bit (its elapsed_ms covers only
    its own fit).  Wide kernels approach a global fit, narrow ones a
    hyper-local one.
    """
    if not sigmas:
        raise ConfigError("sigmas must be non-empty")
    configs = [replace(config, sigma=float(s)) for s in sigmas]  # each checks its sigma
    rows, targets, class_index = _score(model, x, features, config)
    out = []
    for cfg in configs:
        started = time.perf_counter()
        result = _fit(rows[0], rows, targets, class_index, features, cfg)
        result.explanation.elapsed_ms = (time.perf_counter() - started) * 1000.0
        out.append((cfg.sigma, result))
    return out
