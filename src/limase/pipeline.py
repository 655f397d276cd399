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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BlackBoxModel,
    ConfigError,
    Dataset,
    FeatureMeta,
    LimaseError,
    ModelOutputError,
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
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")


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

    try:
        # row 0 is x, so the one scoring call also picks the default class
        targets, class_index = model.predict_scalar_and_class(rows, config.class_index)
    except ModelOutputError:
        raise
    except Exception as e:
        raise LimaseError(f"black-box prediction failed during perturbation scoring: {e}") from e
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
    """Explain each row of X; entry i uses a seed derived from (seed, i).

    Per-row failures do not abort the batch: the failed position holds
    the exception, with its __cause__ chain, instead of a result.  A
    class_index the model cannot score raises ConfigError once, before
    the first row.

    The black box decides how rows run, and results do not depend on it:
    each row keeps its seed and its one scoring call, so every entry
    equals the serial one bit for bit.
    - An ExternalModel's rows share a pool of one thread per usable CPU:
      a thread waiting on the child's pipe releases the GIL, so one row's
      surrogate fit overlaps another row's round trip.
    - Any other model's rows go through stripes.stripe_map, which times
      row 0 in the caller and forks stripes of the other rows over every
      CPU when that time says striping saves time; otherwise, and
      always off Linux or when the caller has more than one live thread,
      the rows run in order in the caller's thread.  A thread pool would
      not help: in-process work contends for the GIL.  A forked row's
      side effects in predict (counters, caches) stay in its worker.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    model.task.check_class_index(config.class_index)

    def explain_row(i: int) -> LimaseResult | LimaseError:
        row_config = replace(config, seed=child_seed(config.seed, i))
        try:
            return limase_explain(model, X[i], features, row_config)
        except LimaseError as e:
            return e

    rows = range(X.shape[0])
    if isinstance(model, ExternalModel):
        with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
            return list(pool.map(explain_row, rows))
    return stripe_map(explain_row, rows)


def explain_dataset_rows(
    model: BlackBoxModel,
    dataset: Dataset,
    indices: list[int],
    config: LimaseConfig,
) -> list[LimaseResult]:
    """limase_explain_batch over the dataset rows at indices, failing on the first failed row.

    That row's error becomes the cause of a LimaseError naming its
    dataset row.
    """
    results = limase_explain_batch(model, dataset.rows[indices], dataset.features, config)
    for index, result in zip(indices, results):
        if isinstance(result, LimaseError):
            raise dataset_row_failure(index, result)
    return results


def dataset_row_failure(index: int, error: LimaseError) -> LimaseError:
    """The error a batch over dataset rows raises when row index fails with error.

    It names the dataset row, and error is its cause.
    """
    failure = LimaseError(f"explanation failed for dataset row {index}: {error}")
    failure.__cause__ = error
    return failure


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
    if any(not s > 0 for s in sigmas):
        raise ConfigError("all sigma values must be positive")
    rows, targets, class_index = _score(model, x, features, config)
    out = []
    for s in sigmas:
        started = time.perf_counter()
        cfg = replace(config, sigma=float(s))
        result = _fit(rows[0], rows, targets, class_index, features, cfg)
        result.explanation.elapsed_ms = (time.perf_counter() - started) * 1000.0
        out.append((float(s), result))
    return out
