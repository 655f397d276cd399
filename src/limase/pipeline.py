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

import multiprocessing
import os
import pickle
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
    - Any other model explains row 0 in the caller and times it.  The
      remaining rows are split into contiguous stripes, one per worker,
      when there are at least two workers (usable CPUs // BLAS threads,
      at most one per row) and row 0's time, taken for every remaining
      row, says striping would save at least _MIN_SAVING_S (50 ms) of
      wall time; a fork costs more than a few fast rows.  The first
      stripe runs in the caller; the others run in processes
      forked from it, which return their results pickled.  BLAS threads
      are read once, when this module loads, as OpenBLAS reads them
      (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one per usable
      CPU); with any other BLAS they count as one per usable CPU.  So
      pinning OpenBLAS to one thread before numpy loads is what turns
      the workers on.  A forked row's side effects in predict (counters,
      caches) stay in its worker, and worker memory is not in the
      caller's RUSAGE_SELF peak.
    - Otherwise, and always off Linux or when the caller has more than
      one live thread (a fork could copy a lock another thread holds),
      the rows run in order in the caller's thread.  A thread pool would
      not help: in-process work contends for the GIL.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    model.task.check_class_index(config.class_index)

    def explain_row(i: int) -> LimaseResult | LimaseError:
        row_config = replace(config, seed=child_seed(config.seed, i))
        try:
            return limase_explain(model, X[i], features, row_config)
        except LimaseError as e:
            return e

    n = X.shape[0]
    if isinstance(model, ExternalModel):
        with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
            return list(pool.map(explain_row, range(n)))
    if n < 2:
        return [explain_row(i) for i in range(n)]
    started = time.perf_counter()
    out = [explain_row(0)]
    row_s = time.perf_counter() - started
    rest = n - 1
    workers = _fork_workers(rest)  # after row 0, whose predict may have started a thread
    longest = -(-rest // workers)  # rows in the longest stripe
    if workers >= 2 and row_s * (rest - longest) >= _MIN_SAVING_S:
        return out + _explain_forked(explain_row, 1, n, workers)
    return out + [explain_row(i) for i in range(1, n)]


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
            raise LimaseError(f"explanation failed for dataset row {index}: {result}") from result
    return results


# Least wall time, in seconds, that striping a batch's remaining rows must be
# estimated to save before they are forked.  The estimate assumes every row
# takes as long as row 0: its time multiplied by the rows beyond the longest
# stripe.  Measured on a 2-vCPU VM, the real saving fell 17-28 ms short of
# the estimate (pool start and shutdown 6-10 ms, a worker's rows about 8%
# slower than the caller's), so forking paid from an estimate of about 25 ms.
_MIN_SAVING_S = 0.05


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads per BLAS call, read from the environment as OpenBLAS reads it.

    OpenBLAS reads its variables once, when numpy loads; another BLAS
    counts as one thread per usable CPU, so its rows stay in the caller.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # show_config's layout differs across numpy versions
        blas = ""
    if "openblas" in str(blas).lower():
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            try:
                threads = int(os.environ.get(name, ""))
            except ValueError:
                continue
            if threads > 0:
                return threads
    return _usable_cpus()


_BLAS_THREADS = _blas_threads()  # numpy is loaded by now; later changes are not seen


def _fork_workers(rows: int) -> int:
    """Processes that could share `rows` rows; below 2 they stay in the caller.

    Each worker's BLAS threads get CPUs of their own, and each worker
    has at least one row.
    """
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(_usable_cpus() // _BLAS_THREADS, rows)


def _explain_forked(explain_row, start: int, stop: int,
                    workers: int) -> list[LimaseResult | LimaseError]:
    """Rows [start, stop) in contiguous stripes: the first in the caller, the rest in forks.

    A forked worker inherits explain_row, and with it the model and the
    rows; only stripe bounds go to it, and only results come back.  A
    fork-context pool forks all its workers before its manager thread
    starts (CPython gh-90622), so each fork copies a one-thread process.
    """
    bounds = [start + k * (stop - start) // workers for k in range(workers + 1)]
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_rows, initargs=(explain_row,)) as pool:
        stripes = [pool.submit(_explain_stripe, first, last)
                   for first, last in zip(bounds[1:-1], bounds[2:])]
        out = [explain_row(i) for i in range(start, bounds[1])]
        for stripe in stripes:
            out += [_relink(outcome, causes) for outcome, causes in stripe.result()]
    return out


_forked_row = None  # explain_row of the batch a forked worker serves


def _adopt_rows(explain_row) -> None:
    global _forked_row
    _forked_row = explain_row


def _explain_stripe(start: int, stop: int) -> list[tuple]:
    """In a forked worker: each row's outcome with the __cause__ chain pickle drops."""
    return [(outcome, _portable_causes(outcome))
            for outcome in map(_forked_row, range(start, stop))]


def _portable_causes(outcome) -> list[BaseException]:
    """An error's __cause__ chain, cut before the first link that fails a pickle round trip.

    A cause comes from the black box and can be of any class; one that
    cannot be rebuilt from its pickle would break the whole pool.
    """
    chain = []
    cause = outcome.__cause__ if isinstance(outcome, BaseException) else None
    while cause is not None and cause not in chain:
        try:
            pickle.loads(pickle.dumps(cause))
        except Exception:  # whatever the cause's class raises on the way
            break
        chain.append(cause)
        cause = cause.__cause__
    return chain


def _relink(outcome, causes: list[BaseException]):
    link = outcome
    for cause in causes:
        link.__cause__ = cause
        link = cause
    return outcome


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
