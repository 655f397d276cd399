"""Shared data model: datasets, feature statistics, model interface, RNG.

Everything downstream (surrogate training, explainers, plots) works on the
types defined here.  Datasets and fitted models are immutable after
construction; RandomStream is the only stateful object and is never shared
between workers (see :func:`child_seed`).
"""
from __future__ import annotations

import csv
import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSIFICATION = "classification"
REGRESSION = "regression"


class LimaseError(Exception):
    """Base class for errors raised by this package."""


class DataError(LimaseError):
    """Invalid dataset or data file (bad CSV cell, missing column, ...)."""


class ConfigError(LimaseError):
    """Invalid configuration or usage (rejected before any work starts)."""


class ModelOutputError(LimaseError):
    """A black box returned outputs the explainer cannot use (NaN, wrong shape)."""


@dataclass(frozen=True)
class Task:
    """Prediction task kind; classification carries its class count."""

    kind: str
    n_classes: int | None = None

    def __post_init__(self):
        if self.kind not in (CLASSIFICATION, REGRESSION):
            raise ConfigError(f"unknown task kind: {self.kind!r}")
        if self.kind == CLASSIFICATION:
            if self.n_classes is None or self.n_classes < 2:
                raise ConfigError("classification requires n_classes >= 2")
        elif self.n_classes is not None:
            raise ConfigError("regression takes no n_classes")

    @property
    def is_classification(self) -> bool:
        return self.kind == CLASSIFICATION

    def check_class_index(self, class_index: int | None) -> None:
        """ConfigError unless class_index is None or a class of this task."""
        if class_index is None:
            return
        if not self.is_classification:
            raise ConfigError(f"class_index {class_index} given for a regression model")
        if not 0 <= class_index < self.n_classes:
            raise ConfigError(f"class_index {class_index} out of range for {self.n_classes} classes")

    @property
    def n_outputs(self) -> int:
        return self.n_classes if self.kind == CLASSIFICATION else 1

    @staticmethod
    def classification(n_classes: int) -> "Task":
        return Task(CLASSIFICATION, n_classes)

    @staticmethod
    def regression() -> "Task":
        return Task(REGRESSION)


@dataclass(frozen=True)
class FeatureMeta:
    """Per-feature statistics.  std is the population (divide-by-n) value."""

    name: str
    index: int
    mean: float
    std: float
    min: float
    max: float


def compute_feature_meta(rows: np.ndarray, names: list[str]) -> list[FeatureMeta]:
    """Population statistics per column of a non-empty row matrix."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DataError("rows must be a 2-d matrix")
    if rows.shape[1] != len(names):
        raise DataError(f"{len(names)} names for {rows.shape[1]} columns")
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)  # ddof=0: population std
    mins = rows.min(axis=0)
    maxs = rows.max(axis=0)
    return [
        FeatureMeta(name, j, float(means[j]), float(stds[j]), float(mins[j]), float(maxs[j]))
        for j, name in enumerate(names)
    ]


@dataclass(frozen=True)
class Dataset:
    """Rectangular numeric feature matrix with target and per-feature stats."""

    features: list[FeatureMeta]
    rows: np.ndarray  # (n, d) float64
    target: np.ndarray  # (n,) float64
    task: Task

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    def validate(self) -> None:
        """Check the type invariants; raises DataError on violation."""
        if self.rows.ndim != 2 or self.target.ndim != 1:
            raise DataError("rows must be 2-d and target 1-d")
        if self.rows.shape[0] != self.target.shape[0]:
            raise DataError("rows/target length mismatch")
        if not np.all(np.isfinite(self.rows)) or not np.all(np.isfinite(self.target)):
            raise DataError("non-finite values in dataset")
        if len(self.features) != self.d:
            raise DataError("feature metadata count != column count")
        for j, f in enumerate(self.features):
            if f.index != j:
                raise DataError("feature indices must be 0..d-1 in order")
        recomputed = compute_feature_meta(self.rows, self.feature_names)
        for have, want in zip(self.features, recomputed):
            for field in ("mean", "std", "min", "max"):
                if abs(getattr(have, field) - getattr(want, field)) > 1e-9:
                    raise DataError(f"stale statistics for feature {have.name!r} ({field})")
        if self.task.is_classification:
            k = self.task.n_classes
            if not np.all(self.target == np.round(self.target)):
                raise DataError("classification targets must be integral")
            if self.target.size and (self.target.min() < 0 or self.target.max() >= k):
                raise DataError(f"class labels must lie in [0, {k})")


@dataclass(frozen=True)
class ModelOutput:
    """Batched model predictions: (n, k) with k=1 for regression."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.atleast_2d(np.asarray(self.values, dtype=float)))

    def check_probabilities(self, atol: float = 1e-6) -> None:
        """ModelOutputError unless every row is a probability vector."""
        v = self.values
        if not np.all((v >= -atol) & (v <= 1 + atol)):
            raise ModelOutputError("probabilities must be finite and in [0, 1]")
        if not np.allclose(v.sum(axis=1), 1.0, atol=atol):
            raise ModelOutputError("probability rows must sum to 1")


class BlackBoxModel(ABC):
    """A pure prediction function over row batches.

    Purity (identical batch in, identical output out) is required: the
    explainers compare repeated queries and derive oracles from it.
    Every model is a context manager whose exit calls close().
    """

    task: Task
    d: int

    @abstractmethod
    def predict(self, X: np.ndarray) -> ModelOutput:
        """Predict a batch; X has shape (n, d)."""

    def predict_scalar(self, X: np.ndarray, class_index: int | None = None) -> np.ndarray:
        """Scalar view of the output: regression value or one class probability.

        A class_index the task cannot score raises ConfigError before the
        model is called.  Raises ModelOutputError unless the model returns
        one finite score per row of X and, for a classification task, a
        probability vector per row.
        """
        if self.task.is_classification and class_index is None:
            raise ValueError("class_index required for classification models")
        return self.predict_scalar_and_class(X, class_index)[0]

    def predict_scalar_and_class(
        self, X: np.ndarray, class_index: int | None = None
    ) -> tuple[np.ndarray, int | None]:
        """predict_scalar's scores and the class they score, from one call.

        A classification model with no class_index scores the class it
        predicts for X[0].  Raises as predict_scalar does.
        """
        self.task.check_class_index(class_index)
        out = self.predict(X)
        values = out.values
        if self.task.is_classification and class_index is None:
            class_index = int(np.argmax(values[0]))
        scores = values[:, 0 if class_index is None else class_index]
        n = len(X)
        if scores.shape != (n,) or not np.all(np.isfinite(scores)):
            raise ModelOutputError(
                f"black-box scores must be {n} finite values, one per row; got shape "
                f"{scores.shape} with {np.count_nonzero(~np.isfinite(scores))} non-finite")
        if self.task.is_classification:
            out.check_probabilities()
        return scores, class_index

    def close(self) -> None:
        """Release what the model holds outside this process; nothing by default."""

    def __enter__(self) -> "BlackBoxModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def check_row(x: np.ndarray, d: int) -> np.ndarray:
    """x as a float row: ValueError unless its shape is (d,), DataError if not finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"expected a row of length {d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("row to explain contains non-finite values")
    return x


def child_seed(seed: int, index: int) -> int:
    """Derive a worker seed from a parent seed: stable across platforms.

    Uses SHA-256 of "seed:index" so parallel fan-out never reuses a stream.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream:
    """Deterministic random source: PCG64 with an explicit 64-bit seed.

    The draw sequence is a pure function of the seed; drawing n values in
    one call or several yields the same sequence.  Never share a stream
    between workers; use :meth:`child` to split.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "RandomStream":
        return RandomStream(child_seed(self.seed, index))

    def normal(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._gen.standard_normal(n)

    def normal_matrix(self, n: int, d: int) -> np.ndarray:
        return self._gen.standard_normal((n, d))

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def uniform(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def shuffle(self, x: np.ndarray) -> None:
        self._gen.shuffle(x)


def _parse_cell(raw: str, row: int, col: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"non-numeric cell at row {row}, column {col!r}: {raw!r}") from None
    if not np.isfinite(value):
        raise DataError(f"non-finite cell at row {row}, column {col!r}: {raw!r}")
    return value


def _parse_record(record: list[str], row: int, header: list[str], t_idx: int) -> list[float]:
    """One record's cells as floats, raising on the first bad one, target first.

    The slow path of load_csv: it is called only on a record the fast parse
    rejected, and returns the record when that was only an overflowing sum.
    """
    if len(record) != len(header):
        raise DataError(f"row {row} has {len(record)} cells, expected {len(header)}")
    _parse_cell(record[t_idx], row, header[t_idx])
    return [_parse_cell(c, row, name) for c, name in zip(record, header)]


def load_csv(path: str | Path, target_column: str, task: Task | str) -> Dataset:
    """Load a UTF-8 comma-separated file with a header row into a Dataset.

    All cells must parse as finite numbers; row order is preserved.
    `task` may be a Task or the strings "classification" / "regression";
    for the former string the class count is inferred from the labels.
    A file that cannot be opened or is not UTF-8 raises DataError naming it.

    The file is read once, a whole record at a time.  A record that fails
    (wrong length, a cell float() rejects, a non-finite sum) is parsed
    again cell by cell with its target cell first, so the error names the
    first bad cell in row order.
    """
    infer_classes = False
    if isinstance(task, str):
        if task == REGRESSION:
            task = Task.regression()
        elif task == CLASSIFICATION:
            infer_classes = True
        else:
            raise ConfigError(f"unknown task kind: {task!r}")
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read data file {path}: {e.strerror or e}") from e
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"empty file: {path}") from None
            if target_column not in header:
                raise DataError(f"missing target column {target_column!r} in {path}")
            t_idx = header.index(target_column)
            names = [h for i, h in enumerate(header) if i != t_idx]
            width = len(header)
            rows: list[list[float]] = []
            for r, record in enumerate(reader, start=1):
                try:
                    vals = list(map(float, record))
                except ValueError:
                    vals = None
                # a non-finite cell makes the sum non-finite; so may an overflow
                if vals is None or len(vals) != width or not math.isfinite(sum(vals)):
                    vals = _parse_record(record, r, header, t_idx)
                rows.append(vals)
    except UnicodeDecodeError as e:
        raise DataError(f"data file {path} is not UTF-8 text: {e}") from e
    table = np.array(rows, dtype=float).reshape(len(rows), width)
    if table.shape[0] == 0:
        raise DataError(f"no data rows in {path}")
    X = np.delete(table, t_idx, axis=1)
    y = table[:, t_idx].copy()
    if infer_classes or (isinstance(task, Task) and task.is_classification):
        if not np.all(y == np.round(y)):
            raise DataError("classification target has non-integral labels")
        if infer_classes:
            task = Task.classification(int(y.max()) + 1)
    ds = Dataset(compute_feature_meta(X, names), X, y, task)
    ds.validate()
    return ds


def write_csv(dataset: Dataset, path: str | Path, target_column: str = "target") -> None:
    """Write a Dataset back to CSV with shortest round-trip float formatting."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + [target_column])
        for x, y in zip(dataset.rows, dataset.target):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])


def dataset_summary(dataset: Dataset) -> dict:
    """JSON-ready summary of shape, task and per-feature statistics."""
    return {
        "n_rows": dataset.n,
        "n_features": dataset.d,
        "task": dataset.task.kind,
        "n_classes": dataset.task.n_classes,
        "features": [
            {"name": f.name, "index": f.index, "mean": f.mean, "std": f.std,
             "min": f.min, "max": f.max}
            for f in dataset.features
        ],
    }
