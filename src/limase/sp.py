"""Pick a small, representative set of instances to explain globally.

Given a matrix of per-instance Shapley vectors, each feature gets an
importance mass and each candidate set of instances a coverage score:
the mass of the features it touches.  Coverage is monotone submodular,
so the classic greedy loop is within (1 - 1/e) of the best budgeted
pick.

Both the importance sum and the coverage indicator apply |.| to the
Shapley values: attributions are signed, and a root of a negative sum
or an indicator that ignores negative contributions would discard
exactly the instances where the model pushes a prediction down.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BlackBoxModel, ConfigError, DataError, Dataset
from .pipeline import LimaseConfig, LimaseResult, explain_dataset_rows


@dataclass
class ExplanationMatrix:
    """Row i = Shapley vector of instance indices[i]."""

    S: np.ndarray
    indices: list[int]

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        if self.S.ndim != 2:
            raise DataError("explanation matrix must be 2-d")
        if not np.all(np.isfinite(self.S)):
            raise DataError("explanation matrix contains non-finite values")
        if len(self.indices) != self.S.shape[0]:
            raise DataError("index map length must match matrix rows")

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def d(self) -> int:
        return self.S.shape[1]


@dataclass
class SpResult:
    """Greedy pick order plus the quantities that drove it."""

    selected: list[int]
    importance: np.ndarray
    coverage_history: list[float]
    budget: int

    def to_json_dict(self) -> dict:
        return {
            "selected": [int(i) for i in self.selected],
            "importance": [float(v) for v in self.importance],
            "coverage_history": [float(v) for v in self.coverage_history],
            "budget": self.budget,
        }


def feature_importance(matrix: ExplanationMatrix) -> np.ndarray:
    """Per-feature mass: sqrt of the column sum of |S_ij|."""
    if matrix.n == 0:
        raise DataError("empty explanation matrix")
    return np.sqrt(np.abs(matrix.S).sum(axis=0))


def _touch_matrix(matrix: ExplanationMatrix) -> np.ndarray:
    """Boolean n x d: instance i touches feature j."""
    return np.abs(matrix.S) > 0


def coverage(picked: Sequence[int], matrix: ExplanationMatrix, importance: np.ndarray) -> float:
    """Importance mass of the features touched by any picked instance."""
    picked = list(picked)
    for i in picked:
        if not 0 <= i < matrix.n:
            raise IndexError(f"instance index {i} out of range for {matrix.n} rows")
    if not picked:
        return 0.0
    touched = _touch_matrix(matrix)[picked].any(axis=0)
    return float(importance[touched].sum())


def submodular_pick(matrix: ExplanationMatrix, G: int) -> SpResult:
    """Greedy argmax of marginal coverage gain, lowest index on ties.

    Always returns exactly min(G, n) picks: once every remaining gain is
    zero the selection is padded with the lowest unselected indices, so
    the budget contract stays deterministic.
    """
    if G < 1:
        raise ConfigError(f"budget must be >= 1, got {G}")
    if matrix.n == 0:
        raise DataError("empty explanation matrix")
    importance = feature_importance(matrix)
    touch = _touch_matrix(matrix)
    n = matrix.n
    covered = np.zeros(matrix.d, dtype=bool)
    remaining = list(range(n))
    selected: list[int] = []
    history: list[float] = []
    total = 0.0
    while remaining and len(selected) < min(G, n):
        gains = np.array([importance[touch[i] & ~covered].sum() for i in remaining])
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            break
        pick = remaining.pop(best)
        covered |= touch[pick]
        total += float(gains[best])
        selected.append(pick)
        history.append(total)
    while len(selected) < min(G, n):
        selected.append(remaining.pop(0))
        history.append(total)
    return SpResult(selected=selected, importance=importance,
                    coverage_history=history, budget=G)


def sp_explain(
    model: BlackBoxModel,
    dataset: Dataset,
    sample_indices: Sequence[int],
    config: LimaseConfig,
    G: int,
) -> tuple[SpResult, ExplanationMatrix, list[LimaseResult]]:
    """Explain the sampled instances, then pick G of them greedily.

    A row whose explanation failed raises a LimaseError that names its
    dataset row, with the row's error as its cause; the matrix and the
    full result list are returned alongside the pick for reuse by the
    summary plot.
    """
    indices = [int(i) for i in sample_indices]
    for i in indices:
        if not 0 <= i < dataset.n:
            raise IndexError(f"instance index {i} out of range for {dataset.n} rows")
    if not indices:
        raise DataError("sample_indices is empty")
    results = explain_dataset_rows(model, dataset, indices, config)
    matrix = ExplanationMatrix(
        S=np.vstack([r.explanation.phi for r in results]), indices=indices
    )
    return submodular_pick(matrix, G), matrix, results
