"""Kernel-weighted regression estimate of Shapley values for any black box.

The coalition value is interventional: v(S) averages the model over
composite rows that take x on S and a background row everywhere else.
Attributions solve the Shapley-kernel-weighted least squares over
coalitions, with the efficiency identity base + sum(phi) = f(x)
substituted in analytically, so it holds by construction.

This serves as the timing and agreement baseline for the surrogate
pipeline: every coalition costs a full pass over the background set,
which is exactly the expense the surrogate approach avoids.
"""
from __future__ import annotations

import math
import numbers
import time

import numpy as np

from .core import BlackBoxModel, ConfigError, DataError, RandomStream, check_row
from .shapley import ShapExplanation
from .stripes import stripe_map

EXACT_MAX_FEATURES = 16

# Composite rows per model call; bounds the working set (4 MB of
# composites at d=30).  Each mask's background rows stay in one call, so a
# coalition's value is always one call's mean.
_CHUNK_ROWS = 1 << 14


def _coalition_values(
    model: BlackBoxModel,
    x: np.ndarray,
    background: np.ndarray,
    member: np.ndarray,
    class_index: int | None,
) -> np.ndarray:
    """v(S) for each mask row: mean model output over background composites.

    The chunks go through stripes.stripe_map, which scores and times
    chunk 0 in the caller and forks the rest when that time says
    striping saves time.
    """
    n_bg, d = background.shape
    per_mask = max(1, _CHUNK_ROWS // n_bg)

    def score(start: int) -> np.ndarray:
        chunk = member[start : start + per_mask]
        composites = np.where(chunk[:, None, :], x[None, None, :], background[None, :, :])
        out = model.predict_scalar(composites.reshape(-1, d), class_index)
        return out.reshape(chunk.shape[0], n_bg).mean(axis=1)

    return np.concatenate(stripe_map(score, range(0, member.shape[0], per_mask)))


def _kernel_weights(sizes: np.ndarray, d: int) -> np.ndarray:
    """Shapley kernel pi(s) = (d-1) / (C(d,s) * s * (d-s)) for 0 < s < d."""
    combs = np.array([math.comb(d, k) for k in range(d + 1)], dtype=float)[sizes]
    return (d - 1) / (combs * sizes * (d - sizes))


def _sample_masks(d: int, budget: int, rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Paired coalition sampling; returns unique coalitions and their multiplicities.

    Subset sizes follow p(s) proportional to 1/(s*(d-s)), the Shapley kernel
    times the number of subsets of that size, so duplicate counts serve as
    the regression weights.  ceil(budget/2) subsets are drawn at once: one
    uniform per size, and a row of d uniforms whose s smallest pick the
    members.  The complements of the first budget//2 of them follow, so an
    odd budget leaves the last draw unpaired.  The unique rows come back as
    a boolean (m, d) matrix in ascending order of their bitmask
    sum(2**j for j in S), with their counts as float weights.
    """
    sizes = np.arange(1, d)
    p = 1.0 / (sizes * (d - sizes))
    p /= p.sum()
    draws = -(-budget // 2)
    s = np.minimum(np.searchsorted(np.cumsum(p), rng.uniform(draws), side="right"), d - 2) + 1
    ranked = np.argsort(rng.uniform(draws * d).reshape(draws, d), axis=1)
    member = np.empty((budget, d), dtype=bool)
    # member[i, ranked[i, k]] = k < s[i], written through the flat view
    flat = ranked + np.arange(0, draws * d, d)[:, None]
    member.reshape(-1)[flat.ravel()] = (np.arange(d) < s[:, None]).ravel()
    np.logical_not(member[: budget // 2], out=member[draws:])
    # byte k holds features 8k..8k+7, feature 8k in bit 0, so sorting on
    # the last byte first sorts the rows by bitmask
    packed = np.packbits(member, axis=1, bitorder="little")
    order = np.lexsort(packed.T)
    packed = packed[order]
    first = np.flatnonzero(np.append(True, np.any(packed[1:] != packed[:-1], axis=1)))
    return member[order[first]], np.diff(first, append=budget).astype(float)


def _solve_constrained(
    member: np.ndarray, weights: np.ndarray, values: np.ndarray, base: float, fx: float
) -> np.ndarray:
    """Weighted least squares with sum(phi) = fx - base eliminated analytically.

    The last feature's coefficient is substituted out; the reduced system
    is solved by scaled lstsq, and phi_last recovered from the constraint.
    Needs d >= 2: kernel_shap answers d = 1 itself.
    """
    gap = fx - base
    y = values - base - member[:, -1] * gap
    X = member[:, :-1].astype(float) - member[:, -1:].astype(float)
    sw = np.sqrt(weights)
    phi_head, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    return np.append(phi_head, gap - phi_head.sum())


def check_budget(budget: int | str, d: int) -> int | str:
    """budget as kernel_shap takes it for d features; ConfigError if it cannot run."""
    if budget == "exact":
        if d > EXACT_MAX_FEATURES:
            raise ConfigError(
                f"exact enumeration supports at most {EXACT_MAX_FEATURES} features, got {d}"
            )
        return budget
    if isinstance(budget, numbers.Integral) and not isinstance(budget, bool):
        budget = int(budget)  # NumPy's integers too
        if budget < 2 * d + 2:
            raise ConfigError(f"budget {budget} too small; need at least {2 * d + 2}")
        return budget
    raise ConfigError(f"budget must be a positive integer or 'exact', got {budget!r}")


def kernel_shap(
    model: BlackBoxModel,
    x: np.ndarray,
    background: np.ndarray,
    budget: int | str,
    rng: RandomStream,
    class_index: int | None = None,
) -> ShapExplanation:
    """Estimate Shapley values of the interventional coalition game.

    budget="exact" enumerates all 2^d coalitions (d <= 16 only); an
    integer budget >= 2d+2 uses paired subset sampling.  base_value is
    the mean model output over the background set; classification
    explains the probability of class_index (default: the model's
    predicted class at x).  An x that is not a row of model.d values
    raises ValueError, and a non-finite x or background raises DataError.
    A budget that cannot run on d features raises ConfigError
    (check_budget) before the model is called.  Model scores that are not
    one finite value per row raise ModelOutputError, and any other failure
    of the model LimaseError.
    """
    started = time.perf_counter()
    x = check_row(x, model.d)
    background = np.atleast_2d(np.asarray(background, dtype=float))
    if background.shape[0] == 0:
        raise DataError("background set is empty")
    d = x.shape[0]
    if background.shape[1] != d:
        raise DataError(f"background has {background.shape[1]} columns, expected {d}")
    if not np.all(np.isfinite(background)):
        raise DataError("background must be finite")
    budget = check_budget(budget, d)
    scores, class_index = model.predict_scalar_and_class(x[None, :], class_index)
    fx = float(scores[0])
    base = float(np.mean(model.predict_scalar(background, class_index)))

    if d == 1:
        # Only coalitions are {} and {0}; efficiency pins the answer.
        phi = np.array([fx - base])
    else:
        if budget == "exact":
            masks = np.arange(1, (1 << d) - 1)
            member = (masks[:, None] >> np.arange(d)) & 1 == 1
            weights = _kernel_weights(member.sum(axis=1), d)
        else:
            member, weights = _sample_masks(d, budget, rng)
        values = _coalition_values(model, x, background, member, class_index)
        phi = _solve_constrained(member, weights, values, base, fx)

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return ShapExplanation(
        base_value=base,
        phi=phi,
        fx=fx,
        instance=x.copy(),
        explainer="kernelshap",
        elapsed_ms=elapsed_ms,
        class_index=class_index,
    )
