"""Deterministic plot data and SVG rendering for explanations.

Two plot kinds: a force plot for one explanation (signed contribution
arrows between the base value and the prediction) and a summary plot for
a batch (per-feature strip of Shapley values colored by feature value).
Rendering is plain SVG with fixed 6-decimal coordinate formatting and no
timestamps, so identical inputs produce byte-identical files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FeatureMeta, LimaseError
from .shapley import ShapExplanation
from .sp import ExplanationMatrix

MAX_SUMMARY_FEATURES = 15

FORCE_WIDTH = 900
FORCE_HEIGHT = 160
SUMMARY_WIDTH = 900
SUMMARY_ROW = 30
SUMMARY_MARGIN = 80

# Color endpoints for low / high feature values.
_LOW_RGB = (0, 139, 251)
_HIGH_RGB = (255, 0, 82)


@dataclass
class ForcePlotData:
    """One explanation arranged for drawing: contributions by |phi| desc."""

    base_value: float
    fx: float
    contributions: list[tuple[str, float, float]]

    @property
    def positive(self) -> list[tuple[str, float, float]]:
        return [c for c in self.contributions if c[2] > 0]

    @property
    def negative(self) -> list[tuple[str, float, float]]:
        return [c for c in self.contributions if c[2] < 0]

    def to_json_dict(self) -> dict:
        return {
            "base_value": self.base_value,
            "fx": self.fx,
            "contributions": [
                {"name": n, "value": v, "phi": p} for n, v, p in self.contributions
            ],
            "positive": [n for n, _, _ in self.positive],
            "negative": [n for n, _, _ in self.negative],
        }


@dataclass
class SummaryPlotData:
    """Per-feature Shapley strips, ordered by mean |phi| descending.

    colors holds the min-max normalized feature values in [0, 1]; a
    feature constant across the batch maps to 0.5.
    """

    names: list[str]
    phi_columns: list[np.ndarray]
    color_columns: list[np.ndarray]
    n_samples: int


def build_force_plot(e: ShapExplanation, features: list[FeatureMeta]) -> ForcePlotData:
    """Sort contributions for drawing and re-verify the efficiency identity."""
    if e.d != len(features):
        raise ValueError(f"explanation has {e.d} features, metadata describes {len(features)}")
    gap = abs(e.efficiency_gap())
    if gap > 1e-6 * max(1.0, abs(e.fx)):
        raise LimaseError(
            f"explanation violates base + sum(phi) = fx by {gap:.3e}; upstream explainer bug"
        )
    order = sorted(range(e.d), key=lambda j: (-abs(e.phi[j]), j))
    contributions = [
        (features[j].name, float(e.instance[j]), float(e.phi[j])) for j in order
    ]
    return ForcePlotData(base_value=float(e.base_value), fx=float(e.fx),
                         contributions=contributions)


def build_summary_plot(
    matrix: ExplanationMatrix,
    X: np.ndarray,
    features: list[FeatureMeta],
    *,
    max_features: int = MAX_SUMMARY_FEATURES,
) -> SummaryPlotData:
    """Arrange a batch of explanations as per-feature value-colored strips."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != matrix.n:
        raise ValueError(f"matrix has {matrix.n} rows, X has {X.shape[0]}")
    if X.shape[1] != matrix.d or len(features) != matrix.d:
        raise ValueError("matrix, X and feature metadata disagree on the feature count")
    mean_abs = np.abs(matrix.S).mean(axis=0)
    order = sorted(range(matrix.d), key=lambda j: (-mean_abs[j], j))[:max_features]
    names, phis, colors = [], [], []
    for j in order:
        col = X[:, j]
        lo, hi = col.min(), col.max()
        if hi > lo:
            normalized = (col - lo) / (hi - lo)
        else:
            normalized = np.full(col.shape, 0.5)
        names.append(features[j].name)
        phis.append(matrix.S[:, j].copy())
        colors.append(normalized)
    return SummaryPlotData(names=names, phi_columns=phis, color_columns=colors,
                           n_samples=matrix.n)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _color(v: float) -> str:
    t = min(max(float(v), 0.0), 1.0)
    channels = (round(l + t * (h - l)) for l, h in zip(_LOW_RGB, _HIGH_RGB))
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _jitter(i: int) -> float:
    """Deterministic pseudo-random offset in (-0.5, 0.5) from the row index."""
    return ((i * 0.6180339887498949) % 1.0) - 0.5


def _svg_header(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _text(x: float, y: float, s: str, *, size: int = 11, anchor: str = "start",
          fill: str = "#333333") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{_escape(s)}</text>'
    )


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _force_svg(plot: ForcePlotData) -> str:
    left, right = 60.0, FORCE_WIDTH - 60.0
    axis_y, bar_y, bar_h = 110.0, 62.0, 20.0
    # Walk contributions from base to fx; the drawing domain covers every
    # intermediate position.
    positions = [plot.base_value]
    for _, _, phi in plot.contributions:
        positions.append(positions[-1] + phi)
    lo, hi = min(positions), max(positions)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(v: float) -> float:
        return left + (v - lo) / (hi - lo) * (right - left)

    parts = _svg_header(FORCE_WIDTH, FORCE_HEIGHT)
    parts.append(f'<line x1="{_fmt(left)}" y1="{_fmt(axis_y)}" x2="{_fmt(right)}" '
                 f'y2="{_fmt(axis_y)}" stroke="#999999" stroke-width="1"/>')
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        x = sx(v)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(axis_y + 5)}" stroke="#999999" stroke-width="1"/>')
        parts.append(_text(x, axis_y + 18, _fmt(v), size=10, anchor="middle"))
    base_x = sx(plot.base_value)
    parts.append(f'<line x1="{_fmt(base_x)}" y1="30" x2="{_fmt(base_x)}" '
                 f'y2="{_fmt(axis_y)}" stroke="#666666" stroke-width="1" '
                 f'stroke-dasharray="4,3"/>')
    parts.append(_text(base_x, 24, f"base={_fmt(plot.base_value)}", anchor="middle"))
    cursor = plot.base_value
    for position, (name, value, phi) in enumerate(plot.contributions):
        if phi == 0:
            continue
        x0, x1 = sx(cursor), sx(cursor + phi)
        cursor += phi
        color = "#d62728" if phi > 0 else "#1f77b4"
        xa, xb = min(x0, x1), max(x0, x1)
        head = min(8.0, xb - xa)
        if phi > 0:
            body = (f'M {_fmt(xa)} {_fmt(bar_y)} H {_fmt(xb - head)} '
                    f'L {_fmt(xb)} {_fmt(bar_y + bar_h / 2)} '
                    f'L {_fmt(xb - head)} {_fmt(bar_y + bar_h)} H {_fmt(xa)} Z')
        else:
            body = (f'M {_fmt(xb)} {_fmt(bar_y)} H {_fmt(xa + head)} '
                    f'L {_fmt(xa)} {_fmt(bar_y + bar_h / 2)} '
                    f'L {_fmt(xa + head)} {_fmt(bar_y + bar_h)} H {_fmt(xb)} Z')
        parts.append(f'<path d="{body}" fill="{color}" fill-opacity="0.85"/>')
        if position < 6:
            mid = (x0 + x1) / 2
            parts.append(_text(mid, bar_y - 6, f"{name}={_fmt(value)}", size=9,
                               anchor="middle"))
    fx_x = sx(plot.fx)
    parts.append(f'<line x1="{_fmt(fx_x)}" y1="40" x2="{_fmt(fx_x)}" '
                 f'y2="{_fmt(axis_y)}" stroke="#000000" stroke-width="1.5"/>')
    parts.append(_text(fx_x, 38, f"f(x)={_fmt(plot.fx)}", anchor="middle"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _summary_svg(plot: SummaryPlotData) -> str:
    d = len(plot.names)
    height = SUMMARY_ROW * d + SUMMARY_MARGIN
    label_right, plot_left, plot_right = 180.0, 200.0, SUMMARY_WIDTH - 40.0
    top = 40.0
    all_phi = np.concatenate(plot.phi_columns) if d else np.zeros(1)
    lo = min(float(all_phi.min()), 0.0)
    hi = max(float(all_phi.max()), 0.0)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(v: float) -> float:
        return plot_left + (v - lo) / (hi - lo) * (plot_right - plot_left)

    parts = _svg_header(SUMMARY_WIDTH, height)
    zero_x = sx(0.0)
    parts.append(f'<line x1="{_fmt(zero_x)}" y1="{_fmt(top)}" x2="{_fmt(zero_x)}" '
                 f'y2="{_fmt(top + SUMMARY_ROW * d)}" stroke="#999999" '
                 f'stroke-width="1" stroke-dasharray="4,3"/>')
    for r, name in enumerate(plot.names):
        cy = top + SUMMARY_ROW * r + SUMMARY_ROW / 2
        parts.append(_text(label_right, cy + 4, name, anchor="end"))
        parts.append(f'<line x1="{_fmt(plot_left)}" y1="{_fmt(cy)}" '
                     f'x2="{_fmt(plot_right)}" y2="{_fmt(cy)}" stroke="#eeeeee" '
                     f'stroke-width="1"/>')
        for i, (phi, color) in enumerate(zip(plot.phi_columns[r], plot.color_columns[r])):
            parts.append(
                f'<circle cx="{_fmt(sx(float(phi)))}" '
                f'cy="{_fmt(cy + _jitter(i) * (SUMMARY_ROW - 10))}" r="3" '
                f'fill="{_color(color)}" fill-opacity="0.8"/>'
            )
    axis_y = top + SUMMARY_ROW * d + 14
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        parts.append(_text(sx(v), axis_y, _fmt(v), size=10, anchor="middle"))
    parts.append(_text(plot_right, height - 8, f"n={plot.n_samples}", size=10,
                       anchor="end", fill="#888888"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(plot: ForcePlotData | SummaryPlotData, path: str | Path) -> Path:
    """Write the plot as a standalone SVG; same input, same bytes."""
    if isinstance(plot, ForcePlotData):
        text = _force_svg(plot)
    elif isinstance(plot, SummaryPlotData):
        text = _summary_svg(plot)
    else:
        raise TypeError(f"cannot render {type(plot).__name__}")
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path
