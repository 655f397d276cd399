"""Plot data construction rules and deterministic SVG rendering."""
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from limase.core import FeatureMeta, LimaseError, RandomStream, compute_feature_meta
from limase.shapley import ShapExplanation
from limase.sp import ExplanationMatrix
from limase.viz import (
    FORCE_HEIGHT,
    FORCE_WIDTH,
    MAX_SUMMARY_FEATURES,
    SUMMARY_MARGIN,
    SUMMARY_ROW,
    build_force_plot,
    build_summary_plot,
    render_svg,
)


def explanation(phi, base=1.0, explainer="treeshap", instance=None):
    phi = np.asarray(phi, dtype=float)
    if instance is None:
        instance = np.zeros_like(phi)
    return ShapExplanation(
        base_value=base,
        phi=phi,
        fx=float(base + phi.sum()),
        instance=np.asarray(instance, dtype=float),
        explainer=explainer,
    )


def meta(d):
    return [FeatureMeta(f"f{j}", j, 0.0, 1.0, -1.0, 1.0) for j in range(d)]


class TestForcePlot:
    def test_all_zero_phi(self):
        plot = build_force_plot(explanation([0.0, 0.0]), meta(2))
        assert [phi for _, _, phi in plot.contributions] == [0.0, 0.0]
        assert plot.fx == plot.base_value

    def test_sorting_and_partition(self):
        plot = build_force_plot(explanation([3.0, -1.0, 0.0]), meta(3))
        assert [c[0] for c in plot.contributions] == ["f0", "f1", "f2"]
        assert [c[2] for c in plot.contributions] == [3.0, -1.0, 0.0]

    def test_sorted_by_abs_phi(self):
        plot = build_force_plot(explanation([0.5, -2.0, 1.0]), meta(3))
        assert [c[0] for c in plot.contributions] == ["f1", "f2", "f0"]

    def test_equal_magnitudes_tie_break_by_index(self):
        plot = build_force_plot(explanation([-1.0, 1.0]), meta(2))
        assert [c[0] for c in plot.contributions] == ["f0", "f1"]

    def test_phi_preserved_exactly(self):
        values = [0.1234567890123, -2.7e-13, 3.0]
        plot = build_force_plot(explanation(values), meta(3))
        by_name = {name: phi for name, _, phi in plot.contributions}
        for j, v in enumerate(values):
            assert by_name[f"f{j}"] == v

    def test_efficiency_violation_rejected(self):
        bad = explanation([1.0, 1.0])
        bad.fx += 0.5  # break the identity
        with pytest.raises(LimaseError, match="upstream explainer bug"):
            build_force_plot(bad, meta(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_force_plot(explanation([1.0, -1.0]), meta(3))


class TestSummaryPlot:
    def build(self, S, X):
        matrix = ExplanationMatrix(S=np.asarray(S, float), indices=list(range(len(S))))
        names = [f"f{j}" for j in range(matrix.d)]
        return build_summary_plot(matrix, np.asarray(X, float),
                                  compute_feature_meta(np.asarray(X, float), names))

    def test_single_instance_order_is_abs_phi_order(self):
        plot = self.build([[0.5, -2.0, 1.0]], [[1.0, 2.0, 3.0]])
        assert plot.names == ["f1", "f2", "f0"]
        assert plot.n_samples == 1

    def test_constant_feature_colors_half(self):
        X = [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]
        plot = self.build([[1.0, 1.0]] * 3, X)
        col = plot.color_columns[plot.names.index("f1")]
        assert np.all(col == 0.5)

    def test_min_max_normalization(self):
        X = [[0.0, 1.0], [10.0, 1.0], [5.0, 1.0]]
        plot = self.build([[1.0, 0.0]] * 3, X)
        col = plot.color_columns[plot.names.index("f0")]
        assert np.allclose(col, [0.0, 1.0, 0.5])
        assert np.all((col >= 0) & (col <= 1))

    def test_zero_column_ranked_last(self):
        plot = self.build([[1.0, 0.0], [2.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]])
        assert plot.names[-1] == "f1"

    def test_truncates_to_max_features(self):
        d = 20
        rng = RandomStream(0)
        S = rng.normal_matrix(5, d)
        X = rng.normal_matrix(5, d)
        matrix = ExplanationMatrix(S=S, indices=list(range(5)))
        names = [f"f{j}" for j in range(d)]
        features = compute_feature_meta(X, names)
        plot = build_summary_plot(matrix, X, features)
        mean_abs = np.abs(S).mean(axis=0)
        assert len(plot.names) == MAX_SUMMARY_FEATURES == 15
        assert plot.names == [f"f{j}" for j in np.argsort(-mean_abs, kind="stable")[:15]]

    def test_misaligned_inputs(self):
        matrix = ExplanationMatrix(S=np.zeros((2, 2)), indices=[0, 1])
        features = meta(2)
        with pytest.raises(ValueError):
            build_summary_plot(matrix, np.zeros((3, 2)), features)
        with pytest.raises(ValueError):
            build_summary_plot(matrix, np.zeros((2, 3)), features)


class TestRender:
    def test_force_svg_deterministic(self, tmp_path):
        plot = build_force_plot(explanation([2.0, -0.5, 0.1]), meta(3))
        a = render_svg(plot, tmp_path / "a.svg").read_bytes()
        b = render_svg(plot, tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_summary_svg_deterministic(self, tmp_path):
        rng = RandomStream(1)
        S, X = rng.normal_matrix(10, 4), rng.normal_matrix(10, 4)
        matrix = ExplanationMatrix(S=S, indices=list(range(10)))
        features = compute_feature_meta(X, [f"f{j}" for j in range(4)])
        plot = build_summary_plot(matrix, X, features)
        a = render_svg(plot, tmp_path / "a.svg").read_bytes()
        b = render_svg(plot, tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_force_canvas_and_validity(self, tmp_path):
        plot = build_force_plot(explanation([1.0, -1.0, 0.5]), meta(3))
        path = render_svg(plot, tmp_path / "force.svg")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert root.get("width") == str(FORCE_WIDTH)
        assert root.get("height") == str(FORCE_HEIGHT)

    def test_empty_force_plot_still_valid(self, tmp_path):
        plot = build_force_plot(explanation([0.0, 0.0]), meta(2))
        path = render_svg(plot, tmp_path / "empty.svg")
        root = ET.parse(path).getroot()
        assert root.get("height") == str(FORCE_HEIGHT)
        text = path.read_text()
        assert "base" in text  # base marker always drawn

    def test_twenty_feature_summary_dimensions(self, tmp_path):
        d = 20
        rng = RandomStream(2)
        S, X = rng.normal_matrix(6, d), rng.normal_matrix(6, d)
        matrix = ExplanationMatrix(S=S, indices=list(range(6)))
        features = compute_feature_meta(X, [f"f{j}" for j in range(d)])
        plot = build_summary_plot(matrix, X, features)
        path = render_svg(plot, tmp_path / "summary.svg")
        root = ET.parse(path).getroot()
        # one row per drawn feature: the 15 of largest mean |phi|
        assert root.get("height") == str(SUMMARY_ROW * MAX_SUMMARY_FEATURES + SUMMARY_MARGIN)
        labels = [el for el in root.iter() if el.tag.endswith("text")
                  and (el.text or "").startswith("f")]
        assert len(labels) == MAX_SUMMARY_FEATURES

    def test_six_decimal_formatting(self, tmp_path):
        plot = build_force_plot(explanation([1.0 / 3.0, -1.0]), meta(2))
        content = render_svg(plot, tmp_path / "fmt.svg").read_text()
        assert "0.333333" in content

    def test_unknown_plot_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            render_svg(object(), tmp_path / "x.svg")
