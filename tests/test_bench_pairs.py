"""tools/bench_pairs.py's verdicts and summary, on synthetic runs."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
NOISY = [60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 80.0, 120.0]


def shifted(values, factor):
    return [v * factor for v in values]


class TestVerdict:
    def test_within(self):
        v = verdict(STEADY, shifted(STEADY, 0.9), "higher", 0.25)
        assert v["verdict"] == "within"
        assert v["change"] == pytest.approx(-0.1)
        assert v["parent_spread"] == pytest.approx(0.015)  # q1 99.25, q3 100.75
        assert verdict(STEADY, shifted(STEADY, 1.5), "higher", 0.25)["verdict"] == "within"

    def test_worse_by_direction(self):
        assert verdict(STEADY, shifted(STEADY, 0.7), "higher", 0.25)["verdict"] == "worse"
        assert verdict(STEADY, shifted(STEADY, 1.3), "lower", 0.25)["verdict"] == "worse"
        assert verdict(STEADY, shifted(STEADY, 0.7), "lower", 0.25)["verdict"] == "within"

    def test_unresolved_when_parent_spreads_beyond_bound(self):
        # the parent's quartile spread is about half its median
        v = verdict(NOISY, shifted(NOISY, 0.95), "higher", 0.25)
        assert v["verdict"] == "unresolved" and v["parent_spread"] > 0.25
        worse = verdict(NOISY, shifted(NOISY, 0.5), "higher", 0.25)
        assert worse["verdict"] == "unresolved"  # too noisy to call it worse
        # winning every pair is not enough: the change's 66 reads below the parent's 140
        assert verdict(NOISY, shifted(NOISY, 1.1), "higher", 0.25)["verdict"] == "unresolved"
        # every run of the change reads better than every run of the parent
        assert verdict(NOISY, [150.0 + v / 10 for v in NOISY], "higher", 0.25)["verdict"] \
            == "within"
        assert verdict(NOISY, [50.0 - v / 10 for v in NOISY], "lower", 0.25)["verdict"] \
            == "within"
        assert verdict(NOISY, shifted(NOISY, 0.9), "lower", 0.25)["verdict"] == "unresolved"

    def test_zero_parent_median_compares_absolute_values(self):
        assert verdict([0.0] * 4, [0.0] * 4, "higher", 0.05)["verdict"] == "within"
        assert verdict([0.0] * 4, [-0.1] * 4, "higher", 0.05)["verdict"] == "worse"


def test_summary_has_a_verdict_per_metric():
    def runs(side, values):
        return [{"side": side, "seed": 201 + i,
                 "result": {"metrics": {"rows_per_s": {"value": v},
                                        "setup_s": {"value": 1.0}}}}
                for i, v in enumerate(values)]

    better = {"rows_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
    bounds = {"rows_per_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.15}
    parent, change = runs("parent", STEADY), runs("change", shifted(STEADY, 0.5))
    out = bench_pairs.summarize([r for pair in zip(parent, change) for r in pair],
                                better, bounds)
    assert set(out["verdicts"]) == {"rows_per_s", "setup_s"}
    assert out["verdicts"]["rows_per_s"]["verdict"] == "worse"
    assert out["verdicts"]["setup_s"]["verdict"] == "within"
    assert out["change_better"]["rows_per_s"] == "0 of 10"
