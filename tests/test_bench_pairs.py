"""tools/bench_pairs.py's verdicts and summary, on synthetic runs, and its argument checks."""
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


class TestArguments:
    """Mistakes in the arguments exit 2 before any checkout or run."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        monkeypatch.chdir(TOOL.parents[1])  # where BENCHMARK.json is

        def refuse(*args):
            raise AssertionError("ran before checking its arguments")

        monkeypatch.setattr(bench_pairs, "export", refuse)
        monkeypatch.setattr(bench_pairs, "run", refuse)

    @pytest.mark.parametrize("pairs, claim, message", [
        (["mlp-global=4"], "forest-cls:kernelshap_rows_per_s", "'forest-cls' has no --pairs"),
        (["forest-cls=4"], "forest-cls:models.predict_ms",
         "'models.predict_ms' is not an end-to-end metric"),
        (["forest-cls=4"], "forest-cls", "'' is not an end-to-end metric"),
        (["forest-cls=4", "mlp-globl=4"], "forest-cls:rows_per_s", "--pairs mlp-globl=4"),
        (["forest-cls"], "forest-cls:rows_per_s", "--pairs forest-cls:"),
        (["forest-cls=0"], "forest-cls:rows_per_s", "--pairs forest-cls=0"),
    ], ids=["claim-without-pairs", "per-layer-claim", "claim-without-metric",
            "unknown-workload", "no-count", "zero-count"])
    def test_rejected_at_once(self, tmp_path, capsys, pairs, claim, message):
        out = tmp_path / "BENCH.json"
        argv = ["--parent", "HEAD", "--first-seed", "1", "--claim", claim, "--out", str(out)]
        for spec in pairs:
            argv += ["--pairs", spec]
        with pytest.raises(SystemExit) as exited:
            bench_pairs.main(argv)
        assert exited.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
