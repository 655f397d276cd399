"""tools/bench_pairs.py's verdicts and summary, on synthetic runs, and its argument checks."""
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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


BETTER = {"rows_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
BOUNDS = {"rows_per_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.15}


def runs(side, values, first_seed=201):
    """Synthetic runs reading rows_per_s and setup_s; a None value is a failed run."""
    return [{"side": side, "seed": first_seed + i, "exit": 1 if v is None else 0,
             "result": None if v is None else
             {"correct": True, "metrics": {"rows_per_s": {"value": v},
                                           "setup_s": {"value": 1.0}}}}
            for i, v in enumerate(values)]


def interleave(parent, change):
    return [r for pair in zip(parent, change) for r in pair]


def test_summary_has_a_verdict_per_metric():
    better, bounds = BETTER, BOUNDS
    parent, change = runs("parent", STEADY), runs("change", shifted(STEADY, 0.5))
    out = bench_pairs.summarize([r for pair in zip(parent, change) for r in pair],
                                better, bounds)
    assert set(out["verdicts"]) == {"rows_per_s", "setup_s"}
    assert out["verdicts"]["rows_per_s"]["verdict"] == "worse"
    assert out["verdicts"]["setup_s"]["verdict"] == "within"
    assert out["change_better"]["rows_per_s"] == "0 of 10"


class TestFailedRuns:
    def test_verdict_of_a_failed_run(self):
        assert verdict(STEADY, STEADY[:-1] + [float("nan")], "higher", 0.25)["verdict"] \
            == "failed"
        assert verdict([float("nan")] + STEADY[1:], STEADY, "lower", 0.25)["verdict"] \
            == "failed"

    def test_first_parent_run_failed(self):
        out = bench_pairs.summarize(
            interleave(runs("parent", [None] + STEADY[1:]), runs("change", STEADY)),
            BETTER, BOUNDS)
        assert out["failed_runs"] == {"parent": 1, "change": 0}
        assert {m: v["verdict"] for m, v in out["verdicts"].items()} \
            == {"rows_per_s": "failed", "setup_s": "failed"}
        assert out["parent"]["rows_per_s"]["median"] == 100.0  # of the nine that read it
        assert out["change_better"]["rows_per_s"] == "0 of 10"

    def test_failed_change_run_is_never_within(self):
        out = bench_pairs.summarize(
            interleave(runs("parent", STEADY), runs("change", STEADY[:4] + [None] + STEADY[5:])),
            BETTER, BOUNDS)
        assert out["failed_runs"] == {"parent": 0, "change": 1}
        assert out["verdicts"]["rows_per_s"]["verdict"] == "failed"
        claim = bench_pairs.claim_report({"w": out}, "w", "rows_per_s", "higher")
        assert claim == {"metric": "rows_per_s on w", "verdict": "failed", "met": False}

    def test_every_run_failed(self):
        out = bench_pairs.summarize(
            interleave(runs("parent", [None] * 3), runs("change", [None] * 3)), BETTER, BOUNDS)
        assert out["failed_runs"] == {"parent": 3, "change": 3}
        assert out["verdicts"] == {} and out["parent"] == {} and out["change"] == {}
        claim = bench_pairs.claim_report({"w": out}, "w", "rows_per_s", "higher")
        assert claim["verdict"] == "failed" and not claim["met"]


class TestReport:
    """main's report, with each checkout and run replaced by a synthetic one."""

    @pytest.fixture
    def report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(TOOL.parents[1])  # where BENCHMARK.json is
        calls = []

        def fake_run(side, root, workload, seed, seconds, trace):
            calls.append((side, workload, seed, trace))
            failed = (side, seed) == ("parent", 11) and workload == "forest-cls"
            [r] = runs(side, [None if failed else 100.0 + seed % 3], seed)
            return {**r, "workload": workload, "phi_digest": "d", "absent_layers": [],
                    "env": {}}

        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: rev)
        monkeypatch.setattr(bench_pairs, "run", fake_run)

        def made(*argv):
            out = tmp_path / "BENCH.json"
            bench_pairs.main(["--parent", "p", "--change", "c", "--first-seed", "11",
                              "--out", str(out), *argv])
            return json.loads(out.read_text()), calls

        return made

    def test_no_claim(self, report):
        got, calls = report("--pairs", "forest-cls=4", "--pairs", "mlp-global=2")
        assert got["claim"] is None
        # the traced pair runs on the first --pairs workload, after the largest count
        assert [c for c in calls if c[3] == 1 and c[2] != 1] \
            == [("parent", "forest-cls", 15, 1), ("change", "forest-cls", 15, 1)]
        summary = got["summary"]
        assert summary["forest-cls"]["failed_runs"] == {"parent": 1, "change": 0}
        assert summary["mlp-global"]["failed_runs"] == {"parent": 0, "change": 0}
        assert got["not_within"] == ["forest-cls:rows_per_s failed", "forest-cls:setup_s failed"]
        assert got["all_correct"] is False

    def test_claim_on_a_failed_metric_is_not_met(self, report):
        got, _ = report("--pairs", "forest-cls=2", "--claim", "forest-cls:rows_per_s")
        assert got["claim"] == {"metric": "rows_per_s on forest-cls", "verdict": "failed",
                                "met": False}


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


STUB_RUN = """\
import os, sys, time
open(os.environ["STUB_STARTED"], "w").close()
time.sleep(60)
"""


def test_sigterm_removes_the_checkouts(tmp_path):
    """A run stopped with SIGTERM leaves no bench_pairs-* directory behind."""
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    (repo / "perfbench").mkdir(parents=True)
    tmp.mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "stub"}],
        "end_to_end": [{"name": "rows_per_s", "better": "higher", "bound": 0.25}]}))
    git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.com"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + cmd, cwd=repo, check=True, capture_output=True)
    started = tmp_path / "started"
    env = {**os.environ, "TMPDIR": str(tmp), "STUB_STARTED": str(started)}
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), "--parent", "HEAD", "--pairs", "stub=1",
         "--first-seed", "1", "--out", str(tmp_path / "BENCH.json")],
        cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert started.exists(), "the stub run never started"
        assert [p.name[:12] for p in tmp.iterdir()] == ["bench_pairs-"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert list(tmp.iterdir()) == []
    assert not (tmp_path / "BENCH.json").exists()
