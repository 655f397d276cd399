"""The committed BENCH_<n>.json files stay readable, so the perf trajectory can be diffed."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_command_parent_and_runs(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(report.get("command"), str) and report["command"]
    assert isinstance(report.get("parent"), str) and report["parent"]
    runs = report.get("runs")
    assert isinstance(runs, list) and runs
    assert all(isinstance(r, dict) and "result" in r for r in runs)
