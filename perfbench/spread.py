"""Run the workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--json FILE]

Runs perfbench/run.py untraced once per seed and per workload of
BENCHMARK.json, one run at a time, with the BENCHMARK.json run length.
For every end-to-end metric it prints the median over seeds and the
quartile spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound and a
third of it, and flags a spread above either. It stops at the first run
that fails the correctness gate, and exits 1 if a spread other than that
of setup_s exceeds its bound: setup_s is the one metric whose spread
over seeds carries no bound, only its median across two sets does.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1]), wall


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def measure(workload: str, seeds: list[int], bench: dict) -> tuple[dict, bool]:
    """Run the seeds, print one line per run and a spread table; return a summary."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    digests, walls = {}, []
    for seed in seeds:
        info, result, wall = run_once(workload, seed, bench["run_seconds"])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
        digests[seed] = info["phi_digest"]
        walls.append(wall)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        brief = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"{workload} seed {seed}: {wall:.1f} s wall, "
              f"digest {info['phi_digest'][:16]}: {brief}", flush=True)
    ok = True
    print(f"{workload:32s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
    for name, vals in values.items():
        s = spread(vals) if len(vals) > 1 else 0.0
        bound = bounds[name]
        flag = "" if s <= bound / 3 else "  > bound/3" if s <= bound else "  > BOUND"
        if name != "setup_s":
            ok = ok and s <= bound
        print(f"{name:32s} {statistics.median(vals):12.4f} {s:8.4f} "
              f"{bound:6.2f} {bound / 3:8.3f}{flag}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    summary = {
        "phi_digest": digests,
        "median": {n: {"value": statistics.median(v), "unit": units[n]}
                   for n, v in values.items()},
        "spread": {n: spread(v) for n, v in values.items() if len(v) > 1},
    }
    return summary, ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--json", default=None, help="also write the medians and spreads here")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results, ok = {}, True
    for name in [w["name"] for w in bench["workloads"]]:
        results[name], passed = measure(name, seed_list(args.seeds), bench)
        ok = ok and passed
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
