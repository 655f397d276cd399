"""Run one workload: set it up, time its parts, check outputs, print the result.

See run.py for the command line and the output format.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"
SETUP_REPEATS = 5
MIN_ROUNDS = 2


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Outcomes of one run: counts, and digest and fidelity of the first round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.fidelity: list[float] = []
        self.limase_rows = 0
        self.degenerate = 0

    def add(self, outcomes, first_round: bool) -> None:
        for o in outcomes:
            self.attempted += 1
            self.failed += not o.ok
            if not first_round:
                continue
            self.digest.update(o.digest)
            if o.degenerate is not None:
                self.limase_rows += 1
                self.degenerate += o.degenerate
                if o.fidelity is not None:
                    self.fidelity.append(o.fidelity)


class Timing:
    """Wall times of each work item of one part, over all its repeats.

    On small shared cloud machines each core switches, every second or
    so, between a slow and a fast speed about 1.5 times apart, and the
    share of fast time changes over minutes. A median or a quartile of
    an item's repeats jumps by that whole factor when the share crosses
    its level; the mean moves in proportion to it. So each item counts
    with the mean of its repeats, which are spread over the whole run.
    """

    def __init__(self, rows: list[int]):
        self.rows = rows
        self.times: list[list[float]] = [[] for _ in rows]

    def mean_ms(self) -> list[float]:
        return [1000.0 * statistics.fmean(t) for t in self.times]

    @property
    def rows_per_s(self) -> float:
        return 1000.0 * sum(self.rows) / sum(self.mean_ms()) if self.rows else 0.0

    @property
    def calls(self) -> int:
        return sum(len(t) for t in self.times)


def run_rounds(parts, seconds: float, tally: Tally, *, between_rounds=lambda: None) -> dict:
    """Run each part's items in turn, round after round, for `seconds`.

    At least MIN_ROUNDS rounds run. A repeated item must reproduce its
    first-round digest bit for bit. Only the first round feeds the digest
    and the fidelity figures, so both are the same whatever the run length.
    """
    items_of: dict[str, list] = {}
    timings: dict[str, Timing] = {}
    first: dict[str, list[list[bytes]]] = {}
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        for part in parts:
            if rounds == 0:
                # Taken when the part first runs: a part may work on what
                # an earlier part of the first round produced.
                items_of[part.name] = list(part.items())
                timings[part.name] = Timing([part.rows(i) for i in items_of[part.name]])
                first[part.name] = []
            items = items_of[part.name]
            for k, item in enumerate(items):
                outcomes = run_item(part, item, timings[part.name].times[k])
                if rounds == 0:
                    first[part.name].append([o.digest for o in outcomes])
                else:
                    for o, want in zip(outcomes, first[part.name][k]):
                        o.ok = o.ok and o.digest == want
                tally.add(outcomes, rounds == 0)
        rounds += 1
        between_rounds()
    return timings


def warm_up(parts) -> None:
    """Run the first item of each part once, untimed and unchecked."""
    for part in parts:
        items = part.items()
        if items:
            part.run(items[0])


def run_item(part, item, times: list[float]) -> list:
    """Time one item, appending to times, and return its checked outcomes."""
    t0 = time.perf_counter()
    try:
        result = part.run(item)
    except Exception as e:  # a failed row is counted, never fatal
        times.append(time.perf_counter() - t0)
        print(f"{part.name}: {type(e).__name__}: {e}", file=sys.stderr)
        return [workloads.Outcome(False) for _ in range(part.rows(item))]
    times.append(time.perf_counter() - t0)
    return part.check(item, result)


class Builds:
    """Timed builds of one workload; the set-up time is their median.

    The first build is the one the run uses. The others, SETUP_REPEATS in
    all, run between rounds at even intervals of the run and are released
    at once, so the samples spread over the run like every other timing.
    """

    def __init__(self, name: str, seed: int, workdir: Path, seconds: float):
        self.make = functools.partial(workloads.WORKLOADS[name], seed, workdir)
        self.spacing = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.started = time.perf_counter()

    def build(self):
        t0 = time.perf_counter()
        wl = self.make()
        self.times.append(time.perf_counter() - t0)
        return wl

    def another(self, *, now: bool = False) -> None:
        due = self.started + len(self.times) * self.spacing
        if len(self.times) < SETUP_REPEATS and (now or time.perf_counter() >= due):
            self.build().close()


def end_to_end(timings: dict, tally: Tally, setup_s: float) -> dict:
    main = timings.get("batch") or timings["sp"]
    deciles = statistics.quantiles(timings["single"].mean_ms(), n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    return {
        "setup_s": (setup_s, "s"),
        "rows_per_s": (main.rows_per_s, "rows/s"),
        "explain_ms_p50": (p50, "ms"),
        "explain_ms_p90": (p90, "ms"),
        "treeshap_rows_per_s": (timings["treeshap"].rows_per_s, "rows/s"),
        "kernelshap_rows_per_s": (timings["kernel"].rows_per_s, "rows/s"),
        "fidelity_median": (statistics.median(tally.fidelity or [0.0]), "r2"),
        "fidelity_min": (min(tally.fidelity, default=0.0), "r2"),
        "nondegenerate_share": (1.0 - tally.degenerate / max(tally.limase_rows, 1), "fraction"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(wl, args, tally: Tally) -> tuple[dict, dict]:
    """Every part traced, each round preceded by the main part untraced.

    Comparing the main part's rows_per_s with and without tracing, over
    the same stretch of time, gives the tracing overhead.
    """
    main_part = wl.parts[0]
    tracer = tracing.Tracer()

    def run_untraced(item):
        with tracer.paused():
            return main_part.run(item)

    def check_untraced(item, result):
        # The traced copy of the main part already feeds the digest.
        return [replace(o, digest=b"") for o in main_part.check(item, result)]

    untraced_part = workloads.Part("untraced", main_part.items, main_part.rows,
                                   run_untraced, check_untraced)
    tracer.install()
    try:
        timings = run_rounds([untraced_part] + wl.parts, args.seconds, tally)
    finally:
        tracer.uninstall()
    untraced = timings["untraced"]
    summary = tracing.Summary(tracer.spans)
    metrics = tracing.layer_metrics(summary)
    traced_rps = timings[main_part.name].rows_per_s
    metrics["trace.untraced_rows_per_s"] = (untraced.rows_per_s, "rows/s")
    metrics["trace.traced_rows_per_s"] = (traced_rps, "rows/s")
    metrics["trace.overhead"] = (untraced.rows_per_s / traced_rps - 1.0, "fraction")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}.jsonl"
    tracer.write(path)
    for kind in (tracing.LIMASE, tracing.KERNEL, tracing.FOREST):
        for layer, ms, share in summary.breakdown(kind)[:6]:
            print(f"self time in {kind} rows: {layer:32s} {ms:9.3f} ms/row {share:6.1%}",
                  file=sys.stderr)
    extra = {"trace_file": str(path.relative_to(ROOT)), "spans": len(tracer.spans),
             "absent_layers": tracer.absent}
    return metrics, extra


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        return "unknown"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    builds = Builds(args.workload, args.seed, workdir, args.seconds)
    try:
        wl = builds.build()
        try:
            # Before the tracer is installed, so no span covers a cold call.
            warm_up(wl.parts)
            if args.trace:
                metrics, extra = traced_run(wl, args, tally)
            else:
                timings = run_rounds(wl.parts, args.seconds, tally,
                                     between_rounds=builds.another)
                while len(builds.times) < SETUP_REPEATS:
                    builds.another(now=True)
                metrics = end_to_end(timings, tally, statistics.median(builds.times))
                extra = {"items": {k: len(t.rows) for k, t in timings.items()},
                         "calls": {k: t.calls for k, t in timings.items()}}
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0 and bool(wl.info["inputs_ok"])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "phi_digest": tally.digest.hexdigest(), "cpu_count": os.cpu_count(),
        "numpy": np.__version__, "blas": blas_name(), "python": platform.python_version(),
        **wl.info, **extra,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
