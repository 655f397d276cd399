"""Interleaved parent/change benchmark pairs, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent 9e8a7f1 --change HEAD \\
        --pairs mlp-global=10 --pairs forest-cls=6 --first-seed 201 \\
        --claim mlp-global:kernelshap_rows_per_s --out BENCH_13.json

Each side is exported with `git archive` into its own temporary
directory, and every run is `python3 perfbench/run.py` from that checkout,
for the run_seconds that BENCHMARK.json sets.
Pair i of a workload runs both sides on seed first-seed + i, the parent
first when i is even. After the pairs come one traced pair on the claimed
workload and one `--seed 1 --seconds 3 --trace 1` smoke run of every
workload on each side.  summary holds each side's median and quartiles
per end-to-end metric, how many pairs the change won, by the directions
in BENCHMARK.json, and a verdict per metric against its bound there:
within, worse, or unresolved when the parent's runs spread too widely
to tell and the change's runs do not all read better than all of the
parent's.  Run it from the root of a checkout.  An unknown workload, a
claim on a workload without pairs or on a metric that is not end to end
exits 2 before anything runs.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace {trace}"
NOTE = ("Untraced result lines (the last stdout line of each run) for the parent commit and "
        "the change, each side run from its own git archive checkout. Pairs alternate which "
        "side runs first. phi_digest is from the info line of the same run. summary holds each "
        "side's median and quartiles per metric, how many pairs the change won and a verdict "
        "against the metric's bound (within, worse or unresolved). traced is "
        "one --trace 1 pair on the claimed workload; smoke is the --seed 1 --seconds 3 "
        "--trace 1 run of every workload on both sides.")


def export(rev: str, dest: Path) -> str:
    """Write the tree of rev into dest; return its short commit id."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True, exist_ok=False)
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run(side: str, root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = RUN.format(workload=workload, seed=seed, seconds=seconds, trace=trace)
    proc = subprocess.run(cmd.split(), cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(l)["info"] for l in lines if l.startswith('{"info"')), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(f"{side} {workload} seed {seed}: exit {proc.returncode}", file=sys.stderr, flush=True)
    return {"side": side, "workload": workload, "seed": seed, "exit": proc.returncode,
            "phi_digest": info.get("phi_digest"), "absent_layers": info.get("absent_layers"),
            "env": {k: info.get(k) for k in ("cpu_count", "numpy", "blas", "python")},
            "result": result}


def pair(roots: dict, workload: str, seed: int, parent_first: bool, seconds: float,
         trace: int) -> list[dict]:
    order = ["parent", "change"] if parent_first else ["change", "parent"]
    runs = [run(side, roots[side], workload, seed, seconds, trace) for side in order]
    for r in runs:
        r["runs_first"] = r["side"] == order[0]
    return sorted(runs, key=lambda r: r["side"] != "parent")


def metric(r: dict, name: str) -> float:
    return r["result"]["metrics"][name]["value"] if r["result"] else float("nan")


def same_digests(runs: list[dict]) -> bool:
    """Whether each parent run (even index) hashed its explanations as its change run."""
    return all(a["phi_digest"] == b["phi_digest"] for a, b in zip(runs[::2], runs[1::2]))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """How the change's median compares with the parent's, against a relative bound.

    change is the relative move of the median, positive when it is
    better; parent_spread is the parent's quartile spread over its
    median.  The verdict is "unresolved" when that spread exceeds the
    bound and not every run of the change reads better than every run of
    the parent, else "worse" when the median moved the wrong way by more
    than the bound, else "within".
    """
    sign = 1 if better == "higher" else -1
    p_median, c_median = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 \
        else parent * 3
    scale = abs(p_median) or 1.0  # a zero parent median compares absolute values
    moved = sign * (c_median - p_median) / scale
    spread = (q3 - q1) / scale
    beats_every_run = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not beats_every_run:
        label = "unresolved"
    elif -moved > bound:
        label = "worse"
    else:
        label = "within"
    return {"verdict": label, "change": round(moved, 4), "parent_spread": round(spread, 4),
            "bound": bound}


def summarize(runs: list[dict], better: dict, bounds: dict) -> dict:
    sides = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    names = [m for m in better if m in sides["parent"][0]["result"]["metrics"]]
    out = {"pairs": len(sides["parent"]),
           "seeds": f"{sides['parent'][0]['seed']}-{sides['parent'][-1]['seed']}"}
    for side, rs in sides.items():
        out[side] = {}
        for m in names:
            v = [metric(r, m) for r in rs]
            q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
            out[side][m] = {"median": round(statistics.median(v), 4),
                            "q1": round(q1, 4), "q3": round(q3, 4)}
    sign = {m: 1 if better[m] == "higher" else -1 for m in names}
    out["change_better"] = {
        m: f"{sum(sign[m] * (metric(c, m) - metric(p, m)) > 0 for p, c in zip(sides['parent'], sides['change']))} of {out['pairs']}"
        for m in names}
    out["verdicts"] = {
        m: verdict([metric(p, m) for p in sides["parent"]],
                   [metric(c, m) for c in sides["change"]], better[m], bounds[m])
        for m in names}
    return out


def main(argv: list[str]) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", default="HEAD")
    p.add_argument("--pairs", action="append", required=True, help="WORKLOAD=COUNT")
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--claim", required=True, help="WORKLOAD:METRIC")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    pairs = []
    for spec in args.pairs:
        workload, _, count = spec.partition("=")
        if workload not in workloads or not count.isdigit() or int(count) < 1:
            p.error(f"--pairs {spec}: expected WORKLOAD=COUNT, a workload of "
                    f"BENCHMARK.json ({', '.join(workloads)}) and a count of at least 1")
        pairs.append((workload, int(count)))
    claim_workload, _, claim_metric = args.claim.partition(":")
    if claim_workload not in dict(pairs):
        p.error(f"--claim {args.claim}: workload {claim_workload!r} has no --pairs")
    if claim_metric not in better:
        p.error(f"--claim {args.claim}: {claim_metric!r} is not an end-to-end metric "
                f"of BENCHMARK.json ({', '.join(better)})")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        roots = {"parent": Path(work, "parent"), "change": Path(work, "change")}
        shas = {side: export(getattr(args, side), root) for side, root in roots.items()}
        runs, summary = [], {}
        for workload, count in pairs:
            done = []
            for i in range(count):
                done += pair(roots, workload, args.first_seed + i, i % 2 == 0, seconds, 0)
            runs += done
            summary[workload] = summarize(done, better, bounds)
        traced_seed = args.first_seed + max(count for _, count in pairs)
        traced = pair(roots, claim_workload, traced_seed, True, seconds, 1)
        smoke = [run(side, roots[side], w["name"], 1, 3, 1)
                 for w in bench["workloads"] for side in ("parent", "change")]

    claimed = summary[claim_workload]
    parent_q = claimed["parent"][claim_metric]
    parent_median, change_median = parent_q["median"], claimed["change"][claim_metric]["median"]
    wins = int(claimed["change_better"][claim_metric].split()[0])
    sign = 1 if better[claim_metric] == "higher" else -1
    spread = parent_q["q3"] - parent_q["q1"]
    report = {
        "command": RUN.format(workload="<workload>", seed="<seed>", seconds=seconds, trace=0),
        "traced_command": RUN.format(workload=claim_workload, seed=traced_seed,
                                     seconds=seconds, trace=1),
        "made_by": "python3 tools/bench_pairs.py " + " ".join(argv),
        "note": NOTE,
        "env": smoke[0]["env"],
        "parent": shas["parent"],
        "change": shas["change"],
        "claim": {
            "metric": f"{claim_metric} on {claim_workload}",
            "parent_median": parent_median,
            "change_median": change_median,
            "ratio": round(change_median / parent_median, 3) if parent_median else None,
            "change_better": claimed["change_better"][claim_metric],
            "parent_quartile_spread": round(spread, 4),
            "met": 10 * wins >= 9 * claimed["pairs"]
            and sign * (change_median - parent_median) > spread,
        },
        "summary": summary,
        "not_within": sorted(f"{w}:{m} {v['verdict']}" for w, ws in summary.items()
                             for m, v in ws["verdicts"].items() if v["verdict"] != "within"),
        "all_correct": all(r["exit"] == 0 and r["result"] and r["result"]["correct"]
                           for r in runs + traced + smoke),
        "phi_digest_equal": same_digests(runs + traced) and same_digests(smoke),
        "runs": runs,
        "traced": {"runs": traced},
        "smoke": {"command": RUN.format(workload="<workload>", seed=1, seconds=3, trace=1),
                  "phi_digest_equal": same_digests(smoke),
                  "absent_layers": sorted({l for r in smoke for l in r["absent_layers"] or []}),
                  "runs": smoke},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
