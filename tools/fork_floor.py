"""Where forking pays: serial against fork-first calls of mlp-global's batch rows and kernel chunks.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src:perfbench \
        python3 tools/fork_floor.py [reps]

On the benchmark's [64, 64] MLP at d=30, each setting (a batch of 2-16
limase rows, a kernel_shap call of 2-10 coalition chunks) alternates a
serial call (an infinite saving floor) with a call that forks every item
before item 0 (a zero floor, once the loop has kept its item time), reps
times each (default 25), in one process.  One JSON line per setting gives
the item time, the estimate that stripes.stripe_map compares with
_MIN_SAVING_S before item 0 (stripes._saving_s), both medians, the
saving and how many calls forking won.
"""
import json
import math
import statistics
import sys
import time

import numpy as np

import limase as lm
import limase.kernel
import limase.stripes as stripes
import workloads

REPS = int(sys.argv[1]) if len(sys.argv) > 1 else 25


def timed(call):
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def pairs(call, n_items):
    serial, forked = [], []
    stripes._MIN_SAVING_S = 0.0
    call()  # keeps the loop's item time, so the next calls fork first
    for k in range(REPS):
        for fork_first in ((False, True) if k % 2 == 0 else (True, False)):
            stripes._MIN_SAVING_S = 0.0 if fork_first else math.inf
            (forked if fork_first else serial).append(timed(call))
    s, f = statistics.median(serial), statistics.median(forked)
    workers = min(stripes._usable_cpus() // stripes._BLAS_THREADS, n_items)
    item = s / n_items
    estimate = stripes._saving_s(item, stripes._bounds(n_items, workers), 0)
    return {"items": n_items, "item_ms": round(1e3 * item, 2),
            "estimate_ms": round(1e3 * estimate, 1),
            "serial_ms": round(1e3 * s, 1), "forked_ms": round(1e3 * f, 1),
            "saved_ms": round(1e3 * (s - f), 1),
            "forked_wins": sum(b < a for a, b in zip(serial, forked)), "reps": REPS}


def main():
    assert stripes._BLAS_THREADS == 1, "pin OpenBLAS to one thread"
    data, model, _ = workloads.mlp_black_box()
    rng = np.random.default_rng([2401, 1])
    config = lm.LimaseConfig(seed=5)
    for n in (2, 3, 4, 5, 6, 8, 12, 16):
        X = workloads.pick(rng, data, n)
        row = pairs(lambda: lm.limase_explain_batch(model, X, data.features, config), n)
        print(json.dumps({"loop": "batch rows", **row}), flush=True)
    background = workloads.pick(rng, data, 100)
    x = workloads.pick(rng, data, 1)[0]
    inner, seen = limase.kernel.stripe_map, []

    def counting(fn, items):
        seen.append(len(items))
        return inner(fn, items)

    for budget in (326, 489, 652, 978, 1304, 2048):
        call = lambda: lm.kernel_shap(model, x, background, budget, lm.RandomStream(3))
        limase.kernel.stripe_map = counting
        call()
        limase.kernel.stripe_map = inner
        row = pairs(call, seen[-1])
        print(json.dumps({"loop": "kernel chunks", "budget": budget, **row}), flush=True)


if __name__ == "__main__":
    main()
