"""Where forking pays: serial against fork-first calls of the benchmark's stripe-map loops.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src:perfbench \
        python3 tools/fork_floor.py [reps] [rows] [chunks] [walk]

Each setting alternates a serial call (an infinite saving floor) with a
call that forks every item before item 0 (a zero floor, once the loop has
kept its item time), reps times each (default 25), in one process.  The
named settings run, all three when none is named:

* rows: a batch of 2-16 limase rows on the benchmark's [64, 64] MLP at
  d=30 (mlp-global);
* chunks: a kernel_shap call of 2-10 coalition chunks on the same MLP;
* walk: a ForestModel.raw_scores walk of 4k-25k rows on forest-cls's
  150-tree forest (50 rounds of 3 classes, depth 6, d=10), 109 rows a
  block.

One JSON line per setting gives the item time (the serial median over
the items), the estimate that stripes.stripe_map compares with
_MIN_SAVING_S before item 0 (stripes._saving_s), both medians, the
saving and how many calls forking won.  A walk line also gives the
medians of the block time the loop keeps after each kind of call
(stripes._item_s): a serial call keeps block 0 timed alone, a fork-first
call keeps block 0 timed in the caller while its workers run.

Measured on a 2-vCPU VM with one BLAS thread (medians of 25 alternating
calls).  Batch rows and kernel chunks:

  | loop          | item         | lost                                    | break-even          | saved                                                              |
  |---------------|--------------|-----------------------------------------|---------------------|--------------------------------------------------------------------|
  | batch rows    | about 7 ms   | 10-12 ms at 7 ms estimated (2-3 rows)   | 14-15 ms (4-5 rows) | 6-7 ms at 21-23 ms (6), 17 ms at 27-28 ms (8), 25-30 ms at 42 ms (12) |
  | kernel chunks | about 7 ms   | 1-6 ms at 6-7 ms (2-3 chunks)           | below 12 ms         | 2-6 ms at 12-17 ms (4), 14 ms at 33 ms (10)                         |

So forking pays from an estimate of about 15 ms for rows and 12 ms for
chunks; the 30 ms floor, set when forks went through a process pool
that cost about 7 ms more per call, sits above both.  An mlp-global
kernel row's 10 chunks estimate 5 chunk times when they fork first, and
forked in 48 of 48 later calls of a 12 s run.  Walk blocks of the
150-tree forest, forked directly after block 0 (an earlier probe, not
this tool), saved 2 ms at 24 ms estimated (4k rows), 13 ms at 27 ms
(6k), 23 ms at 49 ms (8k), 44 ms at 80 ms (12.5k) and 76 ms at 151 ms
(25k).

Walk blocks forked before block 0, with this tool:

  | rows   | blocks | block (serial) | estimate  | saved           | forking won | kept, serial | kept, fork-first |
  |--------|--------|----------------|-----------|-----------------|-------------|--------------|------------------|
  | 4,000  | 37     | 0.54-0.57 ms   | 10 ms     | lost 4-7 ms     | 0-7 of 25   | 0.59-0.69 ms | 1.65-1.98 ms     |
  | 6,000  | 56     | 0.59-0.74 ms   | 16-21 ms  | 3-8 ms          | 19-23       | 0.70-0.90 ms | 1.71-2.06 ms     |
  | 8,000  | 74     | 0.73-1.03 ms   | 27-38 ms  | 16-31 ms        | 23-25       | 0.86-1.10 ms | 2.07-2.36 ms     |
  | 12,500 | 115    | 0.63-0.81 ms   | 36-46 ms  | 11-38 ms        | 24          | 0.78-0.95 ms | 2.01-2.04 ms     |
  | 25,000 | 230    | 0.56-0.59 ms   | 64-68 ms  | 33-39 ms        | 24-25       | 0.74-0.93 ms | 1.71-1.72 ms     |

(two runs; "forking won" counts calls of 25).  The block time a
fork-first walk keeps, block 0 timed in the caller while its worker
runs, reads 1.7-2.4 ms: 2-3x block 0 timed alone after a serial walk
and about 3x the serial median.  With 1.7 ms kept, a 4k-row
walk (18 blocks beyond the longest stripe) estimates about 31 ms, over
the 30 ms floor, so after a fork-first walk it forks and loses 4-7 ms;
on its serial time it would estimate 10 ms and stay in the caller.
Walks of 6k rows and more save time either way.  The benchmark's walks
are 12,500-row kernel chunks, which save, and 1001-row limase walks (10
blocks), which stay in the caller at either kept time.
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
import limase.trees
import workloads

SETTINGS = ("rows", "chunks", "walk")
REPS = next((int(a) for a in sys.argv[1:] if a.isdigit()), 25)
CHOSEN = [a for a in sys.argv[1:] if not a.isdigit()] or list(SETTINGS)


def timed(call):
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def kept_s(loop):
    """The item time the stripe map keeps for the loop whose function is named loop."""
    return next(t for code, t in stripes._item_s.items() if code.co_name == loop)


def pairs(call, n_items, loop=None):
    serial, forked, kept = [], [], {False: [], True: []}
    stripes._MIN_SAVING_S = 0.0
    call()  # keeps the loop's item time, so the next calls fork first
    for k in range(REPS):
        for fork_first in ((False, True) if k % 2 == 0 else (True, False)):
            stripes._MIN_SAVING_S = 0.0 if fork_first else math.inf
            (forked if fork_first else serial).append(timed(call))
            if loop is not None:
                kept[fork_first].append(kept_s(loop))
    s, f = statistics.median(serial), statistics.median(forked)
    workers = min(stripes._usable_cpus() // stripes._BLAS_THREADS, n_items)
    item = s / n_items
    estimate = stripes._saving_s(item, stripes._bounds(n_items, workers), 0)
    row = {"items": n_items, "item_ms": round(1e3 * item, 2),
           "estimate_ms": round(1e3 * estimate, 1),
           "serial_ms": round(1e3 * s, 1), "forked_ms": round(1e3 * f, 1),
           "saved_ms": round(1e3 * (s - f), 1),
           "forked_wins": sum(b < a for a, b in zip(serial, forked)), "reps": REPS}
    if loop is not None:
        row.update({"kept_serial_ms": round(1e3 * statistics.median(kept[False]), 2),
                    "kept_forked_ms": round(1e3 * statistics.median(kept[True]), 2)})
    return row


def batch_rows(data, model, rng):
    config = lm.LimaseConfig(seed=5)
    for n in (2, 3, 4, 5, 6, 8, 12, 16):
        X = workloads.pick(rng, data, n)
        row = pairs(lambda: lm.limase_explain_batch(model, X, data.features, config), n)
        print(json.dumps({"loop": "batch rows", **row}), flush=True)


def items_of(module, call):
    """How many items call sends through module's stripe map, on its last call."""
    inner, seen = module.stripe_map, []

    def counting(fn, items):
        seen.append(len(items))
        return inner(fn, items)

    module.stripe_map = counting
    try:
        call()
    finally:
        module.stripe_map = inner
    return seen[-1]


def kernel_chunks(data, model, rng):
    background = workloads.pick(rng, data, 100)
    x = workloads.pick(rng, data, 1)[0]
    for budget in (326, 489, 652, 978, 1304, 2048):
        call = lambda: lm.kernel_shap(model, x, background, budget, lm.RandomStream(3))
        row = pairs(call, items_of(limase.kernel, call))
        print(json.dumps({"loop": "kernel chunks", "budget": budget, **row}), flush=True)


def walk_blocks(rng):
    box = np.random.default_rng([workloads.BLACK_BOX_SEED, 2])  # forest-cls's black box
    data = workloads.classification_dataset(box, 1000, 10, 3)
    forest = lm.fit_random_forest(data, 50, lm.TreeParams(max_depth=6),
                                  lm.RandomStream(workloads.seeds(box, 1)[0]))
    for n in (4000, 6000, 8000, 12500, 25000):
        X = data.rows[rng.integers(0, data.n, size=n)]
        call = lambda: forest.raw_scores(X)
        row = pairs(call, items_of(limase.trees, call), loop="walk")
        print(json.dumps({"loop": "walk blocks", "rows": n, **row}), flush=True)


def main():
    assert stripes._BLAS_THREADS == 1, "pin OpenBLAS to one thread"
    unknown = sorted(set(CHOSEN) - set(SETTINGS))
    if unknown:
        sys.exit(f"unknown settings {unknown}; choose from {', '.join(SETTINGS)}")
    rng = np.random.default_rng([2401, 1])
    if "rows" in CHOSEN or "chunks" in CHOSEN:
        data, model, _ = workloads.mlp_black_box()
        if "rows" in CHOSEN:
            batch_rows(data, model, rng)
        if "chunks" in CHOSEN:
            kernel_chunks(data, model, rng)
    if "walk" in CHOSEN:
        walk_blocks(np.random.default_rng([2601, 2]))


if __name__ == "__main__":
    main()
