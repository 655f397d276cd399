"""One stripe map: independent items run on every CPU, in the caller and in forked workers.

Three loops use it: the rows of a batch of any explainer on an
in-process model, the coalition chunks of kernel_shap and the training
rounds of a forest.
Each item keeps its own seed and its own model calls, so the outputs are
those of the serial loop bit for bit; only where an item runs changes.

The first item runs in the caller, which times it.  The other items are
split into contiguous stripes, one per worker, when there are at least
two workers (usable CPUs // BLAS threads, at most one per item) and the
first item's time, taken for every item beyond the longest stripe, says
striping would save at least _MIN_SAVING_S of wall time; a fork costs
more than a few fast items.  The first stripe runs in the caller, the
others in processes forked from it,
which return their results pickled.  Nothing forks off Linux, inside a
forked worker, or when the caller has more than one live thread (a fork
could copy a lock another thread holds).

BLAS threads are read once, when this module loads, as OpenBLAS reads
them (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one per usable
CPU); with any other BLAS they count as one per usable CPU.  So pinning
OpenBLAS to one thread before numpy loads is what turns the workers on.
A forked item's side effects (counters and caches in predict, trace
spans) stay in its worker, and worker memory is not in the caller's
RUSAGE_SELF peak.
"""
from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import LimaseError

# Least wall time, in seconds, that striping must be estimated to save
# before items are forked.  The estimate takes the first item's time for
# every item beyond the longest stripe.  Pool start and shutdown (6-10 ms)
# and worker items a little slower than the caller's make the real saving
# fall short of it.  Measured on a 2-vCPU VM with one BLAS thread, serial
# against forked, forking paid from an estimate of about 15 ms for limase
# batch rows of a [64, 64] MLP (6 ms saved at 28 ms estimated) and about
# 24 ms for kernel_shap chunks of 16,300 rows on that MLP (6-14 ms saved at
# 34-36 ms, 6-12 ms lost at 12 ms); this floor sits above both.
_MIN_SAVING_S = 0.03


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads per BLAS call, read from the environment as OpenBLAS reads it.

    OpenBLAS reads its variables once, when numpy loads; another BLAS
    counts as one thread per usable CPU, so its items stay in the caller.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # show_config's layout differs across numpy versions
        blas = ""
    if "openblas" in str(blas).lower():
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            try:
                threads = int(os.environ.get(name, ""))
            except ValueError:
                continue
            if threads > 0:
                return threads
    return _usable_cpus()


_BLAS_THREADS = _blas_threads()  # numpy is loaded by now; later changes are not seen

_in_worker = False  # set in a forked worker, which never forks again


def _fork_workers(items: int) -> int:
    """Processes that could share `items` items; below 2 they stay in the caller.

    Each worker's BLAS threads get CPUs of their own, and each worker
    has at least one item.
    """
    if _in_worker or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(_usable_cpus() // _BLAS_THREADS, items)


def stripe_map(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], in stripes over forked workers when that saves time.

    The first item runs in the caller, which times it and takes that time
    for every other item; the workers are counted after it, since it may
    have started a thread.  An exception that fn raises reaches the
    caller with its type, at the first failing item in order; a worker's
    exception that pickle cannot rebuild arrives as a LimaseError naming
    its class.
    """
    if not len(items):
        return []
    started = time.perf_counter()
    first = fn(items[0])
    item_s, rest = time.perf_counter() - started, items[1:]
    workers = _fork_workers(len(rest))
    longest = -(-len(rest) // max(workers, 1))  # items in the longest stripe
    if workers >= 2 and item_s * (len(rest) - longest) >= _MIN_SAVING_S:
        return [first] + _map_forked(fn, rest, workers)
    return [first] + [fn(item) for item in rest]


def _map_forked(fn: Callable, items: Sequence, workers: int) -> list:
    """items in contiguous stripes: the first in the caller, the rest in forks.

    A forked worker inherits fn and items, and with them the model and
    its inputs; only stripe bounds go to it, and only results come back.
    A fork-context pool forks all its workers before its manager thread
    starts (CPython gh-90622), so each fork copies a one-thread process.
    """
    n = len(items)
    bounds = [k * n // workers for k in range(workers + 1)]
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, items)) as pool:
        stripes = [pool.submit(_run_stripe, first, last)
                   for first, last in zip(bounds[1:-1], bounds[2:])]
        out = [fn(item) for item in items[:bounds[1]]]
        for stripe in stripes:
            outcomes, raised = stripe.result()
            out += [_relink(outcome, causes) for outcome, causes in outcomes]
            if raised is not None:
                raise _relink(*raised)
    return out


_forked_fn = None  # fn and items of the stripe map a forked worker serves
_forked_items = ()


def _adopt(fn: Callable, items: Sequence) -> None:
    global _forked_fn, _forked_items, _in_worker
    _forked_fn, _forked_items, _in_worker = fn, items, True


def _run_stripe(first: int, last: int) -> tuple[list[tuple], tuple | None]:
    """In a forked worker: each item's outcome with the __cause__ chain pickle drops.

    The stripe stops at the first exception, which comes back beside
    the outcomes before it, so the caller raises it in order.
    """
    outcomes = []
    for item in _forked_items[first:last]:
        try:
            outcome = _forked_fn(item)
        except Exception as e:
            return outcomes, (_portable(e), _portable_causes(e))
        outcomes.append((outcome, _portable_causes(outcome)))
    return outcomes, None


def _round_trips(value) -> bool:
    try:
        pickle.loads(pickle.dumps(value))
    except Exception:  # whatever the value's class raises on the way
        return False
    return True


def _portable(error: Exception) -> Exception:
    """error, or a LimaseError naming its class when pickle cannot rebuild it."""
    if _round_trips(error):
        return error
    return LimaseError(f"{type(error).__name__} in a forked worker: {error}")


def _portable_causes(outcome) -> list[BaseException]:
    """An error's __cause__ chain, cut before the first link that fails a pickle round trip.

    A cause comes from the black box and can be of any class; one that
    cannot be rebuilt from its pickle would break the whole pool.
    """
    chain = []
    cause = outcome.__cause__ if isinstance(outcome, BaseException) else None
    while cause is not None and cause not in chain and _round_trips(cause):
        chain.append(cause)
        cause = cause.__cause__
    return chain


def _relink(outcome, causes: list[BaseException]):
    link = outcome
    for cause in causes:
        link.__cause__ = cause
        link = cause
    return outcome
