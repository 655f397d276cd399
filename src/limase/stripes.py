"""One stripe map: independent items run on every CPU, in the caller and in forked workers.

Four loops use it: the rows of a batch of any explainer on an
in-process model, the coalition chunks of kernel_shap, the training
rounds of a forest and the row blocks of a stacked forest walk
(trees.predict_stack).
Each item keeps its own seed and its own model calls, so the outputs are
those of the serial loop bit for bit; only where an item runs changes.

The first item runs in the caller, which times it.  The other items are
split into contiguous stripes, one per worker, when there are at least
two workers (usable CPUs // BLAS threads, at most one per item) and the
first item's time, taken for every item beyond the longest stripe, says
striping would save at least _MIN_SAVING_S of wall time; a fork costs
more than a few fast items.  The first stripe runs in the caller, the
others in processes forked from it, which return their results pickled
through pipes.  Nothing forks off Linux, inside a forked worker, while
the caller's workers run, or when the caller has more than one live
thread (a fork could copy a lock another thread holds).  So a loop
inside another loop's item, such as the walk of a batch row's scoring
call, forks only in the caller's first item, before any worker runs.

BLAS threads are read once, when this module loads, as OpenBLAS reads
them (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one per usable
CPU); with any other BLAS they count as one per usable CPU.  So pinning
OpenBLAS to one thread before numpy loads is what turns the workers on.
A forked item's side effects (counters and caches in predict, trace
spans) stay in its worker, and worker memory is not in the caller's
RUSAGE_SELF peak.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
from collections.abc import Callable, Sequence
from typing import BinaryIO

import numpy as np

from .core import LimaseError

# Least wall time, in seconds, that striping must be estimated to save
# before items are forked.  The estimate takes the first item's time for
# every item beyond the longest stripe.  Forking, the reply and reaping
# (about 10 ms with one worker, a 32 MB caller and 57 small results) and
# worker items a little slower than the caller's make the real saving fall
# short of it.  Measured on a 2-vCPU VM with one BLAS thread, serial against
# forked through a process pool that cost about 7 ms more per call, forking
# paid from an estimate of about 15 ms for limase batch rows of a [64, 64]
# MLP (6 ms saved at 28 ms estimated) and about 24 ms for kernel_shap chunks
# of 16,300 rows on that MLP (6-14 ms saved at 34-36 ms, 6-12 ms lost at
# 12 ms); this floor sits above both.  Walk blocks of a 150-tree forest
# (109 rows each), forked as here, saved 2 ms at 24 ms estimated (4k rows),
# 13 ms at 27 ms (6k), 23 ms at 49 ms (8k), 44 ms at 80 ms (12.5k) and
# 76 ms at 151 ms (25k).
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

_striping = False  # set in a forked worker, and in the caller while its workers run


def _fork_workers(items: int) -> int:
    """Processes that could share `items` items; below 2 they stay in the caller.

    Each worker's BLAS threads get CPUs of their own, and each worker
    has at least one item.
    """
    if _striping or sys.platform != "linux" or threading.active_count() > 1:
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
    """items in contiguous stripes: the first in the caller, each other one in a forked child.

    The caller forks every child from its one thread, then runs the first
    stripe and reads the others' replies in order.  While they run,
    _striping keeps any nested stripe map in its own process.  A child
    that exits without a reply fails the call; a child whose reply is not
    read, because the call failed first, is killed, and every child is
    reaped before the call returns.
    """
    global _striping
    n = len(items)
    bounds = [k * n // workers for k in range(workers + 1)]
    children, read = [], 0
    _striping = True
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_stripe(fn, items[first:last]))
        out = [fn(item) for item in items[:bounds[1]]]
        for _, reply in children:
            outcomes, raised = _read_reply(reply)
            read += 1
            out += [_relink(outcome, causes) for outcome, causes in outcomes]
            if raised is not None:
                raise _relink(*raised)
    finally:
        _striping = False
        for k, (pid, reply) in enumerate(children):
            reply.close()
            if k >= read:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out


def _fork_stripe(fn: Callable, stripe: Sequence) -> tuple[int, BinaryIO]:
    """Fork a child that runs fn over stripe; return its pid and the pipe of its reply.

    The child inherits fn and stripe, and with them the model and its
    inputs, so only its outcomes cross the pipe, as one pickle.  It
    leaves by os._exit, so none of the caller's cleanup runs in it.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: the pipe goes with it
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            reply = pickle.dumps(_run_stripe(fn, stripe))
            with open(write_end, "wb") as pipe:
                pipe.write(reply)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _read_reply(reply: BinaryIO) -> tuple[list[tuple], tuple | None]:
    try:
        return pickle.loads(reply.read())
    except (EOFError, pickle.UnpicklingError) as e:  # the child died before its reply was out
        raise LimaseError("a forked worker exited without its results") from e


def _run_stripe(fn: Callable, stripe: Sequence) -> tuple[list[tuple], tuple | None]:
    """In a forked worker: each item's outcome with the __cause__ chain pickle drops.

    The stripe stops at the first exception, which comes back beside
    the outcomes before it, so the caller raises it in order.
    """
    outcomes = []
    for item in stripe:
        try:
            outcome = fn(item)
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
    cannot be rebuilt from its pickle would lose the whole reply.
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
