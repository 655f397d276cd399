"""One stripe map: independent items run on every CPU, in the caller and in forked workers.

Four loops use it: the rows of a batch of any explainer on an
in-process model, the coalition chunks of kernel_shap, the training
rounds of a forest and the row blocks of a stacked forest walk
(trees.predict_stack).
Each item keeps its own seed and its own model calls, so the outputs are
those of the serial loop bit for bit; only where an item runs changes.

A call with fewer than two workers for its items (usable CPUs // BLAS
threads, at most one per item) is the plain loop: it neither times its
items nor keeps a time.  That is a call of one item, and any call off
Linux, inside a forked worker, while the caller's workers run, or while
the caller has more than one live thread (a fork could copy a lock
another thread holds).  So a loop inside another loop's item, such as
the walk of a batch row's scoring call, forks only while no other
workers run.

Any other call cuts its items once into contiguous stripes, one per
worker, the caller's first and, when they do not divide evenly, longer
than the others.  The stripes fork when an item time, taken for every
item still to run beyond the longest stripe's, says striping would save
at least _MIN_SAVING_S of wall time; a fork costs more than a few fast
items.  The item time is the one the loop measured last in this process:
each loop is known by its function's code object, which every call of
the loop's closure shares.  When it says striping pays, the call forks
before item 0, and the caller times item 0 for the loop's next call.
Otherwise (and on the loop's first call, or for an fn with no __code__
such as a functools.partial) item 0 runs first in the caller, which
times it, and the call forks right after it when that time says
striping pays.  A stale time costs at most one needless fork, after
which the loop times itself again.

The first stripe runs in the caller, the others in processes forked from
it, which return their results pickled through pipes; a stripe whose
fork fails runs in the caller, in its place.  Every outcome a worker
sends, result or exception, takes the same step first: an exception
that pickle cannot rebuild arrives as a LimaseError naming its class.

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
from types import CodeType
from typing import BinaryIO

import numpy as np

from .core import LimaseError

# Least wall time, in seconds, that striping must be estimated to save
# before items are forked.  The estimate (_saving_s) takes an item time for
# every item still to run beyond the longest stripe's.  Forking, the reply
# and reaping, and worker items slower than the caller's, make the real
# saving fall short of it.  tools/fork_floor.py measures where forking pays
# (its docstring holds the tables): on a 2-vCPU VM with one BLAS thread,
# limase batch rows of the benchmark's MLP broke even at 14-15 ms
# estimated and kernel_shap chunks below 12 ms.  This floor sits above
# every break-even.
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

_item_s: dict[CodeType, float] = {}  # each loop's last measured item time, in seconds


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

    With fewer than two workers for the items the call is that plain
    loop.  Otherwise the items are cut once into contiguous stripes, the
    caller's first and longest, and an item time decides whether the
    other stripes fork before item 0 or right after it: the time the
    loop kept from its last call, or else item 0's, run and timed in the
    caller, which counts the workers again after it, since it may have
    started a thread.  An exception that fn raises reaches the caller
    with its type, at the first failing item in order.
    """
    workers = _fork_workers(len(items))
    if workers < 2:
        return [fn(item) for item in items]
    bounds = _bounds(len(items), workers)
    loop = getattr(fn, "__code__", None)
    done = []
    if loop not in _item_s or _saving_s(_item_s[loop], bounds, 0) < _MIN_SAVING_S:
        first, item_s = _timed(fn, items[0], loop)
        done = [first]
        if _fork_workers(len(items)) < 2 or _saving_s(item_s, bounds, 1) < _MIN_SAVING_S:
            return done + [fn(item) for item in items[1:]]
    return _map_forked(fn, items, bounds, done, loop)


def _bounds(items: int, workers: int) -> list[int]:
    """Where each of workers' contiguous stripes of items starts, and the last ends.

    Ceil bounds: the caller's stripe, the first, is the longest.
    """
    return [-(-k * items // workers) for k in range(workers + 1)]


def _saving_s(item_s: float, bounds: list[int], done: int) -> float:
    """item_s for each item still to run beyond the longest stripe's: striping's estimated saving.

    The stripes are cut by bounds; the first done items have run.
    """
    left = [last - max(first, done) for first, last in zip(bounds, bounds[1:])]
    return item_s * (sum(left) - max(left))


def _timed(fn: Callable, item, loop: CodeType | None) -> tuple[object, float]:
    """fn(item) and its time in seconds, kept as loop's item time unless loop is None."""
    started = time.perf_counter()
    out = fn(item)
    item_s = time.perf_counter() - started
    if loop is not None:
        _item_s[loop] = item_s
    return out, item_s


def _map_forked(fn: Callable, items: Sequence, bounds: list[int], done: list,
                loop: CodeType | None) -> list:
    """items in the stripes bounds cuts: the first in the caller, each other one in a forked child.

    The caller forks every child from its one thread, then runs the rest
    of the first stripe after done, the results it already holds (with
    none, it times item 0 as loop's item time), and reads the others'
    replies in order.  A stripe whose fork failed runs in the caller
    when its turn comes.  While they run, _striping keeps any nested
    stripe map in its own process.  A child that exits without a reply
    fails the call; a child whose reply is not read, because the call
    failed first, is killed, and every child is reaped before the call
    returns.
    """
    global _striping
    stripes, read = [], 0
    _striping = True
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            stripes.append((items[first:last], _fork_stripe(fn, items[first:last])))
        out = done or [_timed(fn, items[0], loop)[0]]
        out += [fn(item) for item in items[len(out):bounds[1]]]
        for k, (stripe, child) in enumerate(stripes):
            if child is None:  # its fork failed
                out += [fn(item) for item in stripe]
                continue
            outcomes, raised = _read_reply(child[1])
            read = k + 1
            out += [_relink(*outcome) for outcome in outcomes]
            if raised is not None:
                raise _relink(*raised)
    finally:
        _striping = False
        for k, (_, child) in enumerate(stripes):
            if child is not None:
                pid, reply = child
                reply.close()
                if k >= read:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return out


def _fork_stripe(fn: Callable, stripe: Sequence) -> tuple[int, BinaryIO] | None:
    """Fork a child that runs fn over stripe; return its pid and the pipe of its reply.

    The child inherits fn and stripe, and with them the model and its
    inputs, so only its outcomes cross the pipe, as one pickle.  It
    leaves by os._exit, so none of the caller's cleanup runs in it.
    Without a pipe or a process to be had (EMFILE, EAGAIN, ENOMEM) there
    is no child, and None.
    """
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:  # the pipe goes with the process
        os.close(read_end)
        os.close(write_end)
        return None
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
    """In a forked worker: each item's outcome, made portable.

    The stripe stops at the first exception, which comes back portable
    beside the outcomes before it, so the caller raises it in order.
    """
    outcomes = []
    for item in stripe:
        try:
            outcomes.append(_portable(fn(item)))
        except Exception as e:
            return outcomes, _portable(e)
    return outcomes, None


def _round_trips(value) -> bool:
    try:
        pickle.loads(pickle.dumps(value))
    except Exception:  # whatever the value's class raises on the way
        return False
    return True


def _portable(outcome) -> tuple[object, list[BaseException]]:
    """outcome and the __cause__ chain pickle drops, as pickle can rebuild them in the caller.

    An exception that pickle cannot rebuild, returned or raised, becomes
    a LimaseError naming its class.  A cause comes from the black box
    and can be of any class, so the chain is cut before its first link
    that fails a pickle round trip.
    """
    if not isinstance(outcome, BaseException):
        return outcome, []
    chain, cause = [], outcome.__cause__
    while cause is not None and cause not in chain and _round_trips(cause):
        chain.append(cause)
        cause = cause.__cause__
    if not _round_trips(outcome):
        outcome = LimaseError(f"{type(outcome).__name__} in a forked worker: {outcome}")
    return outcome, chain


def _relink(outcome, causes: list[BaseException]):
    link = outcome
    for cause in causes:
        link.__cause__ = cause
        link = cause
    return outcome
