"""The stripe map's edge rules, and its kernel chunks, kernel rows, forest rounds and walk blocks in forked workers."""
import errno
import functools
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import limase.kernel
import limase.models
import limase.stripes
from limase.core import (
    BlackBoxModel,
    LimaseError,
    ModelOutput,
    ModelOutputError,
    RandomStream,
    Task,
)
from limase.external import attach_external
from limase.kernel import kernel_shap
from limase.models import fit_random_forest
from limase.pipeline import LimaseConfig, explain_rows, limase_explain_batch
from limase.stripes import stripe_map
from limase.trees import _BLOCK_PAIRS, TreeParams, predict_batch

from conftest import (
    make_classification_dataset,
    make_regression_dataset,
    no_child_processes,
    random_mlp,
)
from test_models import block_sizes, reference_scores, reference_walk, tiny_dataset

CONSTANT_SERVER = [sys.executable,
                   str(Path(__file__).parent / "fixtures" / "server_constant.py")]


class TwoPartError(Exception):
    """An exception that its own pickle cannot rebuild: __init__ wants two arguments."""

    def __init__(self, code, text):
        super().__init__(f"{code}: {text}")


class LinearModel(BlackBoxModel):
    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)
        self.task = Task.regression()
        self.d = self.w.shape[0]

    def predict(self, X):
        return ModelOutput((np.atleast_2d(X) @ self.w)[:, None])


class NanOffAnchorModel(LinearModel):
    """Scores NaN for a row whose last feature is above 100 while its first is not 0."""

    def predict(self, X):
        X = np.atleast_2d(X)
        out = super().predict(X).values.copy()
        out[(X[:, -1] > 100.0) & (X[:, 0] != 0.0)] = np.nan
        return ModelOutput(out)


class SleepingModel(LinearModel):
    """Sleeps MIN_SAVING_S in each call, so a few calls are worth striping."""

    def predict(self, X):
        time.sleep(MIN_SAVING_S)
        return super().predict(X)


MIN_SAVING_S = limase.stripes._MIN_SAVING_S


def pid_of(item):
    return os.getpid()


@pytest.fixture
def forked(monkeypatch):
    """One BLAS thread and no saving floor, so any call of two or more items forks.

    Returns, for each call of _map_forked, the number of items still to
    run when it forks: all of them, or all but item 0.
    """
    if sys.platform != "linux":
        pytest.skip("items are forked only on Linux")
    if limase.stripes._usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    monkeypatch.setattr(limase.stripes, "_BLAS_THREADS", 1)
    monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", 0.0)
    inner, calls = limase.stripes._map_forked, []

    def spy(fn, items, bounds, done, loop):
        calls.append(len(items) - len(done))
        return inner(fn, items, bounds, done, loop)

    monkeypatch.setattr(limase.stripes, "_map_forked", spy)
    yield calls
    assert no_child_processes()


def serial(monkeypatch, fn, *args, **kwargs):
    """fn's result with every item in the caller; it leaves no loop's item time behind."""
    with monkeypatch.context() as m:
        m.setattr(limase.stripes, "_fork_workers", lambda items: 1)
        m.setattr(limase.stripes, "_item_s", {})
        return fn(*args, **kwargs)


class TestStripeMap:
    def test_items_in_order_and_first_stripe_in_caller(self, forked):
        pids = stripe_map(pid_of, range(6))
        assert pids[:3] == [os.getpid()] * 3  # item 0, then the first stripe of the other five
        assert os.getpid() not in pids[3:]
        assert stripe_map(lambda i: i * i, range(7)) == [i * i for i in range(7)]
        assert forked == [5, 6]

    def test_no_fork_inside_a_forked_worker(self, forked):
        def inner_pids(item):
            return stripe_map(pid_of, range(4))

        outer = stripe_map(inner_pids, range(3))
        assert forked == [3, 2]  # item 0's inner map, then the outer one
        assert outer[0][:2] == [os.getpid()] * 2 and os.getpid() not in outer[0][2:]
        assert outer[1] == [os.getpid()] * 4  # beside the outer map's running worker
        assert len(set(outer[2])) == 1 and os.getpid() not in outer[2]  # stayed in its worker

    def test_first_item_timed_in_caller(self, forked, monkeypatch):
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", 60.0)
        assert stripe_map(pid_of, range(5)) == [os.getpid()] * 5
        assert stripe_map(pid_of, range(1)) == [os.getpid()]
        assert stripe_map(pid_of, range(0)) == []
        assert forked == []

    def test_first_failing_item_raises_in_order(self, forked):
        def failing(i):
            if i == 1:
                return i
            if i in (4, 6):
                raise ModelOutputError(f"item {i}") from KeyError(i)
            if i == 5:
                raise KeyError("never reached")
            return i

        with pytest.raises(ModelOutputError, match="item 4") as caught:
            stripe_map(failing, range(8))
        assert isinstance(caught.value.__cause__, KeyError)

        def failing_twice(i):
            if i in (1, 6):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):  # the caller's own stripe
            stripe_map(failing_twice, range(8))

    def test_exception_pickle_cannot_rebuild_arrives_as_limase_error(self, forked):
        def failing(i):
            if i == 6:
                raise TwoPartError(7, "no pickle")
            return i

        with pytest.raises(LimaseError, match="TwoPartError") as caught:
            stripe_map(failing, range(8))
        assert type(caught.value) is LimaseError
        assert "7: no pickle" in str(caught.value)
        assert stripe_map(lambda i: i, range(4)) == [0, 1, 2, 3]  # the next map still forks

    def test_failed_call_kills_running_workers(self, forked):
        caller = os.getpid()

        def item(i):
            if os.getpid() != caller:
                time.sleep(60)
            if i == 1:
                raise ValueError("the caller's stripe failed")
            return i

        started = time.perf_counter()
        with pytest.raises(ValueError, match="caller's stripe failed"):
            stripe_map(item, range(4))  # item 1 in the caller, items 2-3 in a worker
        assert time.perf_counter() - started < 30  # the sleeping worker was not waited for

    def test_worker_that_exits_without_results_fails_the_call(self, forked):
        caller = os.getpid()

        def item(i):
            if os.getpid() != caller:
                os._exit(3)
            return i

        with pytest.raises(LimaseError, match="exited without its results"):
            stripe_map(item, range(4))

    def test_blas_threads_read_as_openblas_reads_them(self, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda mode: {
            "Build Dependencies": {"blas": {"name": "scipy-openblas"}}})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert limase.stripes._blas_threads() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "x")
        assert limase.stripes._blas_threads() == 2
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert limase.stripes._blas_threads() == limase.stripes._usable_cpus()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(np, "show_config", lambda mode: {
            "Build Dependencies": {"blas": {"name": "mkl"}}})
        assert limase.stripes._blas_threads() == limase.stripes._usable_cpus()


def phi_bytes(e) -> bytes:
    return b"".join(np.asarray(getattr(e, name)).tobytes()
                    for name in ("phi", "base_value", "fx", "class_index"))


def kernel_chunks(monkeypatch):
    model = random_mlp(3, 6, [16, 16])
    data = RandomStream(4).normal_matrix(13, 6)
    monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", 3 * 12 + 1)
    return lambda: phi_bytes(kernel_shap(model, data[0], data[1:], 200, RandomStream(5)))


def batch_rows(monkeypatch):
    model = random_mlp(5, 4, [16, 16])
    X = RandomStream(6).normal_matrix(8, 4)
    features = make_regression_dataset(7, 50, 4).features
    cfg = LimaseConfig(n_samples=100, seed=3)
    return lambda: [phi_bytes(r.explanation)
                    for r in limase_explain_batch(model, X, features, cfg)]


def forest_rounds(monkeypatch):
    data = make_classification_dataset(12, 200, 5, 3)
    return lambda: [tree.to_dict() for tree in fit_random_forest(
        data, 7, TreeParams(max_depth=4), RandomStream(13)).trees]


def walk_blocks(monkeypatch):
    forest = fit_random_forest(make_classification_dataset(21, 300, 4, 3), 40,
                               TreeParams(max_depth=5), RandomStream(4))
    X = RandomStream(8).normal_matrix(4 * (_BLOCK_PAIRS // 40) + 3, 4)
    return lambda: forest.raw_scores(X).tobytes()


class TestItemTimes:
    """A loop's later calls fork before item 0 when its last measured item time says striping pays."""

    def test_later_call_forks_first_in_even_stripes(self, forked, monkeypatch):
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", MIN_SAVING_S)

        def slow(i):
            time.sleep(MIN_SAVING_S)
            return os.getpid()

        first = stripe_map(slow, range(6))
        assert forked == [5]  # item 0 ran and was timed in the caller
        assert first[:3] == [os.getpid()] * 3 and os.getpid() not in first[3:]
        later = stripe_map(slow, range(6))
        assert forked == [5, 6]  # every item striped: 3 in the caller, 3 in a worker
        assert later[:3] == [os.getpid()] * 3 and os.getpid() not in later[3:]
        assert no_child_processes()

    def test_first_call_and_partial_time_item_0_first(self, forked):
        def offset_pid(offset, item):
            return os.getpid() + offset

        assert stripe_map(pid_of, range(6))[:3] == [os.getpid()] * 3
        partial = functools.partial(offset_pid, 0)  # no __code__: no item time to keep
        for _ in range(2):
            pids = stripe_map(partial, range(6))
            assert pids[:3] == [os.getpid()] * 3 and os.getpid() not in pids[3:]
        assert forked == [5, 5, 5]
        assert list(limase.stripes._item_s) == [pid_of.__code__]

    def test_cheap_items_fork_first_at_most_once(self, forked, monkeypatch):
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", MIN_SAVING_S)
        sleep_s = [MIN_SAVING_S]

        def item(i):
            time.sleep(sleep_s[0])
            return i

        assert stripe_map(item, range(6)) == list(range(6))
        assert forked == [5]
        sleep_s[0] = 0.0
        for _ in range(3):
            assert stripe_map(item, range(6)) == list(range(6))
        assert forked == [5, 6]  # the stale time forked once; the caller's first item re-timed it
        assert limase.stripes._item_s[item.__code__] < MIN_SAVING_S / 6

    def test_one_item_keeps_no_time(self, forked):
        def item(sleep_s):
            time.sleep(sleep_s)
            return sleep_s

        assert stripe_map(item, [0.0, 0.0]) == [0.0, 0.0]
        kept = dict(limase.stripes._item_s)
        assert stripe_map(item, [MIN_SAVING_S]) == [MIN_SAVING_S]  # the plain loop
        assert limase.stripes._item_s == kept and forked == [1]

    def test_nothing_kept_inside_a_forked_worker(self, forked, monkeypatch):
        kept = []

        class Kept(dict):
            def __setitem__(self, loop, item_s):
                kept.append((os.getpid(), loop.co_name))
                super().__setitem__(loop, item_s)

        monkeypatch.setattr(limase.stripes, "_item_s", Kept())

        def inner(i):
            return i

        def outer(i):
            stripe_map(inner, range(4))
            return os.getpid(), list(kept)

        caller = os.getpid()
        for _ in range(2):
            got = stripe_map(outer, range(4))
            assert got[0][0] == caller and got[-1][0] != caller
            for _, seen in got:  # as each item's process saw the kept times
                assert {pid for pid, _ in seen} <= {caller}
        # call 0: item 0's inner map, then item 0; call 1 forks first and times
        # item 0 beside the worker, where the inner maps keep nothing
        assert kept == [(caller, "inner"), (caller, "outer"), (caller, "outer")]

    @pytest.mark.parametrize("loop", [kernel_chunks, batch_rows, forest_rounds, walk_blocks],
                             ids=["kernel-chunks", "batch-rows", "forest-rounds", "walk-blocks"])
    def test_first_and_later_calls_equal_serial(self, forked, monkeypatch, loop):
        run = loop(monkeypatch)
        want = serial(monkeypatch, run)
        forked.clear()
        assert run() == want
        items = forked[-1] + 1  # the loop's own map forks last, after item 0's nested maps
        for _ in range(2):
            forked.clear()
            assert run() == want
            assert forked == [items]  # every item, before item 0; nothing nested forks

    def test_odd_fork_first_call_gives_the_caller_the_longer_stripe(self, forked):
        assert stripe_map(pid_of, range(3))[:2] == [os.getpid()] * 2  # times item 0
        pids = stripe_map(pid_of, range(3))
        assert forked == [2, 3]  # after item 0, then before it
        assert pids[:2] == [os.getpid()] * 2 and pids[2] != os.getpid()

    def test_first_failing_item_raises_in_order_on_later_calls(self, forked):
        def failing(i):
            if i in (5, 6):
                raise ModelOutputError(f"item {i}") from KeyError(i)
            return i

        for _ in range(2):
            with pytest.raises(ModelOutputError, match="item 5") as caught:
                stripe_map(failing, range(8))
            assert isinstance(caught.value.__cause__, KeyError)
        assert forked == [7, 8]

        def failing_twice(i):
            if i in (2, 6):
                raise ValueError(f"item {i}")
            return i

        for _ in range(2):
            with pytest.raises(ValueError, match="item 2"):  # the caller's own stripe
                stripe_map(failing_twice, range(8))
        assert forked[2:] == [7, 8]
        assert no_child_processes()


class TestFailedFork:
    """A stripe whose fork fails runs in the caller, in its place."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """os.fork fails with EAGAIN for the call numbers in the returned set (all when empty)."""
        real_fork, failing, made = os.fork, set(), []

        def fork():
            made.append(1)
            if not failing or len(made) in failing:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(limase.stripes.os, "fork", fork)
        return failing

    def test_stripes_run_in_the_caller_in_order(self, forked, forks):
        for _ in range(2):  # item 0 first, then forked first
            assert stripe_map(pid_of, range(6)) == [os.getpid()] * 6
            assert stripe_map(lambda i: i * i, range(7)) == [i * i for i in range(7)]
        assert forked == [5, 6, 6, 7]

    def test_one_failed_fork_of_two(self, forked, forks, monkeypatch):
        monkeypatch.setattr(limase.stripes, "_fork_workers", lambda items: 3)
        forks.add(1)  # the second stripe's fork fails, the third's succeeds
        pids = stripe_map(pid_of, range(9))
        assert pids[:6] == [os.getpid()] * 6  # item 0, the caller's stripe, the failed one
        assert os.getpid() not in pids[6:]
        assert forked == [8]

    def test_exceptions_keep_their_order(self, forked, forks, monkeypatch):
        monkeypatch.setattr(limase.stripes, "_fork_workers", lambda items: 3)
        forks.add(1)

        def failing(i):
            if i in (4, 7):  # the failed fork's stripe, then a worker's
                raise ModelOutputError(f"item {i}") from KeyError(i)
            return i

        with pytest.raises(ModelOutputError, match="item 4") as caught:
            stripe_map(failing, range(9))
        assert isinstance(caught.value.__cause__, KeyError)
        assert no_child_processes()

    def test_batch_equals_serial_rows(self, forked, forks, monkeypatch):
        run = batch_rows(monkeypatch)
        want = serial(monkeypatch, run)
        assert run() == want and run() == want
        assert forked == [7, 8]


class TestKernelChunks:
    @pytest.mark.parametrize("budget", ["exact", 200])
    def test_forked_chunks_equal_serial_bytes(self, forked, monkeypatch, budget):
        model = random_mlp(3, 6, [16, 16])
        data = RandomStream(4).normal_matrix(13, 6)
        x, bg = data[0], data[1:]
        monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", 3 * bg.shape[0] + 1)
        want = serial(monkeypatch, kernel_shap, model, x, bg, budget, RandomStream(5))
        got = kernel_shap(model, x, bg, budget, RandomStream(5))
        assert len(forked) == 1 and forked[0] > 2
        for name in ("phi", "base_value", "fx", "class_index"):
            assert np.asarray(getattr(got, name)).tobytes() == \
                np.asarray(getattr(want, name)).tobytes()

    def test_model_output_error_in_a_worker_chunk(self, forked, monkeypatch):
        # exact enumeration scores masks 1-6 in ascending order: mask 1 and
        # then 2-3 in the caller, 4-6 in a worker; masks 4 and 6 (feature 2
        # without feature 0) score NaN
        model = NanOffAnchorModel([1.0, 2.0, 3.0])
        bg = 1.0 + RandomStream(6).normal_matrix(4, 3) ** 2
        monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", 4)  # one mask per chunk
        with pytest.raises(ModelOutputError):
            kernel_shap(model, np.array([0.0, 0.0, 1000.0]), bg, "exact", RandomStream(0))
        assert forked == [5]

    def test_chunk_time_decides(self, forked, monkeypatch):
        """Chunks fork only when chunk 0's time says striping saves MIN_SAVING_S."""
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", MIN_SAVING_S)
        monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", 4)  # one mask per chunk
        x, bg = np.array([0.0, 1.0, 2.0]), RandomStream(6).normal_matrix(4, 3)
        kernel_shap(LinearModel([1.0, 2.0, 3.0]), x, bg, "exact", RandomStream(0))
        assert forked == []  # six fast chunks stay in the caller
        kernel_shap(SleepingModel([1.0, 2.0, 3.0]), x, bg, "exact", RandomStream(0))
        assert forked == [5]  # chunk 0 ran and was timed in the caller

    def test_one_chunk_never_forks(self, forked):
        # forest-cls (d=10, background 20) and external-sp (d=30, background 5)
        # at budget 2048 score every mask in one chunk
        for d, n_bg in ((10, 20), (30, 5)):
            data = RandomStream(d).normal_matrix(n_bg + 1, d)
            member, _ = limase.kernel._sample_masks(d, 2048, RandomStream(0))
            assert member.shape[0] <= limase.kernel._CHUNK_ROWS // n_bg
            kernel_shap(LinearModel(np.ones(d)), data[0], data[1:], 2048, RandomStream(0))
        assert forked == []

    def test_external_model_never_forks(self, forked, monkeypatch):
        monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", 3)  # one mask per chunk: six chunks
        bg = RandomStream(8).normal_matrix(3, 3)
        with attach_external(CONSTANT_SERVER, d=3, task="regression") as model:
            assert threading.active_count() > 1  # its reader thread keeps every item in the caller
            got = kernel_shap(model, np.array([0.5, -1.0, 2.0]), bg, "exact", RandomStream(0))
        assert forked == []
        assert got.fx == got.base_value == 7.25 and not np.any(got.phi)


class TestKernelRows:
    """kernelshap rows through the row runner, forked across rows."""

    def test_forked_rows_equal_serial_bytes_and_caller_stripe_stays(self, forked,
                                                                     monkeypatch):
        model = random_mlp(3, 6, [16, 16])
        data = RandomStream(4).normal_matrix(17, 6)
        X, bg = data[:5], data[5:]
        monkeypatch.setattr(limase.kernel, "_CHUNK_ROWS", 3 * bg.shape[0] + 1)

        def explain(i, x):
            return kernel_shap(model, x, bg, "exact", RandomStream(i))

        want = serial(monkeypatch, explain_rows, model, X, explain)
        inner, open_maps, deepest = limase.stripes._map_forked, [], []

        def nesting(fn, items, bounds, done, loop):
            open_maps.append(len(items))
            deepest.append(len(open_maps))
            try:
                return inner(fn, items, bounds, done, loop)
            finally:
                open_maps.pop()

        monkeypatch.setattr(limase.stripes, "_map_forked", nesting)
        got = explain_rows(model, X, explain)
        # row 0's 21 chunks fork, then the other 4 rows; the caller's stripe of
        # those rows scores its chunks beside the running worker, so never forks
        assert forked == [20, 4] and max(deepest) == 1
        for a, b in zip(got, want, strict=True):
            for name in ("phi", "base_value", "fx", "class_index"):
                assert np.asarray(getattr(a, name)).tobytes() == \
                    np.asarray(getattr(b, name)).tobytes()


class TestForestRounds:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_forked_forest_equals_serial_node_for_node(self, forked, monkeypatch, task):
        if task == "regression":
            data = make_regression_dataset(11, 200, 5)
        else:
            data = make_classification_dataset(12, 200, 5, 3)
        want = serial(monkeypatch, fit_random_forest, data, 7, TreeParams(max_depth=4),
                      RandomStream(13))
        got = fit_random_forest(data, 7, TreeParams(max_depth=4), RandomStream(13))
        assert forked == [6]  # round 0 ran and was timed in the caller
        assert len(got.trees) == len(want.trees)
        for a, b in zip(got.trees, want.trees):
            assert a.to_dict() == b.to_dict()

    def test_round_error_reaches_caller(self, forked, monkeypatch):
        inner, caller = limase.models.fit_tree, os.getpid()

        def failing(*args, **kwargs):
            if os.getpid() != caller:
                raise ModelOutputError("round failed")
            return inner(*args, **kwargs)

        monkeypatch.setattr(limase.models, "fit_tree", failing)
        data = make_regression_dataset(11, 100, 4)
        with pytest.raises(ModelOutputError, match="round failed"):
            fit_random_forest(data, 6, TreeParams(max_depth=3), RandomStream(13))
        assert forked == [5]



class TestWalkBlocks:
    """A stacked forest walk's row blocks, as the items of one stripe map."""

    @pytest.mark.parametrize("k", [None, 3])
    def test_forked_scores_equal_reference_walk(self, forked, k):
        data = (make_classification_dataset(21, 300, 4, k) if k
                else tiny_dataset(Task.regression(), n=300, d=4))
        forest = fit_random_forest(data, 40, TreeParams(max_depth=5), RandomStream(4))
        tree = forest.trees[0]
        for n_trees, walk, reference in (
                (len(forest.trees), forest.raw_scores, lambda X: reference_scores(forest, X)),
                (1, lambda X: predict_batch(tree, X), lambda X: reference_walk(tree, X))):
            step = max(2, _BLOCK_PAIRS // n_trees)
            for n in block_sizes(n_trees):
                X = RandomStream(n).normal_matrix(n, 4)
                forked.clear()
                limase.stripes._item_s.clear()
                assert walk(X).tobytes() == reference(X).tobytes(), n
                # a lone block is the plain loop (a single-row tail joins the
                # block before it); of two, block 0 runs first in the caller
                assert forked == ([1] if n >= step + 2 else []), n
                # the next walk forks both blocks, block 0 too
                assert walk(X).tobytes() == reference(X).tobytes(), n
                assert forked[1:] == ([2] if forked else []), n

    def test_one_chunk_kernel_call_equals_serial_bytes(self, forked, monkeypatch):
        # every mask in one chunk, as on forest-cls: the chunk's walk is what forks
        data = make_classification_dataset(31, 300, 10, 3)
        forest = fit_random_forest(data, 30, TreeParams(max_depth=5), RandomStream(3))
        x, bg = data.rows[0], data.rows[1:11]
        want = serial(monkeypatch, kernel_shap, forest, x, bg, 600, RandomStream(4))
        forked.clear()
        got = kernel_shap(forest, x, bg, 600, RandomStream(4))
        assert len(forked) == 1 and forked[0] > 10  # the chunk's blocks beyond block 0
        for name in ("phi", "base_value", "fx", "class_index"):
            assert np.asarray(getattr(got, name)).tobytes() == \
                np.asarray(getattr(want, name)).tobytes()

    def test_limase_scoring_walk_stays_in_caller(self, forked, monkeypatch):
        # the forest-cls shape: 150 trees at d=10, so 1001 rows are 10 blocks of about 0.5 ms
        data = make_classification_dataset(23, 300, 10, 3)
        forest = fit_random_forest(data, 50, TreeParams(max_depth=6), RandomStream(5))
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", MIN_SAVING_S)
        forked.clear()
        forest.predict(RandomStream(24).normal_matrix(1001, 10))
        assert forked == []

    def test_kernel_rows_chunk_walk_forks_before_block_0_after_the_first_row(
            self, forked, monkeypatch):
        # the forest-cls shape: 150 trees at d=10, 20 background rows, budget 2048;
        # a row walks x and its background in one block each, which keep no time,
        # then its chunk's 12k composite rows in about 113 blocks, whose block 0
        # takes 0.6-0.9 ms on a 2-vCPU VM: 56 blocks beyond the longest stripe
        # estimate 35-50 ms
        data = make_classification_dataset(23, 1000, 10, 3)
        forest = fit_random_forest(data, 50, TreeParams(max_depth=6), RandomStream(5))
        monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", MIN_SAVING_S)
        inner, done_before = limase.stripes._map_forked, []

        def spy(fn, items, bounds, done, loop):
            done_before.append(len(done))  # 1 after block 0, 0 before it
            return inner(fn, items, bounds, done, loop)

        monkeypatch.setattr(limase.stripes, "_map_forked", spy)
        for row in range(3):
            kernel_shap(forest, data.rows[30 + row], data.rows[1:21], 2048, RandomStream(row))
            if done_before == []:  # after the first row
                pytest.skip("walk blocks too fast here for a chunk walk to fork")
        assert done_before == [1, 0, 0]

    def test_no_walk_forks_inside_forked_rows(self, forked, monkeypatch):
        data = make_classification_dataset(12, 200, 5, 3)
        forest = fit_random_forest(data, 40, TreeParams(max_depth=4), RandomStream(13))
        cfg = LimaseConfig(n_samples=300, seed=2)  # 301 rows: 3 blocks of 120 trees
        want = serial(monkeypatch, limase_explain_batch, forest, data.rows[:5],
                      data.features, cfg)
        inner, caller, open_maps = limase.stripes._map_forked, os.getpid(), []

        def nesting(fn, items, bounds, done, loop):
            # raised in a worker, this fails the batch, as its row's error is no LimaseError
            assert os.getpid() == caller and not open_maps, "a nested fork"
            open_maps.append(len(items))
            try:
                return inner(fn, items, bounds, done, loop)
            finally:
                open_maps.pop()

        monkeypatch.setattr(limase.stripes, "_map_forked", nesting)
        forked.clear()
        got = limase_explain_batch(forest, data.rows[:5], data.features, cfg)
        assert forked == [2, 4]  # row 0's walk, then the other 4 rows
        for a, b in zip(got, want, strict=True):
            for name in ("phi", "base_value", "fx", "class_index"):
                assert np.asarray(getattr(a.explanation, name)).tobytes() == \
                    np.asarray(getattr(b.explanation, name)).tobytes()

    def test_forked_walk_memory_is_bounded_by_blocks(self, forked):
        # as test_models' unforked case: 150 trees over 40k rows, an unblocked walk 48 MB
        data = make_classification_dataset(23, 300, 10, 3)
        forest = fit_random_forest(data, 50, TreeParams(max_depth=6), RandomStream(5))
        X = RandomStream(24).normal_matrix(40_000, 10)
        forked.clear()
        tracemalloc.start()
        try:
            forest.predict(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forked == [366]  # 367 blocks of at most 109 rows
        assert peak < 12e6
