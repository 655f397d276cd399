"""The stripe map's edge rules, and its kernel chunks, kernel rows, forest rounds and walk blocks in forked workers."""
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

    Returns the list of item counts that _map_forked was called with.
    """
    if sys.platform != "linux":
        pytest.skip("items are forked only on Linux")
    if limase.stripes._usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    monkeypatch.setattr(limase.stripes, "_BLAS_THREADS", 1)
    monkeypatch.setattr(limase.stripes, "_MIN_SAVING_S", 0.0)
    inner, calls = limase.stripes._map_forked, []

    def spy(fn, items, workers):
        calls.append(len(items))
        return inner(fn, items, workers)

    monkeypatch.setattr(limase.stripes, "_map_forked", spy)
    yield calls
    assert no_child_processes()


def serial(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(limase.stripes, "_fork_workers", lambda items: 1)
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
            masks, _ = limase.kernel._sample_masks(d, 2048, RandomStream(0))
            assert masks.size <= limase.kernel._CHUNK_ROWS // n_bg
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

        def nesting(fn, items, workers):
            open_maps.append(len(items))
            deepest.append(len(open_maps))
            try:
                return inner(fn, items, workers)
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
    def test_forked_scores_equal_reference_walk(self, forked, monkeypatch, k):
        data = (make_classification_dataset(21, 300, 4, k) if k
                else tiny_dataset(Task.regression(), n=300, d=4))
        forest = fit_random_forest(data, 40, TreeParams(max_depth=5), RandomStream(4))
        tree = forest.trees[0]
        # a worker even for a lone block: the tail blocks run there, the caller's stripe is empty
        monkeypatch.setattr(limase.stripes, "_fork_workers", lambda items: 2)
        for n_trees, walk, reference in (
                (len(forest.trees), forest.raw_scores, lambda X: reference_scores(forest, X)),
                (1, lambda X: predict_batch(tree, X), lambda X: reference_walk(tree, X))):
            step = max(2, _BLOCK_PAIRS // n_trees)
            for n in block_sizes(n_trees):
                X = RandomStream(n).normal_matrix(n, 4)
                forked.clear()
                assert walk(X).tobytes() == reference(X).tobytes(), n
                # block 0 in the caller; a single-row tail joins the block before it
                assert forked == ([] if n == 0 else [1] if n >= step + 2 else [0]), n

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

    def test_no_walk_forks_inside_forked_rows(self, forked, monkeypatch):
        data = make_classification_dataset(12, 200, 5, 3)
        forest = fit_random_forest(data, 40, TreeParams(max_depth=4), RandomStream(13))
        cfg = LimaseConfig(n_samples=300, seed=2)  # 301 rows: 3 blocks of 120 trees
        want = serial(monkeypatch, limase_explain_batch, forest, data.rows[:5],
                      data.features, cfg)
        inner, caller, open_maps = limase.stripes._map_forked, os.getpid(), []

        def nesting(fn, items, workers):
            # raised in a worker, this fails the batch, as its row's error is no LimaseError
            assert os.getpid() == caller and not open_maps, "a nested fork"
            open_maps.append(len(items))
            try:
                return inner(fn, items, workers)
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
