"""Subprocess adapter: handshake, correlation, purity, failure modes."""
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from limase import external
from limase.core import RandomStream, Task
from limase.external import ProtocolError, attach_external
from limase.kernel import kernel_shap
from limase.shapley import tree_conditional_value
from limase.trees import TreeParams, fit_tree

FIXTURES = Path(__file__).parent / "fixtures"


def server(name: str) -> list[str]:
    return [sys.executable, str(FIXTURES / name)]


class TestAttach:
    def test_constant_model(self):
        with attach_external(server("server_constant.py"), d=3, task="regression") as model:
            out = model.predict(RandomStream(0).normal_matrix(5, 3))
            assert np.all(out.values == 7.25)
            assert model.task == Task.regression()

    def test_full_task_verification(self):
        with attach_external(server("server_classifier.py"), d=2,
                             task=Task.classification(3)) as model:
            out = model.predict(np.array([[1.0, -1.0]]))
            out.check_probabilities()

    def test_kind_string_adopts_class_count(self):
        with attach_external(server("server_classifier.py"), d=2,
                             task="classification") as model:
            assert model.task == Task.classification(3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="d="):
            attach_external(server("server_constant.py"), d=5, task="regression")

    def test_task_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="task"):
            attach_external(server("server_constant.py"), d=3, task="classification")

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="k="):
            attach_external(server("server_classifier.py"), d=2,
                            task=Task.classification(4))

    def test_spawn_failure(self):
        with pytest.raises(ProtocolError, match="spawn"):
            attach_external(["/nonexistent/binary"], d=2, task="regression")

    def test_impure_model_rejected(self):
        with pytest.raises(ProtocolError, match="pure"):
            attach_external(server("server_impure.py"), d=2, task="regression")

    def test_silent_child_times_out(self):
        # `sleep` never says hello; the handshake must give up at the timeout
        with pytest.raises(ProtocolError, match="timed out"):
            attach_external(["sleep", "30"], d=2, task="regression", timeout=0.5)


class TestProtocol:
    def test_stump_wrapper_matches_fitted_stump(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 4.0, 4.0])
        stump = fit_tree(X, y, np.ones(4), TreeParams(max_depth=1, min_samples_leaf=1))
        probe = 4.0 * RandomStream(17).normal_matrix(100, 1)
        with attach_external(server("server_stump.py"), d=1, task="regression") as model:
            got = model.predict(probe).values[:, 0]
        want = np.array([tree_conditional_value(stump, row, (1 << stump.d) - 1) for row in probe])
        assert np.array_equal(got, want)

    def test_malformed_json_names_offending_line(self):
        with pytest.raises(ProtocolError) as err:
            attach_external(server("server_malformed.py"), d=2, task="regression")
        msg = str(err.value)
        assert "malformed" in msg
        assert "this is {not json" in msg

    def test_out_of_order_responses_correlate_by_id(self):
        import threading

        with attach_external(server("server_reorder.py"), d=2, task="regression") as model:
            # attach consumed ids 0/1 (purity probes); issue two concurrent
            # requests that the server answers in reverse order
            results = {}

            def ask(tag):
                results[tag] = model.predict(np.zeros((1, 2))).values[0, 0]

            threads = [threading.Thread(target=ask, args=(t,)) for t in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(results.values()) == [2.0, 3.0]  # each answer names its id

    def test_late_reply_to_timed_out_request_is_dropped(self):
        with attach_external(server("server_slow.py"), d=2, task="regression") as model:
            model.timeout = 0.2
            with pytest.raises(ProtocolError, match="timed out"):
                model.predict(np.array([[2000.0, 0.0]]))
            model.timeout = 30.0
            # the child answers in order, so the late reply is read first
            assert model.predict(np.array([[1.0, 2.0]])).values[0, 0] == 3.0
            assert model._results == {}
            assert model._abandoned == set()

    @pytest.mark.parametrize("reply", ["text", "ragged"])
    def test_outputs_not_numbers_name_request(self, reply):
        with pytest.raises(ProtocolError, match="prediction 0"):
            attach_external(server("server_bad_outputs.py") + [reply], d=2, task="regression")

    def test_error_response_raises(self):
        with pytest.raises(ProtocolError, match="refusing on purpose"):
            attach_external(server("server_errors.py"), d=2, task="regression")

    def test_wrong_width_input_rejected_locally(self):
        with attach_external(server("server_constant.py"), d=3, task="regression") as model:
            with pytest.raises(ValueError):
                model.predict(np.zeros((2, 4)))

    def test_close_is_idempotent(self):
        model = attach_external(server("server_constant.py"), d=3, task="regression")
        model.close()
        model.close()
        with pytest.raises(ProtocolError):
            model.predict(np.zeros((1, 3)))

    def test_close_closes_child_pipes(self):
        model = attach_external(server("server_constant.py"), d=3, task="regression")
        model.close()
        assert model._proc.stdin.closed and model._proc.stdout.closed
        model.close()
        assert model._proc.stdout.closed


def predict_line(request_id, X) -> bytes:
    """A predict request as json.dumps spells it, the form the child must receive."""
    return (json.dumps({"type": "predict", "id": request_id, "inputs": X.tolist()})
            + "\n").encode()


def composites(n_masks, d, seed):
    """KernelSHAP-style rows: x on a random coalition, a background row elsewhere."""
    rng = RandomStream(seed)
    x, background = rng.normal_matrix(1, d)[0], rng.normal_matrix(5, d)
    member = rng.uniform(n_masks * d).reshape(n_masks, 1, d) < 0.5
    return np.where(member, x, background).reshape(-1, d)


class Pieces(list):
    """A text stream that keeps each write."""

    write = list.append


SPECIAL = np.array([-0.0, 0.0, 1e-310, 5e-324, 1e16, 1e-7, 1.7e308, -1.7e308])
NON_FINITE = np.array([np.nan, np.inf, -np.inf, 1.5])


class TestWireBytes:
    """Each request line the child reads is json.dumps of the same message."""

    CASES = {
        "kernel_composites": (composites(300, 6, 1), True),
        "all_distinct": (RandomStream(2).normal_matrix(50, 4), False),
        "zero_rows": (np.empty((0, 3)), False),
        "one_row": (RandomStream(3).normal_matrix(1, 5), False),
        "one_column": (np.repeat([[0.5], [-2.0], [3.25]], 40, axis=0), True),
        "special_values": (np.tile(SPECIAL, (30, 1)), True),
        "nan_and_inf": (np.tile(NON_FINITE, (30, 1)), True),
        "column_slice": (composites(300, 6, 4)[:, 1:4], True),
        "repeated_head_distinct_tail": (
            np.vstack([np.zeros((40, 3)), RandomStream(8).normal_matrix(200, 3)]), False),
        "distinct_head_repeated_tail": (
            np.vstack([RandomStream(9).normal_matrix(40, 3), np.zeros((200, 3))]), False),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_line_equals_json_dumps(self, case, tmp_path):
        X, repeats = self.CASES[case]
        pieces = Pieces()
        external._write_predict(pieces, 2, X)
        assert (len(pieces) > 1) == repeats  # streamed in pieces or one json.dumps line
        log = tmp_path / "requests.ndjson"
        d = X.shape[1]
        with attach_external(server("server_record.py") + [str(log), str(d)], d=d,
                             task="regression") as model:
            out = model.predict(X)
        assert out.values.shape == (X.shape[0], 1)
        probe = RandomStream(external._PROBE_SEED).normal_matrix(external._PROBE_ROWS, d)
        want = [predict_line(0, probe), predict_line(1, probe), predict_line(2, X)]
        assert log.read_bytes().splitlines(keepends=True) == want

    def test_kernel_shap_phi_equals_json_dumps_encoding(self, tmp_path, monkeypatch):
        d = 4
        rng = RandomStream(5)
        x, background = rng.normal_matrix(1, d)[0], rng.normal_matrix(5, d)

        def explain(log):
            with attach_external(server("server_record.py") + [str(log), str(d)], d=d,
                                 task="regression") as model:
                return kernel_shap(model, x, background, "exact", RandomStream(6))

        writes, write_predict = [], external._write_predict

        def counting(out, request_id, X):
            pieces = Pieces()
            write_predict(pieces, request_id, X)
            writes.append(len(pieces))
            out.write("".join(pieces))

        monkeypatch.setattr(external, "_write_predict", counting)
        streamed = explain(tmp_path / "streamed.ndjson")
        assert max(writes) > 1  # the composites took the streamed path
        monkeypatch.setattr(external, "_write_predict", lambda out, request_id, X:
                            out.write(predict_line(request_id, X).decode()))
        dumped = explain(tmp_path / "dumped.ndjson")
        assert streamed.phi.tobytes() == dumped.phi.tobytes()
        assert (tmp_path / "streamed.ndjson").read_bytes() \
            == (tmp_path / "dumped.ndjson").read_bytes()


class TestStreamedMemory:
    def test_peak_no_higher_than_json_dumps(self):
        # a kernel-sized request: 7,666 composites of 30 columns, 6 values per column
        rng = RandomStream(7)
        values = rng.normal_matrix(6, 30)
        X = values[(6 * rng.uniform(7666 * 30)).astype(int).reshape(7666, 30), np.arange(30)]

        class Sink:
            largest = total = 0

            def write(self, text):
                self.largest = max(self.largest, len(text))
                self.total += len(text)

        def peak(send):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            send()
            return tracemalloc.get_traced_memory()[1] - before

        streamed, dumped = Sink(), Sink()
        tracemalloc.start()
        try:
            dumped_peak = peak(lambda: dumped.write(predict_line(0, X).decode()))
            streamed_peak = peak(lambda: external._write_predict(streamed, 0, X))
        finally:
            tracemalloc.stop()
        assert streamed.total == dumped.total
        assert streamed_peak <= dumped_peak
        # the rows go out in blocks, never as one string
        assert streamed.largest < streamed.total // 8
