"""Subprocess adapter: handshake, correlation, purity, failure modes."""
import sys
from pathlib import Path

import numpy as np
import pytest

from limase.core import RandomStream, Task
from limase.external import ProtocolError, attach_external
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
