"""Subprocess adapter: handshake, correlation, purity, failure modes."""
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from limase import external
from limase.core import RandomStream, Task, compute_feature_meta
from limase.external import ProtocolError, attach_external
from limase.kernel import kernel_shap
from limase.pipeline import sample_around
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

    @pytest.mark.parametrize("field, value, d, message", [
        ("d", "true", 1, "declares d=True, expected 1"),
        ("d", "2.0", 2, "declares d=2.0, expected 2"),
        ("k", "true", 2, "declares invalid k=True"),
        ("k", "1.0", 2, "declares invalid k=1.0"),
    ], ids=["d-bool", "d-float", "k-bool", "k-float"])
    def test_hello_sizes_must_be_json_integers(self, field, value, d, message):
        with pytest.raises(ProtocolError, match=message):
            attach_external(server("server_hello.py") + [field, value], d=d, task="regression")

    def test_classification_hello_needs_two_classes(self):
        # the hello declares k=1, which no classifier has: a protocol fault of the child
        with pytest.raises(ProtocolError, match="k >= 2, got 1"):
            attach_external(server("server_hello.py") + ["task", '"classification"'], d=2,
                            task="classification")

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

    @pytest.mark.parametrize("kind", ["text", "float", "bool", "null"])
    def test_non_integer_id_fails_at_once(self, kind):
        # the reader must fail the model, not die and leave predict to time out
        began = time.monotonic()
        with pytest.raises(ProtocolError, match="non-integer id") as err:
            attach_external(server("server_bad_id.py") + [kind], d=2, task="regression",
                            timeout=10)
        assert time.monotonic() - began < 5
        assert '"type": "result"' in str(err.value)  # the line is quoted

    @pytest.mark.parametrize("kind", ["ahead", "negative"])
    def test_unissued_id_fails_at_once(self, kind):
        # a parked stray reply would leave the probe to wait out its timeout
        began = time.monotonic()
        with pytest.raises(ProtocolError, match="never issued") as err:
            attach_external(server("server_bad_id.py") + [kind], d=2, task="regression",
                            timeout=5)
        assert time.monotonic() - began < 1
        assert '"type": "result"' in str(err.value)

    @pytest.mark.parametrize("args, message", [
        (["server_accent.py"], "external model error: refusé on purpose"),
        (["server_accent.py", "latin-1"], r"not UTF-8: b'.*\\xe9"),
        (["server_deep.py"], r"malformed JSON from external model \(RecursionError\): "
                             r"'\[\[\[.*\.\.\. \(200000 in all\)"),
    ], ids=["utf-8", "latin-1", "deep"])
    def test_any_bad_reply_fails_at_once(self, args, message):
        # the pipes read UTF-8 whatever the locale, and a line the reader cannot
        # decode must fail the model, not kill the reader and leave predict to time out
        began = time.monotonic()
        with pytest.raises(ProtocolError, match=message) as err:
            attach_external(server(args[0]) + args[1:], d=2, task="regression", timeout=10)
        assert time.monotonic() - began < 5
        assert len(str(err.value)) < 2 * external._QUOTE_CHARS  # a bounded quote

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


def limase_cloud(seed: int) -> np.ndarray:
    """A limase request: x and 1000 perturbations of it, 30 features of mixed spread."""
    rng = RandomStream(seed)
    data = rng.normal_matrix(200, 30) * 10.0 ** np.linspace(-2, 3, 30)
    features = compute_feature_meta(data, [f"f{j}" for j in range(30)])
    return np.vstack([data[:1], sample_around(data[0], features, 1000, rng)])


def decade_edges() -> np.ndarray:
    """10**k and its two neighbours for k from -5 to 16, both signs, six to a row."""
    powers = 10.0 ** np.arange(-5, 17)
    edges = np.concatenate([powers, np.nextafter(powers, np.inf),
                            np.nextafter(powers, -np.inf)])
    return np.concatenate([edges, -edges]).reshape(-1, 6)


def zero_column() -> np.ndarray:
    """A cloud around a row whose feature 2 is 0 with no spread: a column of zeros."""
    X = RandomStream(12).normal_matrix(300, 5)
    X[:, 2] = 0.0
    return X


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
        "limase_cloud": (limase_cloud(10), False),
        "decade_edges": (decade_edges(), False),
        "zero_column": (zero_column(), False),
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


    @pytest.mark.parametrize("X", [
        np.empty((0, 3)),
        np.empty((4, 0)),
        RandomStream(13).normal_matrix(6, 40).T,
        RandomStream(14).normal_matrix(80, 10)[::2, ::-3],
        1e-6 * RandomStream(15).normal_matrix(50, 4),
        np.vstack([RandomStream(16).normal_matrix(40, 3),
                   [[np.nan, np.inf, -np.inf], [5e-324, -0.0, 1e300]]]),
    ], ids=["no_rows", "no_columns", "transposed", "strided", "all_declined", "non_finite"])
    def test_odd_batches_equal_json_dumps(self, X):
        pieces = Pieces()
        external._write_predict(pieces, 5, X)
        assert len(pieces) == 1
        assert pieces[0] == predict_line(5, X).decode()


def formatted(values: np.ndarray) -> list[str]:
    """Each value as a mostly distinct predict line spells it, a column at a time."""
    spelled = []
    for start in range(0, values.size, 4096):
        column = values[start : start + 4096].reshape(-1, 1)
        spelled += str(external._format_rows(column), "ascii").removesuffix("], [").split("], [")
    return spelled


def by_repr(values: np.ndarray) -> list[str]:
    return [repr(v) if math.isfinite(v) else json.dumps(v) for v in values.tolist()]


def half_way_values(rng) -> np.ndarray:
    """Doubles whose exact decimal value has 16, 17 or 18 digits, the last a 5.

    m / 2**j with m odd is m * 5**j / 10**j, so its last digit is a 5 and it
    lies exactly half way between two decimals of one digit fewer.
    """
    found = []
    for j in range(1, 24):
        m = 2 * rng.integers(1, min(10 ** int(18 - 0.7 * j), 2**52), 2000) + 1
        for value, odd in zip((m * 2.0**-j).tolist(), m.tolist()):
            if len(str(odd * 5**j)) in (16, 17, 18) and 1e-4 <= value < 1e16:
                found.append(value)
    return np.array(found)


def adversarial_values(kind: str) -> np.ndarray:
    rng = np.random.default_rng(17)
    powers = 10.0 ** np.arange(-5, 17)
    if kind == "decade_neighbours":
        return np.concatenate([powers, np.nextafter(powers, np.inf),
                               np.nextafter(powers, -np.inf)])
    if kind == "notation_switch":  # repr's fixed notation is 1e-4 <= |v| < 1e16
        up = down = [np.array([1e-4, 1e16])]
        for _ in range(4):
            up = up + [np.nextafter(up[-1], np.inf)]
            down = down + [np.nextafter(down[-1], -np.inf)]
        return np.concatenate(up + down[1:])
    if kind == "powers_of_two":
        return 2.0 ** np.arange(-1074, 1024)
    if kind == "half_way":
        return half_way_values(rng)
    if kind == "integers":
        return np.concatenate([np.arange(20_001.0), 2.0**53 + np.arange(-20, 21),
                               rng.integers(0, 10**16, 50_000).astype(float)])
    if kind == "special":
        return np.concatenate([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                                2.2250738585072014e-308, 1.7976931348623157e308],
                               rng.integers(1, 2**52, 1000).view(np.float64)])  # subnormals
    assert kind == "significant_digits"
    text = [f"{rng.integers(10 ** (n - 1), 10 ** n)}e{rng.integers(-24, 24)}"
            for n in range(1, 18) for _ in range(1000)]
    return np.array([float(t) for t in text])


class TestFormatter:
    """The array formatter spells every value as repr does (json's NaN and Infinity).

    The error::RuntimeWarning filter in pyproject.toml fails any input that warns.
    """

    def test_random_values_match_repr(self):
        rng = np.random.default_rng(16)
        n = 500_000
        decades = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-7, 19, n)
        bits = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64).view(np.float64)
        values = np.concatenate([decades, bits])
        assert formatted(values) == by_repr(values)
        # the fast path, not json.dumps, spelled the values it can decide
        plain = np.abs(decades)
        plain = decades[(plain >= 1e-4) & (plain < 1e9)]
        assert plain.size > 150_000
        assert external._shortest_digits(plain)[2].sum() <= 10

    @pytest.mark.parametrize("kind", ["decade_neighbours", "notation_switch", "powers_of_two",
                                      "half_way", "integers", "special",
                                      "significant_digits"])
    def test_adversarial_values_match_repr(self, kind):
        values = adversarial_values(kind)
        values = np.concatenate([values, -values])
        assert formatted(values) == by_repr(values)

    def test_limase_cloud_takes_the_fast_path(self):
        # json.dumps spells only the cells repr writes in exponent notation
        cloud = limase_cloud(18).ravel()
        declined = external._shortest_digits(cloud)[2]
        assert 0 < declined.sum() < 30
        assert np.array_equal(declined, np.abs(cloud) < 1e-4)


class Sink:
    """A text stream that keeps only the sizes of its writes."""

    largest = total = 0

    def write(self, text):
        self.largest = max(self.largest, len(text))
        self.total += len(text)


def traced_peak(send) -> int:
    """How far send's allocations rise at their peak above those before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        send()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    def test_peak_no_higher_than_json_dumps(self):
        # a kernel-sized request: 7,666 composites of 30 columns, 6 values per column
        rng = RandomStream(7)
        values = rng.normal_matrix(6, 30)
        X = values[(6 * rng.uniform(7666 * 30)).astype(int).reshape(7666, 30), np.arange(30)]
        streamed, dumped = Sink(), Sink()
        dumped_peak = traced_peak(lambda: dumped.write(predict_line(0, X).decode()))
        streamed_peak = traced_peak(lambda: external._write_predict(streamed, 0, X))
        assert streamed.total == dumped.total
        assert streamed_peak <= dumped_peak
        # the rows go out in blocks, never as one string
        assert streamed.largest < streamed.total // 8

    def test_formatted_peak_no_higher_than_json_dumps(self):
        # a limase request: the formatter works in blocks, so its arrays stay below
        # the Python floats and lists that json.dumps makes of the whole matrix
        X = limase_cloud(19)
        external._format_tables()  # built once per process, not per line
        formatted, dumped = Sink(), Sink()
        dumped_peak = traced_peak(lambda: dumped.write(
            json.dumps({"type": "predict", "id": 0, "inputs": X.tolist()}) + "\n"))
        formatted_peak = traced_peak(lambda: external._write_predict(formatted, 0, X))
        assert formatted.total == dumped.total
        assert formatted_peak <= dumped_peak
