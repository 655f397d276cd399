"""Subprocess adapter: handshake, correlation, purity, failure modes."""
import json
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from limase import external, kernel
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

    def test_child_that_stops_reading_fails_the_model(self):
        # the write of a line larger than the pipe's buffer must give up at the timeout
        with attach_external(server("server_deaf.py"), d=30, task="regression",
                             timeout=1) as model:
            began = time.monotonic()
            with pytest.raises(ProtocolError, match="timed out writing prediction 2"):
                model.predict(limase_cloud(20))
            assert time.monotonic() - began < model.timeout + 2
            began = time.monotonic()
            with pytest.raises(ProtocolError, match="timed out writing prediction 2"):
                model.predict(np.zeros((1, 30)))
            assert time.monotonic() - began < 0.5

    def test_queued_request_gets_its_own_timeout(self):
        # two lines larger than the pipe's buffer to a child that spends 0.6 of the
        # timeout on each: the second cannot be written in full until the child has
        # answered the first, and its timeout for the reply starts only then
        X = RandomStream(3).normal_matrix(4000, 2)
        X[0, 0] = 2000.0  # the fixture answers it 1 s late
        with attach_external(server("server_slow.py"), d=2, task="regression") as model:
            model.timeout = 1.0 / 0.6
            began = time.monotonic()
            with ThreadPoolExecutor(2) as pool:
                outputs = list(pool.map(lambda _: model.predict(X).values, range(2)))
            assert time.monotonic() - began > 2.0  # the child answered one after the other
        for values in outputs:
            np.testing.assert_array_equal(values[:, 0], X.sum(axis=1))

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


def line_of(monkeypatch, request_id, X) -> tuple[bytes, int]:
    """The predict line the client writes for X, and how many of its cells _format_rows spelled."""
    formatted, format_rows = [], external._format_rows

    def spy(block):
        formatted.append(block.size)
        return format_rows(block)

    with monkeypatch.context() as patch:
        patch.setattr(external, "_format_rows", spy)
        blocks = external._predict_blocks(request_id, X)
    return b"".join(blocks), sum(formatted)


def kernel_chunk(n_bg: int) -> np.ndarray:
    """The composites of kernel_shap's first model call at d=30, budget 2048, n_bg background rows.

    Its coalitions are mostly of one or d - 1 features, in bitmask order.
    """
    rng = RandomStream(20 + n_bg)
    x, background = rng.normal_matrix(1, 30)[0], rng.normal_matrix(n_bg, 30)
    member = kernel._sample_masks(30, 2048, rng)[0][: kernel._CHUNK_ROWS // n_bg]
    return np.where(member[:, None, :], x, background).reshape(-1, 30)


SPECIAL = np.array([-0.0, 0.0, 1e-310, 5e-324, 1e16, 1e-7, 1.7e308, -1.7e308])
NON_FINITE = np.array([np.nan, np.inf, -np.inf, 1.5])


class TestWireBytes:
    """Each request line the child reads is json.dumps of the same message.

    Each case says whether _format_rows spells its cells; when it does not,
    each distinct value is spelled once and gathered.
    """

    CASES = {
        "kernel_composites": (composites(300, 6, 1), False),
        "kernel_d30_background_1": (kernel_chunk(1), False),
        "kernel_d30_background_5": (kernel_chunk(5), False),
        "kernel_d30_background_20": (kernel_chunk(20), False),
        "kernel_d30_background_100": (kernel_chunk(100), False),
        "all_distinct": (RandomStream(2).normal_matrix(50, 4), True),
        "zero_rows": (np.empty((0, 3)), False),
        "one_row": (RandomStream(3).normal_matrix(1, 5), True),
        "one_column": (np.repeat([[0.5], [-2.0], [3.25]], 40, axis=0), False),
        "special_values": (np.tile(SPECIAL, (30, 1)), False),
        "nan_and_inf": (np.tile(NON_FINITE, (30, 1)), False),
        "column_slice": (composites(300, 6, 4)[:, 1:4], False),
        "repeated_head_distinct_tail": (
            np.vstack([np.zeros((40, 3)), RandomStream(8).normal_matrix(200, 3)]), True),
        "distinct_head_repeated_tail": (
            np.vstack([RandomStream(9).normal_matrix(40, 3), np.zeros((200, 3))]), False),
        "limase_cloud": (limase_cloud(10), True),
        "decade_edges": (decade_edges(), True),
        "zero_column": (zero_column(), True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_line_equals_json_dumps(self, case, tmp_path, monkeypatch):
        X, formatted = self.CASES[case]
        line, cells = line_of(monkeypatch, 2, X)
        assert line == predict_line(2, X)
        assert cells == (X.size if formatted else 0)
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

        formatted, format_rows = [], external._format_rows

        def spy(block):
            formatted.append(len(block))
            return format_rows(block)

        monkeypatch.setattr(external, "_format_rows", spy)
        streamed = explain(tmp_path / "streamed.ndjson")
        # the purity probes, x and the background were formatted; the composites were
        # spelled a distinct value at a time
        assert formatted == [external._PROBE_ROWS] * 2 + [1, len(background)]
        monkeypatch.setattr(external, "_predict_blocks", lambda request_id, X:
                            [predict_line(request_id, X)])
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
    def test_odd_batches_equal_json_dumps(self, X, monkeypatch):
        line, cells = line_of(monkeypatch, 5, X)
        assert line == predict_line(5, X)
        assert cells == X.size  # each batch is mostly distinct


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
        dumped, blocks = [], []
        dumped_peak = traced_peak(lambda: dumped.append(predict_line(0, X)))
        blocks_peak = traced_peak(lambda: blocks.extend(external._predict_blocks(0, X)))
        assert sum(map(len, blocks)) == len(dumped[0])
        assert blocks_peak <= dumped_peak
        # the line is made in blocks, which bounds the formatter's temporaries; the
        # blocks together still hold the whole line, so this bounds no memory itself
        assert max(map(len, blocks)) < len(dumped[0]) // 8

    def test_formatted_peak_no_higher_than_json_dumps(self):
        # a limase request: the formatter works in blocks, so its arrays stay below
        # the Python floats and lists that json.dumps makes of the whole matrix
        X = limase_cloud(19)
        external._format_tables()  # built once per process, not per line
        dumped, blocks = [], []
        dumped_peak = traced_peak(lambda: dumped.append(
            json.dumps({"type": "predict", "id": 0, "inputs": X.tolist()}) + "\n"))
        blocks_peak = traced_peak(lambda: blocks.extend(external._predict_blocks(0, X)))
        assert sum(map(len, blocks)) == len(dumped[0])
        assert blocks_peak <= dumped_peak
        assert max(map(len, blocks)) < len(dumped[0]) // 8
