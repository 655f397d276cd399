"""Adapter that turns a subprocess into a black-box model.

Wire format (one JSON object per line on the child's stdin/stdout):

    child greets:   {"type": "hello", "d": 20, "task": "classification", "k": 4}
    parent asks:    {"type": "predict", "id": 7, "inputs": [[...d reals...], ...]}
    child answers:  {"type": "result", "id": 7, "outputs": [[...k reals...], ...]}
    child fails:    {"type": "error", "id": 7, "message": "..."}

Responses may arrive out of order; ids correlate requests with answers.
A reader thread owns the child's stdout; predict() blocks on a condition
variable until its id shows up or the timeout passes.  A reply that
arrives after its request timed out is dropped.

Every predict line is byte for byte what json.dumps makes of the message.
A batch that repeats values, such as KernelSHAP's composites of x and a
few background rows, has each distinct value formatted once and its rows
streamed in blocks.
"""
from __future__ import annotations

import json
import shlex
import subprocess
import threading
import time

import numpy as np

from .core import BlackBoxModel, LimaseError, ModelOutput, RandomStream, Task


class ProtocolError(LimaseError):
    """The external process broke the line protocol or its purity promise."""


DEFAULT_TIMEOUT = 30.0

_PROBE_ROWS = 4
_PROBE_SEED = 0x70726F6265  # "probe"

# Rows per write when a predict line is streamed
_BLOCK_ROWS = 512
# Leading rows whose values decide whether a batch is worth deduplicating
_SAMPLE_ROWS = 32


def _write_predict(out, request_id: int, X: np.ndarray) -> None:
    """Write json.dumps({"type": "predict", "id": ..., "inputs": X.tolist()}) + newline.

    When fewer than half the cells of X, and of its first _SAMPLE_ROWS
    rows, are distinct, each distinct value is formatted once and the
    rows go out in blocks of _BLOCK_ROWS, so the whole line is never one
    string.  Values are told apart by their bits, which keeps -0.0 apart
    from 0.0.  The sample spares mostly distinct batches, such as limase's
    perturbations, a sort of every cell.
    """
    d = X.shape[1]
    bits = X.view(np.int64).ravel()
    sample = bits[: _SAMPLE_ROWS * d]
    if 2 * np.unique(sample).size < sample.size:
        distinct, inverse = np.unique(bits, return_inverse=True)
        if 2 * distinct.size < bits.size:
            # json's own spelling of each value (NaN, Infinity, 1e+16); none contains ", "
            texts = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "),
                             dtype=object)
            head = json.dumps({"type": "predict", "id": request_id, "inputs": None})
            out.write(head.removesuffix("null}") + "[")
            for start in range(0, X.shape[0], _BLOCK_ROWS):
                rows = texts[inverse[start * d : (start + _BLOCK_ROWS) * d]].reshape(-1, d)
                body = "], [".join(map(", ".join, rows.tolist()))
                out.write((", [" if start else "[") + body + "]")
            out.write("]}\n")
            return
    out.write(json.dumps({"type": "predict", "id": request_id, "inputs": X.tolist()}) + "\n")


class ExternalModel(BlackBoxModel):
    """A child process speaking the NDJSON prediction protocol.

    Use :func:`attach_external` to construct one; it performs the
    handshake and the purity spot check.  Instances are thread-safe and
    close the child on close() or context-manager exit.
    """

    def __init__(self, command: list[str], d: int, task: Task, timeout: float):
        self.command = command
        self.d = d
        self.task = task
        self.timeout = timeout
        self._next_id = 0
        self._results: dict[int, object] = {}
        self._abandoned: set[int] = set()  # ids whose predict() timed out
        self._fatal: str | None = None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._write_lock = threading.Lock()
        self._hello: dict | None = None
        try:
            self._proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as e:
            raise ProtocolError(f"failed to spawn external model {command!r}: {e}") from e
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    # -- reader thread -------------------------------------------------

    def _read_loop(self) -> None:
        for line in self._proc.stdout:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                self._fail(f"malformed JSON from external model: {line!r}")
                return
            if not isinstance(msg, dict) or "type" not in msg:
                self._fail(f"message without a type from external model: {line!r}")
                return
            kind = msg["type"]
            if kind == "hello":
                with self._cond:
                    self._hello = msg
                    self._cond.notify_all()
            elif kind in ("result", "error"):
                if "id" not in msg:
                    self._fail(f"{kind} message without id: {line!r}")
                    return
                with self._cond:
                    request_id = int(msg["id"])
                    if request_id in self._abandoned:
                        self._abandoned.remove(request_id)
                    else:
                        self._results[request_id] = msg
                        self._cond.notify_all()
            else:
                self._fail(f"unknown message type {kind!r} from external model")
                return
        self._fail("external model closed its output stream")

    def _fail(self, message: str) -> None:
        with self._cond:
            if self._fatal is None:
                self._fatal = message
            self._cond.notify_all()

    # -- protocol steps ------------------------------------------------

    def _wait_hello(self) -> dict:
        deadline = time.monotonic() + self.timeout
        with self._cond:
            while self._hello is None and self._fatal is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    raise ProtocolError("timed out waiting for external model handshake")
            if self._hello is None:
                raise ProtocolError(self._fatal)
            return self._hello

    def _send(self, request_id: int, X: np.ndarray) -> None:
        try:
            with self._write_lock:
                _write_predict(self._proc.stdin, request_id, X)
                self._proc.stdin.flush()
        except (BrokenPipeError, ValueError, OSError) as e:
            raise ProtocolError(f"external model is not accepting requests: {e}") from e

    def predict(self, X: np.ndarray) -> ModelOutput:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} columns, got {X.shape[1]}")
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        self._send(request_id, X)
        deadline = time.monotonic() + self.timeout
        with self._cond:
            while request_id not in self._results and self._fatal is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # nobody will pop the late reply, so the reader drops it
                    self._abandoned.add(request_id)
                    raise ProtocolError(f"timed out waiting for prediction {request_id}")
                self._cond.wait(remaining)
            if request_id not in self._results:
                raise ProtocolError(self._fatal)
            msg = self._results.pop(request_id)
        if msg["type"] == "error":
            raise ProtocolError(f"external model error: {msg.get('message', '')}")
        try:
            outputs = np.asarray(msg.get("outputs"), dtype=float)
        except (TypeError, ValueError) as e:
            raise ProtocolError(f"outputs of prediction {request_id} are not a "
                                f"matrix of numbers: {e}") from e
        if outputs.shape == (0,) and X.shape[0] == 0:
            outputs = outputs.reshape(0, self.task.n_outputs)  # [] for no rows
        if outputs.ndim != 2 or outputs.shape != (X.shape[0], self.task.n_outputs):
            raise ProtocolError(
                f"expected outputs of shape {(X.shape[0], self.task.n_outputs)}, "
                f"got {outputs.shape}"
            )
        return ModelOutput(outputs)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        if proc.stdin and not proc.stdin.closed:
            try:
                proc.stdin.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._reader.join(timeout=2.0)
        # a reader still in its loop would read a closed file
        if not self._reader.is_alive() and not proc.stdout.closed:
            proc.stdout.close()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def attach_external(
    command: str | list[str],
    d: int,
    task: Task | str,
    *,
    timeout: float = DEFAULT_TIMEOUT,
) -> ExternalModel:
    """Spawn the command, verify its handshake, and spot-check purity.

    task may be a full Task (every hello field is verified against it) or
    just the kind string, in which case the class count is adopted from
    the hello.  The purity check sends one probe batch twice and requires
    bit-identical outputs; models that fail it cannot be explained here.
    """
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    expected_kind = task if isinstance(task, str) else task.kind
    placeholder = Task.regression() if isinstance(task, str) else task
    model = ExternalModel(argv, d, placeholder, timeout)
    try:
        hello = model._wait_hello()
        if hello.get("d") != d:
            raise ProtocolError(f"external model declares d={hello.get('d')}, expected {d}")
        if hello.get("task") != expected_kind:
            raise ProtocolError(
                f"external model declares task={hello.get('task')!r}, expected {expected_kind!r}"
            )
        k = hello.get("k")
        if not isinstance(k, int) or k < 1:
            raise ProtocolError(f"external model declares invalid k={k!r}")
        if isinstance(task, Task):
            if k != task.n_outputs:
                raise ProtocolError(f"external model declares k={k}, expected {task.n_outputs}")
            model.task = task
        elif expected_kind == "classification":
            model.task = Task.classification(k)
        else:
            if k != 1:
                raise ProtocolError(f"regression model must declare k=1, got {k}")
            model.task = Task.regression()
        probe = RandomStream(_PROBE_SEED).normal_matrix(_PROBE_ROWS, d)
        first = model.predict(probe).values
        second = model.predict(probe).values
        if not np.array_equal(first, second):
            raise ProtocolError("external model is not pure: repeated probe batch differed")
    except BaseException:
        model.close()
        raise
    return model
