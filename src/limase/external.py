"""Adapter that turns a subprocess into a black-box model.

Wire format (one JSON object per line on the child's stdin/stdout):

    child greets:   {"type": "hello", "d": 20, "task": "classification", "k": 4}
    parent asks:    {"type": "predict", "id": 7, "inputs": [[...d reals...], ...]}
    child answers:  {"type": "result", "id": 7, "outputs": [[...k reals...], ...]}
    child fails:    {"type": "error", "id": 7, "message": "..."}

Responses may arrive out of order; ids correlate requests with answers.
A reader thread owns the child's stdout; predict() blocks on a condition
variable until its id shows up or the timeout passes.  A reply that
arrives after its request timed out is dropped; one whose id was never
issued fails the model with a ProtocolError, and so does a line the
reader cannot decode: the pipes carry UTF-8, JSON's own encoding (RFC
8259), whatever the locale.

Every predict line is byte for byte what json.dumps makes of the message.
It is made in blocks of rows, which keeps the formatter's temporaries to
one block; the whole line is held, as its blocks, until it is written.
A batch that repeats values, such as KernelSHAP's composites of x and
background rows, has each distinct value formatted once and gathered.  A
mostly distinct batch, such as limase's perturbations, is formatted with
array arithmetic: each value gets repr's shortest round-trip digits from
an exact product (Dekker's two-product) and the shortest-digits rule that
Ryu implements.  The few cells that arithmetic cannot decide with margin
are spelled by json.dumps.  The timeout bounds every wait for the child
to take more of a line too: a child that stops reading fails the model
and is killed, since part of a line is already on the pipe.
"""
from __future__ import annotations

import functools
import json
import os
import select
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

# Characters of a bad reply line that an error message quotes
_QUOTE_CHARS = 200
# Cells per block of a predict line
_FORMAT_CELLS = 2048

# Each formatted cell is first laid out in _WIDTH bytes, 8-byte words:
#   "-0.000" d1 "." | d2 "." d3 "." d4 "." d5 "." | ... | d14 "." ... d17 "." | "], [" pad
# and a keep-mask picks its bytes: the sign, "0." and leading zeros below 1, the
# significant digits, the point after the units digit, and ", " (or "], [" at
# the end of a row).  A cell the formatter declines gets json's own spelling
# written over the first _TEXT_WIDTH bytes instead.
_WIDTH = 48
_TEXT_WIDTH = 32
_EXPONENTS = range(-4, 16)  # repr spells 1e-4 <= |v| < 1e16 in fixed notation
_DIGITS = 18  # 0 (a zero) to 17 significant digits
_TEXT_KEY = 2 * len(_EXPONENTS) * _DIGITS * 2
# 10**k is a double exactly for k <= 22; each is split in halves for Dekker's product
_POW10 = 10.0 ** np.arange(23)
_SPLITTER = 134217729.0  # 2**27 + 1
# A candidate this close (in units of the scaled value) to a tie or to the edge
# of the value's rounding interval is left to json.dumps
_MARGIN = 1e-9


def _excerpt(text) -> str:
    """repr of a reply line, or of what was read of it, cut to _QUOTE_CHARS."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} in all)"


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two halves of at most 26 bits."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _exact_scale(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as an unevaluated sum hi + lo, exactly (Dekker's two-product)."""
    b, b_high, b_low = _POW10[k], _POW10_HIGH[k], _POW10_LOW[k]
    hi = a * b
    a_high, a_low = _split(a)
    lo = ((a_high * b_high - hi) + a_high * b_low + a_low * b_high) + a_low * b_low
    return hi, lo


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The words and keep-masks of the layout above, and trailing zeros of 4-digit groups.

    lead[d] is the first word with leading digit d, groups[g] the word of the
    4-digit group g with a point slot after each digit, zeros[g] how many
    trailing zeros g has (4 for 0), and masks[key] the keep-mask of a cell,
    keyed ((negative * 20 + exponent + 4) * 18 + digits) * 2 + row end for a
    formatted cell and _TEXT_KEY + (length - 1) * 2 + row end for a text.
    """
    lead = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
    g = np.arange(10_000)
    group = np.full((10_000, 8), ord("."), np.uint8)
    group[:, 0::2] = 48 + np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    zeros = np.zeros(10_000, np.uint8)
    for power in (10, 100, 1000, 10_000):
        zeros += g % power == 0
    digit_slot = 6 + 2 * np.arange(17)
    masks = np.zeros((_TEXT_KEY + 2 * _TEXT_WIDTH, _WIDTH), bool)
    key = 0
    for negative in (0, 1):
        for exponent in _EXPONENTS:
            for n in range(_DIGITS):
                keep = np.zeros(_WIDTH, bool)
                keep[0] = negative
                if exponent < 0:  # "0." and -exponent - 1 zeros, then the digits
                    keep[1 : 2 - exponent] = True
                    keep[digit_slot[:n]] = True
                else:  # digits to the units and one after the point, which may be a zero
                    keep[digit_slot[: max(n, exponent + 2)]] = True
                    keep[digit_slot[exponent] + 1] = True
                masks[key] = masks[key + 1] = keep
                key += 2
    for length in range(1, _TEXT_WIDTH + 1):
        masks[key : key + 2, :length] = True
        key += 2
    masks[1::2, 40:44] = True  # "], [" at the end of a row
    masks[0::2, 41:43] = True  # ", " elsewhere
    return lead, group.view(np.uint64).ravel(), zeros, masks.view(np.uint64)


def _shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each value as a 17-digit integer, its decimal exponent, and declined.

    A finite v with 1e-4 <= |v| < 1e16 is scaled by 10**(16 - E), E its
    decimal exponent, to p = |v| * 10**(16 - E) in [1e16, 1e17), which is
    held exactly as hi + lo.  repr spells the shortest decimal inside v's
    rounding interval, |candidate - p| < h with h half an ulp of v scaled
    the same way, and of those the nearest to p.  h lies in (0.55, 11.1),
    so at most one 15-digit decimal fits, and p rounded to 17 digits always
    does.  The digits are thus those of p rounded to 15 digits if that
    fits, else to 16 if that fits, else to 17; a spelling shorter than 15
    digits is the 15-digit one without its trailing zeros.  declined marks
    what is left to json.dumps: zeros (whose other outputs are meaningless),
    values outside that range or not finite, values whose log10 missed E
    by one, and candidates within _MARGIN of a tie or of the interval's
    edge.  A power of two's interval reaches only half as far below it as
    above, yet all 67 powers of two in the range format as repr does
    without a decline; TestFormatter checks every one.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)  # not NaN or inf either
    a = np.where(fast, a, 1.5)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _exact_scale(a, 16 - exponent)
    # log10 may miss by one within a few ulps of a power of ten
    declined = ~fast | (hi < 1e16) | (hi >= 1e17) | ((hi == 1e16) & (lo < 0))
    high = hi.astype(np.int64)  # an integer, as hi >= 1e16 > 2**53
    half_ulp = ((a.view(np.int64) & 0x7FF0000000000000).view(np.float64) * 2.0**-53
                * _POW10[16 - exponent])
    # each candidate as its offset from high; a level decides only the cells that no
    # shorter candidate fits, and a tie there matters only if the tied ones fit
    move = np.rint(lo)  # p rounded to 17 digits
    tie = np.abs(np.abs(move - lo) - 0.5) <= _MARGIN
    taken = np.zeros(v.size, bool)
    for step in (100, 10):  # p rounded to 15 and 16 digits
        below = (high - high // step * step).astype(np.float64)
        candidate = np.rint((below + lo) / step) * step - below
        gap = np.abs(candidate - lo)
        fits = (gap < half_ulp) & ~taken
        declined |= ~taken & ((np.abs(gap - half_ulp) <= _MARGIN)
                              | ((np.abs(gap - step / 2) <= _MARGIN) & fits))
        move = np.where(fits, candidate, move)
        taken |= fits
    declined |= tie & ~taken
    digits = high + move.astype(np.int64)
    declined |= digits >= 10**17  # p rounded up to 1e17: declined, not renormalised
    digits[declined] = 10**16  # json.dumps spells these
    return digits, exponent, declined


def _format_rows(X: np.ndarray) -> np.ndarray:
    """The bytes of X's rows as json.dumps spells them, each row closed by "], [".

    The digits come from _shortest_digits and are laid out as described
    above; zeros are spelled "0.0" and "-0.0" from the layout too, and the
    cells _shortest_digits declines get json.dumps's spelling, made in one
    call for the block.
    """
    lead_words, group_words, group_zeros, masks = _format_tables()
    v = X.ravel()
    digits, exponent, declined = _shortest_digits(v)
    zero = v == 0
    declined &= ~zero
    upper = digits // 10**8
    lower = digits - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    groups = [upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4]
    trailing = group_zeros[groups[3]]
    run = groups[3] == 0
    for g in groups[2::-1]:
        trailing += run * group_zeros[g]
        run &= g == 0
    count = (17 - trailing) * ~zero
    exponent[zero] = -2  # "0." and one zero
    d = X.shape[1]
    key = ((((v.view(np.int64) < 0) * len(_EXPONENTS) + exponent + 4) * _DIGITS + count) * 2
           + (np.arange(v.size) % d == d - 1))
    words = np.empty((v.size, _WIDTH // 8), np.uint64)
    words[:, 0] = lead_words[lead]
    for column, g in enumerate(groups, 1):
        words[:, column] = group_words[g]
    words[:, 5] = np.frombuffer(b"], [    ", np.uint64)
    if declined.any():
        cells = np.flatnonzero(declined)
        texts = json.dumps(v[cells].tolist())[1:-1].split(", ")
        lengths = np.fromiter(map(len, texts), np.int64, len(texts))
        padded = np.zeros((cells.size, _TEXT_WIDTH), np.uint8)
        padded[np.arange(_TEXT_WIDTH) < lengths[:, None]] = np.frombuffer(
            "".join(texts).encode("ascii"), np.uint8)
        words[cells, : _TEXT_WIDTH // 8] = padded.view(np.uint64)
        key[cells] = _TEXT_KEY + (lengths - 1) * 2 + key[cells] % 2
    return np.compress(masks[key].view(bool).ravel(), words.view(np.uint8).ravel())


def _predict_blocks(request_id: int, X: np.ndarray) -> list:
    """The bytes of the predict line for X, in blocks of about _FORMAT_CELLS cells.

    The line is json.dumps({"type": "predict", "id": request_id, "inputs":
    X.tolist()}) and a newline.  The blocks keep the formatter's temporaries
    small; they are not joined, but together they hold the whole line.
    Every block of a line is spelled one way.  When fewer than half the cells of
    X are distinct, each distinct value is formatted once by json.dumps and
    gathered; values are told apart by their bits, which keeps -0.0 apart
    from 0.0.  Otherwise _format_rows spells the block.  One cell per row,
    cycling the columns, decides before the whole batch is counted, which
    spares a mostly distinct batch a sort of every cell.  KernelSHAP's
    composites of x and n_bg background rows hold at most d * (n_bg + 1)
    distinct values, so a batch of more than about 2d coalitions reads as
    repeated at any background size; a limase cloud reads as distinct
    unless more than half its columns are constant, and then the repeated
    spelling suits it.
    """
    if X.size == 0:  # no rows, or rows of no columns
        return [json.dumps({"type": "predict", "id": request_id, "inputs": X.tolist()}).encode()
                + b"\n"]
    n, d = X.shape
    bits = X.view(np.int64)
    texts = None
    if 2 * np.unique(bits[np.arange(n), np.arange(n) % d]).size < n:
        distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
        if 2 * distinct.size < X.size:
            # json's own spelling of each value (NaN, Infinity, 1e+16); none contains ", "
            texts = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "),
                             dtype=object)
    blocks = [b'{"type": "predict", "id": %d, "inputs": [[' % request_id]
    step = max(1, _FORMAT_CELLS // d)
    for start in range(0, n, step):  # each row closed by "], [", the last by "]"
        if texts is None:
            blocks.append(_format_rows(X[start : start + step]))
        else:
            spelled = texts[inverse[start * d : (start + step) * d]].reshape(-1, d)
            blocks.append(("], [".join(map(", ".join, spelled.tolist())) + "], [").encode())
    blocks[-1] = blocks[-1][:-3]
    blocks.append(b"]}\n")
    return blocks


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
                encoding="utf-8",  # JSON's own encoding (RFC 8259), whatever the locale
            )
        except OSError as e:
            raise ProtocolError(f"failed to spawn external model {command!r}: {e}") from e
        os.set_blocking(self._proc.stdin.fileno(), False)  # _write bounds each write
        self._poll = select.poll()  # when the child's stdin can take more
        self._poll.register(self._proc.stdin, select.POLLOUT)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    # -- reader thread -------------------------------------------------

    def _read_loop(self) -> None:
        try:
            for line in self._proc.stdout:
                if not self._take(line.rstrip("\n")):
                    return
        except UnicodeDecodeError as e:
            self._fail(f"reply from external model is not UTF-8: {_excerpt(e.object)}")
            return
        self._fail("external model closed its output stream")

    def _take(self, line: str) -> bool:
        """Act on one reply line; False when it failed the model."""
        if not line.strip():
            return True
        try:
            msg = json.loads(line)
        except Exception as e:  # a RecursionError too: any reply the reader cannot decode
            self._fail(f"malformed JSON from external model ({type(e).__name__}): "
                       f"{_excerpt(line)}")
            return False
        if not isinstance(msg, dict) or "type" not in msg:
            self._fail(f"message without a type from external model: {_excerpt(line)}")
            return False
        kind = msg["type"]
        if kind == "hello":
            with self._cond:
                self._hello = msg
                self._cond.notify_all()
        elif kind in ("result", "error"):
            if "id" not in msg:
                self._fail(f"{kind} message without id: {_excerpt(line)}")
                return False
            request_id = msg["id"]
            if type(request_id) is not int:  # not a bool, float or string either
                self._fail(f"{kind} message with a non-integer id: {_excerpt(line)}")
                return False
            with self._cond:
                issued = 0 <= request_id < self._next_id
                if request_id in self._abandoned:
                    self._abandoned.remove(request_id)
                elif issued:
                    self._results[request_id] = msg
                    self._cond.notify_all()
            if not issued:
                # nothing would pop it, and the request it was meant for would time out
                self._fail(f"{kind} message with an id never issued: {_excerpt(line)}")
                return False
        else:
            self._fail(f"unknown message type {kind!r} from external model")
            return False
        return True

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

    def _write(self, request_id: int, blocks: list) -> None:
        """Write the blocks to the child's non-blocking stdin, or fail the model if it stops reading.

        Each wait for the pipe to take more is bounded by the timeout on its
        own, so a request queued behind others may wait while the child
        works through them, yet a child that takes nothing for a whole
        timeout fails.  It may leave part of a line on the pipe, and no later
        request could be told from it, so the child is killed and nothing
        more is written to the failed model.  The blocks are all made before
        the first write: a write lets another client thread take the GIL,
        and formatting between writes would wait for it each time.
        """
        for data in blocks:
            while len(data):
                if self._fatal or not self._poll.poll(1000 * self.timeout):
                    self._fail(f"timed out writing prediction {request_id}: model stopped reading")
                    self._proc.kill()
                    raise ProtocolError(self._fatal)
                data = data[os.write(self._proc.stdin.fileno(), data) :]

    def predict(self, X: np.ndarray) -> ModelOutput:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} columns, got {X.shape[1]}")
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        blocks = _predict_blocks(request_id, X)
        try:
            with self._write_lock:
                self._write(request_id, blocks)
        except (ValueError, OSError) as e:  # a closed stdin, or a child that exited
            raise ProtocolError(f"external model is not accepting requests: {e}") from e
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
        proc.stdin.close()  # _write bypasses its buffer, so closing flushes nothing
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._reader.join(timeout=2.0)
        # a reader still in its loop would read a closed file
        if not self._reader.is_alive() and not proc.stdout.closed:
            proc.stdout.close()

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
    the hello; its d and k must be JSON integers.  The purity check sends
    one probe batch twice and requires bit-identical outputs; models that
    fail it cannot be explained here.
    """
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    kind = task if isinstance(task, str) else task.kind
    model = ExternalModel(argv, d, Task.regression(), timeout)  # the hello sets its task
    try:
        hello = model._wait_hello()
        declared_d, k = hello.get("d"), hello.get("k")
        if type(declared_d) is not int or declared_d != d:  # not a bool or float either
            raise ProtocolError(f"external model declares d={declared_d}, expected {d}")
        if hello.get("task") != kind:
            raise ProtocolError(
                f"external model declares task={hello.get('task')!r}, expected {kind!r}"
            )
        if type(k) is not int or k < 1:
            raise ProtocolError(f"external model declares invalid k={k!r}")
        if isinstance(task, Task) and k != task.n_outputs:
            raise ProtocolError(f"external model declares k={k}, expected {task.n_outputs}")
        if kind == "regression" and k != 1:
            raise ProtocolError(f"regression model must declare k=1, got {k}")
        if kind == "classification" and k < 2:
            raise ProtocolError(f"classification model must declare k >= 2, got {k}")
        model.task = Task.classification(k) if kind == "classification" else Task.regression()
        probe = RandomStream(_PROBE_SEED).normal_matrix(_PROBE_ROWS, d)
        first = model.predict(probe).values
        second = model.predict(probe).values
        if not np.array_equal(first, second):
            raise ProtocolError("external model is not pure: repeated probe batch differed")
    except BaseException:
        model.close()
        raise
    return model
