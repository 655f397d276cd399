"""Outside-in span tracing of the limase layers.

The tracer never edits the package. It replaces each public function
listed in LAYERS with a wrapper under every name a limase module binds it
to (``limase.pipeline.fit_tree``, ``limase.models.predict_batch``, the
package re-exports, ...), and puts the originals back on uninstall. A
name that no longer exists is recorded as an absent layer instead of
failing, so the benchmark keeps running across refactors.

Each call becomes one span: name, start, end, parent span, row id, and
an optional record computed from the call's arguments or return value.
Spans stay in memory until the run ends. A span whose thread has no open
span of its own takes the main thread's innermost open span as parent:
the only fan-out in the program is a thread pool that the main thread
waits on from inside the call that created it.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path

# (span name, module, attribute); "Class.method" wraps a method on the class.
LAYERS = [
    ("cli.main", "limase.cli", "main"),
    ("core.load_csv", "limase.core", "load_csv"),
    ("external.attach_external", "limase.external", "attach_external"),
    ("external.round_trip", "limase.external", "ExternalModel.predict"),
    ("sp.sp_explain", "limase.sp", "sp_explain"),
    ("sp.submodular_pick", "limase.sp", "submodular_pick"),
    ("viz.build_summary_plot", "limase.viz", "build_summary_plot"),
    ("viz.render_svg", "limase.viz", "render_svg"),
    ("pipeline.limase_explain_batch", "limase.pipeline", "limase_explain_batch"),
    ("pipeline.limase_explain", "limase.pipeline", "limase_explain"),
    ("pipeline.sample_around", "limase.pipeline", "sample_around"),
    ("pipeline.kernel_weights", "limase.pipeline", "kernel_weights"),
    ("trees.fit_tree", "limase.trees", "fit_tree"),
    ("trees.predict_batch", "limase.trees", "predict_batch"),
    ("shapley.tree_shap", "limase.shapley", "tree_shap"),
    ("shapley.forest_shap", "limase.shapley", "forest_shap"),
    ("kernel.kernel_shap", "limase.kernel", "kernel_shap"),
    ("models.predict", "limase.models", "MlpModel.predict"),
    ("models.predict", "limase.models", "ForestModel.predict"),
    ("models.predict", "limase.models", "TreeModel.predict"),
]

# A call to one of these outside any row starts a new explained row.
ROW_ROOTS = {"pipeline.limase_explain", "kernel.kernel_shap",
             "shapley.forest_shap", "shapley.tree_shap"}


def _batch_rows(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs.get("X")
    return {"rows": int(getattr(X, "shape", (len(X),))[0])}


def _tree_shape(args, kwargs, result):
    depth = getattr(result, "depth", None)
    return {"leaves": getattr(result, "n_leaves", None),
            "depth": depth() if callable(depth) else depth}


def _effective_sample_size(args, kwargs, result):
    total = float(result.sum())
    return {"ess": total * total / float((result * result).sum())}


# Records taken from a call after its span has ended, so their cost is
# tracing overhead and never part of a span's duration.
RECORDS = {
    "models.predict": _batch_rows,
    "external.round_trip": _batch_rows,
    "trees.fit_tree": _tree_shape,
    "pipeline.kernel_weights": _effective_sample_size,
}

# Span fields: name, start, end, parent, row, thread, record.
NAME, START, END, PARENT, ROW, THREAD, RECORD = range(7)


class Tracer:
    """Installs span wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._rows = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "limase" or name.startswith("limase.")]
        for span_name, module_name, attr in LAYERS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    self._patch(owner, method, self._wrap(span_name, original))
                    continue
                original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{span_name} ({module_name}.{attr})")
                continue
            wrapper = self._wrap(span_name, original)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, bound, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the enclosed calls with the originals in place."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        record = RECORDS.get(name)
        row_root = name in ROW_ROOTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name, row_root)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                with self._lock:
                    stack.pop()
            if record is not None:
                span[RECORD] = record(args, kwargs, result)
            return result

        return traced

    def _open(self, name: str, row_root: bool):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if tid != self._main and main else None
            row = self.spans[parent][ROW] if parent is not None else None
            if row is None and row_root:
                self._rows += 1
                row = self._rows
            span = [name, 0.0, 0.0, parent, row, tid, None]
            stack.append(len(self.spans))
            self.spans.append(span)
        span[START] = time.perf_counter()
        return span, stack

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - origin,
                    "end": s[END] - origin, "parent": s[PARENT], "row": s[ROW],
                    "thread": s[THREAD], "record": s[RECORD],
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


class Summary:
    """Per-layer totals grouped by the kind of row each span belongs to."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.row_kind = {s[ROW]: s[NAME] for s in spans
                         if s[ROW] is not None and s[NAME] in ROW_ROOTS
                         and (s[PARENT] is None or spans[s[PARENT]][ROW] != s[ROW])}

    def rows(self, kind: str) -> int:
        return sum(1 for k in self.row_kind.values() if k == kind)

    def select(self, name: str, kind: str | None = None) -> list[int]:
        """Indices of spans called `name`; with kind, only inside such rows."""
        return [i for i, s in enumerate(self.spans) if s[NAME] == name
                and (kind is None or self.row_kind.get(s[ROW]) == kind)]

    def per_row_ms(self, name: str, kind: str, *, own: bool = False) -> float:
        """Milliseconds in `name` spans per row of `kind` (self time if own)."""
        n = self.rows(kind)
        if not n:
            return 0.0
        return 1000.0 * self._total(self.select(name, kind), own) / n

    def per_call_ms(self, name: str, *, own: bool = False) -> float:
        picked = self.select(name)
        return 1000.0 * self._total(picked, own) / len(picked) if picked else 0.0

    def total_ms(self, name: str) -> float:
        return 1000.0 * self._total(self.select(name), False)

    def calls_per_row(self, name: str, kind: str) -> float:
        n = self.rows(kind)
        return len(self.select(name, kind)) / n if n else 0.0

    def record_values(self, name: str, field: str, kind: str | None = None) -> list[float]:
        return [self.spans[i][RECORD][field] for i in self.select(name, kind)
                if self.spans[i][RECORD] and self.spans[i][RECORD].get(field) is not None]

    def _total(self, picked: list[int], own: bool) -> float:
        if own:
            return sum(self.self_s[i] for i in picked)
        return sum(self.spans[i][END] - self.spans[i][START] for i in picked)

    def breakdown(self, kind: str) -> list[tuple[str, float, float]]:
        """(layer, self ms per row, share of row time) inside rows of kind."""
        n = self.rows(kind)
        if not n:
            return []
        by_name: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if self.row_kind.get(s[ROW]) == kind:
                by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + self.self_s[i]
        total = sum(by_name.values())
        return sorted(((k, 1000.0 * v / n, v / total) for k, v in by_name.items()),
                      key=lambda t: -t[1])


LIMASE = "pipeline.limase_explain"
KERNEL = "kernel.kernel_shap"
FOREST = "shapley.forest_shap"


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Summary) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); 0 where a layer is unused.

    Times are milliseconds per explained row of the kind the layer serves
    (limase rows unless named otherwise) or per call for the command-level
    layers, which run once per CLI command.
    """
    s = summary
    limase_rows = s.rows(LIMASE)
    predict_rows = sum(s.record_values("models.predict", "rows", LIMASE))
    external_calls = s.select("external.round_trip", LIMASE)
    external_rows = sum(s.record_values("external.round_trip", "rows", LIMASE))
    kernel_rows = sum(s.record_values("models.predict", "rows", KERNEL)
                      + s.record_values("external.round_trip", "rows", KERNEL))
    viz_ms = s.total_ms("viz.build_summary_plot") + s.total_ms("viz.render_svg")
    commands = len(s.select("cli.main"))
    ess = s.record_values("pipeline.kernel_weights", "ess", LIMASE)
    return {
        "pipeline.explain_ms": (s.per_row_ms(LIMASE, LIMASE), "ms"),
        "pipeline.explain_self_ms": (s.per_row_ms(LIMASE, LIMASE, own=True), "ms"),
        "pipeline.sample_ms": (s.per_row_ms("pipeline.sample_around", LIMASE), "ms"),
        "pipeline.weights_ms": (s.per_row_ms("pipeline.kernel_weights", LIMASE), "ms"),
        "pipeline.weights_ess": (statistics.median(ess) if ess else 0.0, "count"),
        "trees.fit_ms": (s.per_row_ms("trees.fit_tree", LIMASE, own=True), "ms"),
        "trees.fit_calls": (s.calls_per_row("trees.fit_tree", LIMASE), "calls/row"),
        "trees.surrogate_leaves": (_mean(s.record_values("trees.fit_tree", "leaves", LIMASE)),
                                   "count"),
        "trees.surrogate_depth": (_mean(s.record_values("trees.fit_tree", "depth", LIMASE)),
                                  "count"),
        "trees.predict_batch_ms": (s.per_row_ms("trees.predict_batch", LIMASE), "ms"),
        "models.predict_ms": (s.per_row_ms("models.predict", LIMASE), "ms"),
        "models.predict_calls_per_row": (s.calls_per_row("models.predict", LIMASE),
                                         "calls/row"),
        "models.predict_rows_per_row": (_ratio(predict_rows, limase_rows), "rows/row"),
        "shapley.tree_shap_ms": (s.per_row_ms("shapley.tree_shap", LIMASE), "ms"),
        "shapley.forest_shap_ms": (s.per_row_ms(FOREST, FOREST), "ms"),
        "kernel.kernel_shap_ms": (s.per_row_ms(KERNEL, KERNEL), "ms"),
        "kernel.model_rows_per_row": (_ratio(kernel_rows, s.rows(KERNEL)), "rows/row"),
        "external.attach_ms": (s.per_call_ms("external.attach_external"), "ms"),
        "external.round_trip_ms": (s.per_row_ms("external.round_trip", LIMASE), "ms"),
        "external.calls": (_ratio(len(external_calls), limase_rows), "calls/row"),
        "external.rows_per_call": (_ratio(external_rows, len(external_calls)), "rows/call"),
        "core.load_csv_ms": (s.per_call_ms("core.load_csv"), "ms"),
        "sp.pick_ms": (s.per_call_ms("sp.submodular_pick"), "ms"),
        "viz.render_ms": (_ratio(viz_ms, commands), "ms"),
        "cli.command_ms": (s.per_call_ms("cli.main"), "ms"),
        "cli.self_ms": (s.per_call_ms("cli.main", own=True), "ms"),
    }
