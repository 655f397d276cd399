"""Command-line front end: inspect, train, explain, global, sp, bench.

One parser takes the command and the full option set, in any order, so
one key=value config file can drive a whole workflow; explicit flags
override file values.
All artifacts land under --out with fixed names and embed the resolved
configuration.  Timing fields inside explain/global/sp artifacts are
normalized to null so reruns with the same seed are byte-identical;
real wall times go to stdout (and to bench.json, which is a timing
report by definition).  The rows of every explainer run through
pipeline.explain_rows, and the first failed row fails the command.
A float option that is NaN or infinite exits 2 whether or not the
command uses it, since every artifact echoes it and JSON has neither.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DataError,
    Dataset,
    LimaseError,
    RandomStream,
    child_seed,
    dataset_summary,
    load_csv,
)
from .external import attach_external
from .kernel import check_budget, kernel_shap
from .models import (
    ForestModel,
    TreeModel,
    fit_mlp,
    fit_random_forest,
    load_model,
    save_model,
    training_score,
)
from .pipeline import LimaseConfig, LimaseResult, explain_rows, limase_rows
from .shapley import ShapExplanation, forest_shap
from .sp import ExplanationMatrix, sp_explain
from .trees import TreeParams, fit_tree
from .viz import build_force_plot, build_summary_plot, render_svg

# Child-stream indices, one per independent random purpose.
_TRAIN_STREAM = 101
_MLP_STREAM = 102
_BACKGROUND_STREAM = 103
_PICK_STREAM = 104
_KERNEL_STREAM = 105

# Fixed bench budgets, so reported speedups are comparable across machines.
BENCH_KERNEL_BUDGET = 2048
BENCH_BACKGROUND_ROWS = 100
BENCH_BATCH = 100

_EXPLAINERS = ("limase", "treeshap", "kernelshap")
_MODEL_KINDS = ("tree", "forest", "mlp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limase",
        description="Local surrogate-tree Shapley explanations for black-box models.",
        epilog="commands:\n" + "\n".join(f"  {name:<9}{command.__doc__}"
                                          for name, command in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("command", choices=_COMMANDS)
    _add_options(parser)
    return parser


def _add_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="CSV file with a header row")
    p.add_argument("--target", default="target", help="target column name")
    p.add_argument("--task", default="regression",
                   choices=("classification", "regression"))
    p.add_argument("--model", default="forest",
                   help="tree | forest | mlp | external:<command> | path to model.json")
    p.add_argument("--explainer", default="limase", choices=_EXPLAINERS)
    p.add_argument("--sigma", type=float, default=None,
                   help="kernel width in standardized units (default: 5)")
    p.add_argument("--n-samples", dest="n_samples", type=int, default=1000,
                   help="perturbations per explained instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10, help="pick budget G for sp")
    p.add_argument("--class", dest="class_index", type=int, default=None,
                   help="class whose probability is explained (default: predicted)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--config", default=None, help="key=value file; flags override")
    p.add_argument("--instance", type=int, default=0, help="row to explain")
    p.add_argument("--count", type=int, default=100,
                   help="instances for global/sp sampling")
    p.add_argument("--kernel-budget", dest="kernel_budget", default="2048",
                   help="coalition samples for kernelshap, or 'exact'")
    p.add_argument("--background", type=int, default=100,
                   help="background rows for kernelshap")
    p.add_argument("--max-depth", dest="max_depth", type=int, default=6)
    p.add_argument("--min-samples-leaf", dest="min_samples_leaf", type=float, default=5.0)
    p.add_argument("--n-trees", dest="n_trees", type=int, default=50)
    p.add_argument("--hidden", default="16,16", help="MLP hidden widths, comma-separated")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.05)


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    """Parse a key=value file into typed values using the option table."""
    # only options that store a value: -h has option strings too, but a help key is no option
    actions = {action.dest: action for action in parser._actions
               if action.option_strings and isinstance(action, argparse._StoreAction)}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}") from e
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        if key not in actions:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        action = actions[key]
        try:
            values[key] = action.type(value) if action.type is not None else value
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
        if action.choices is not None and values[key] not in action.choices:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r} "
                              f"(choose from {', '.join(action.choices)})")
    return values


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # file values become defaults, so a flag on the command line beats them
        parser.set_defaults(**_load_config_file(args.config, parser))
        args = parser.parse_args(argv)
    for name in ("count", "background", "budget"):
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name} must be >= 1, got {getattr(args, name)}")
    for action in parser._actions:
        # the config echo of every artifact holds each value, and JSON has no NaN or infinity
        value = getattr(args, action.dest) if action.type is float else None
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{action.option_strings[0]} ({action.dest} in a config file) "
                              f"must be finite, got {value}")
    return args


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require_data(args) -> Dataset:
    if not args.data:
        raise ConfigError("--data is required")
    return load_csv(args.data, args.target, args.task)


def _tree_params(args) -> TreeParams:
    return TreeParams(max_depth=args.max_depth, min_samples_leaf=args.min_samples_leaf)


def _limase_config(args) -> LimaseConfig:
    return LimaseConfig(
        n_samples=args.n_samples,
        sigma=args.sigma if args.sigma is not None else LimaseConfig.sigma,
        tree_params=_tree_params(args),
        seed=args.seed,
        class_index=args.class_index,
    )


def _parse_kernel_budget(value: str) -> int | str:
    if value == "exact":
        return "exact"
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"--kernel-budget must be an integer or 'exact', got {value!r}") from None


def _train_model(kind: str, data: Dataset, args):
    params = _tree_params(args)
    if kind == "tree":
        if data.task.is_classification:
            raise ConfigError("model 'tree' supports regression only; use 'forest'")
        weights = np.ones(data.n)
        return TreeModel(fit_tree(data.rows, data.target, weights, params))
    if kind == "forest":
        rng = RandomStream(child_seed(args.seed, _TRAIN_STREAM))
        return fit_random_forest(data, args.n_trees, params, rng)
    # kind is "mlp": both callers check it against _MODEL_KINDS
    try:
        hidden = [int(h) for h in str(args.hidden).split(",") if h.strip()]
    except ValueError:
        raise ConfigError(f"--hidden must be comma-separated integers, "
                          f"got {args.hidden!r}") from None
    rng = RandomStream(child_seed(args.seed, _MLP_STREAM))
    return fit_mlp(data, hidden, args.epochs, args.learning_rate, rng)


def _resolve_model(args, data: Dataset):
    spec = args.model
    if spec.startswith("external:"):
        return attach_external(spec[len("external:"):], data.d, data.task)
    if spec in _MODEL_KINDS:
        return _train_model(spec, data, args)
    path = Path(spec)
    if path.exists():
        model = load_model(path)
        if model.d != data.d:
            raise DataError(f"model expects {model.d} features, dataset has {data.d}")
        if model.task.kind != data.task.kind:
            raise DataError(f"model task {model.task.kind!r} != dataset task {data.task.kind!r}")
        return model
    raise ConfigError(f"unknown model spec {spec!r} (not a kind, external:, or existing file)")


def _background_rows(args, data: Dataset) -> np.ndarray:
    rng = RandomStream(child_seed(args.seed, _BACKGROUND_STREAM))
    count = min(args.background, data.n)
    picked = np.sort(rng.choice(data.n, size=count, replace=False))
    return data.rows[picked]


def _sample_indices(args, data: Dataset, count: int) -> list[int]:
    rng = RandomStream(child_seed(args.seed, _PICK_STREAM))
    return [int(i) for i in np.sort(rng.choice(data.n, size=count, replace=False))]


def _out_dir(args) -> Path:
    """args.out, checked before any model is built; writing an artifact makes the directory."""
    out = Path(args.out)
    file = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if file is not None:
        raise ConfigError(f"--out {args.out} cannot be a directory: {file} is a file")
    return out


def _explainer(args, data: Dataset):
    """Check args.explainer's options against data; return explain(model, indices).

    Called before the model is trained or attached, so a usage error
    costs no model; a model file is checked once it loads, when explain
    runs.  explain runs the dataset rows at indices through explain_rows,
    the i-th row with child seed i: limase gives LimaseResults, treeshap
    and kernelshap ShapExplanations.  treeshap rows of a tree or forest
    read the leaf boxes the model built with itself.  The first failed
    row fails the call with a LimaseError naming its dataset row.
    """
    if args.explainer == "limase":
        config = _limase_config(args)

        def bind(model):
            return limase_rows(model, data.features, config)
    elif args.explainer == "treeshap":
        needs_tree = "--explainer treeshap requires a tree or forest model"
        if args.model == "mlp" or args.model.startswith("external:"):
            raise ConfigError(needs_tree)

        def bind(model):
            if not isinstance(model, (TreeModel, ForestModel)):
                raise ConfigError(needs_tree)
            return lambda i, row: forest_shap(model, row, args.class_index)
    else:
        budget = check_budget(_parse_kernel_budget(args.kernel_budget), data.d)
        background = _background_rows(args, data)
        seed = child_seed(args.seed, _KERNEL_STREAM)

        def bind(model):
            return lambda i, row: kernel_shap(model, row, background, budget,
                                              RandomStream(child_seed(seed, i)),
                                              args.class_index)

    def explain(model, indices: list[int]) -> list[LimaseResult | ShapExplanation]:
        return explain_rows(model, data.rows[indices], bind(model), indices)

    return explain


def _shap(result: LimaseResult | ShapExplanation) -> ShapExplanation:
    return result.explanation if isinstance(result, LimaseResult) else result


def cmd_inspect(args) -> int:
    """print a dataset summary"""
    data = _require_data(args)
    payload = dataset_summary(data)
    payload["config"] = vars(args)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    """fit a model and write model.json"""
    data = _require_data(args)
    if args.model not in _MODEL_KINDS:
        raise ConfigError(f"train expects --model in {_MODEL_KINDS}, got {args.model!r}")
    out = _out_dir(args)
    model = _train_model(args.model, data, args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "model.json"
    save_model(model, path, data.feature_names)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["config"] = vars(args)
    _write_json(path, payload)
    score = training_score(model, data)
    metric = "accuracy" if data.task.is_classification else "r2"
    print(f"trained {args.model} on {data.n} rows: train {metric} {score:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_explain(args) -> int:
    """explain one instance (explanation.json + force.svg)"""
    data = _require_data(args)
    data.task.check_class_index(args.class_index)
    if not 0 <= args.instance < data.n:
        raise ConfigError(f"--instance {args.instance} out of range for {data.n} rows")
    explain = _explainer(args, data)
    out = _out_dir(args)
    with _resolve_model(args, data) as model:
        started = time.perf_counter()
        [result] = explain(model, [args.instance])
        elapsed = time.perf_counter() - started
    record = result.to_json_dict(data.feature_names)
    record["instance_index"] = args.instance
    record["config"] = vars(args)
    record["elapsed_ms"] = None
    _write_json(out / "explanation.json", record)
    force = build_force_plot(_shap(result), data.features)
    render_svg(force, out / "force.svg")
    print(f"explained instance {args.instance} with {args.explainer} "
          f"in {elapsed * 1000:.1f} ms")
    print(f"wrote {out / 'explanation.json'} and {out / 'force.svg'}")
    return 0


def cmd_global(args) -> int:
    """explain many instances (matrix.json + summary.svg)"""
    data = _require_data(args)
    data.task.check_class_index(args.class_index)
    if args.count > data.n:
        raise DataError(f"--count {args.count} exceeds the {data.n} dataset rows")
    indices = _sample_indices(args, data, args.count)
    explain = _explainer(args, data)
    out = _out_dir(args)
    with _resolve_model(args, data) as model:
        started = time.perf_counter()
        explanations = [_shap(r) for r in explain(model, indices)]
    elapsed = time.perf_counter() - started
    matrix = ExplanationMatrix(S=np.vstack([e.phi for e in explanations]), indices=indices)
    payload = {
        "explainer": args.explainer,
        "indices": indices,
        "feature_names": data.feature_names,
        "phi": [[float(v) for v in row] for row in matrix.S],
        "base_values": [float(e.base_value) for e in explanations],
        "fx": [float(e.fx) for e in explanations],
        "config": vars(args),
        "elapsed_ms": None,
    }
    _write_json(out / "matrix.json", payload)
    summary = build_summary_plot(matrix, data.rows[indices], data.features)
    render_svg(summary, out / "summary.svg")
    print(f"explained {args.count} instances with {args.explainer} in {elapsed:.2f} s")
    print(f"wrote {out / 'matrix.json'} and {out / 'summary.svg'}")
    return 0


def cmd_sp(args) -> int:
    """pick representative instances (sp.json + summary.svg)"""
    if args.explainer != "limase":
        raise ConfigError(f"sp explains with limase only, got --explainer {args.explainer}")
    data = _require_data(args)
    data.task.check_class_index(args.class_index)
    count = min(args.count, data.n)
    indices = _sample_indices(args, data, count)
    config = _limase_config(args)
    out = _out_dir(args)
    with _resolve_model(args, data) as model:
        started = time.perf_counter()
        pick, matrix, _ = sp_explain(model, data, indices, config, args.budget)
    elapsed = time.perf_counter() - started
    picked_rows = [indices[p] for p in pick.selected]
    payload = pick.to_json_dict()
    payload["sample_indices"] = indices
    payload["selected_dataset_rows"] = picked_rows
    payload["config"] = vars(args)
    payload["elapsed_ms"] = None
    _write_json(out / "sp.json", payload)
    picked_matrix = ExplanationMatrix(S=matrix.S[pick.selected], indices=picked_rows)
    summary = build_summary_plot(picked_matrix, data.rows[picked_rows], data.features)
    render_svg(summary, out / "summary.svg")
    print(f"picked {len(pick.selected)} of {count} instances in {elapsed:.2f} s; "
          f"final coverage {pick.coverage_history[-1]:.4f}")
    print(f"wrote {out / 'sp.json'} and {out / 'summary.svg'}")
    return 0


def cmd_bench(args) -> int:
    """time the surrogate pipeline against the kernel baseline"""
    data = _require_data(args)
    data.task.check_class_index(args.class_index)
    if data.n < BENCH_BATCH:
        raise DataError(f"bench needs at least {BENCH_BATCH} rows, got {data.n}")
    indices = _sample_indices(args, data, BENCH_BATCH)
    limase_args = argparse.Namespace(**{**vars(args), "explainer": "limase"})
    kernel_args = argparse.Namespace(**{**vars(args), "explainer": "kernelshap",
                                        "kernel_budget": str(BENCH_KERNEL_BUDGET),
                                        "background": BENCH_BACKGROUND_ROWS})
    if args.model in ("tree", "forest"):
        raise ConfigError("bench compares against a non-tree black box; use mlp or external:")
    explain_limase = _explainer(limase_args, data)
    explain_kernel = _explainer(kernel_args, data)

    def timed(explain, rows: list[int]) -> float:
        started = time.perf_counter()
        explain(model, rows)
        return time.perf_counter() - started

    out = _out_dir(args)
    with _resolve_model(args, data) as model:
        if isinstance(model, (TreeModel, ForestModel)):
            raise ConfigError("bench compares against a non-tree black box; use mlp or external:")
        limase_single = timed(explain_limase, indices[:1])
        limase_batch = timed(explain_limase, indices)
        kernel_single = timed(explain_kernel, indices[:1])
        kernel_batch = timed(explain_kernel, indices)

    payload = {
        "n_rows": data.n,
        "d": data.d,
        "batch_size": BENCH_BATCH,
        "n_samples": args.n_samples,
        "kernel_budget": BENCH_KERNEL_BUDGET,
        "kernel_background": BENCH_BACKGROUND_ROWS,
        "limase_single_s": limase_single,
        "limase_batch_s": limase_batch,
        "kernel_single_s": kernel_single,
        "kernel_batch_s": kernel_batch,
        "speedup_single": kernel_single / limase_single,
        "speedup_batch": kernel_batch / limase_batch,
        "config": vars(args),
    }
    _write_json(out / "bench.json", payload)
    print(f"limase:  1 instance {limase_single:.3f} s, "
          f"{BENCH_BATCH} instances {limase_batch:.3f} s (N={args.n_samples})")
    print(f"kernel:  1 instance {kernel_single:.3f} s, "
          f"{BENCH_BATCH} instances {kernel_batch:.3f} s "
          f"(budget={BENCH_KERNEL_BUDGET}, background={BENCH_BACKGROUND_ROWS})")
    print(f"speedup: {payload['speedup_single']:.1f}x single, "
          f"{payload['speedup_batch']:.1f}x batch")
    print(f"wrote {out / 'bench.json'}")
    return 0


_COMMANDS = {
    "inspect": cmd_inspect,
    "train": cmd_train,
    "explain": cmd_explain,
    "global": cmd_global,
    "sp": cmd_sp,
    "bench": cmd_bench,
}


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so no flush fails again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout was closed (`limase inspect ... | head`); the artifacts are
        # already written, so end quietly with the shell's code for SIGPIPE
        _discard_stdout()
        return 141
    except (ConfigError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LimaseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - last-resort guard
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
