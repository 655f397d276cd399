"""Command-line workflows end to end, in process."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import limase.cli
import limase.models
import limase.shapley
from limase.cli import main
from limase.core import (
    DataError,
    Dataset,
    RandomStream,
    Task,
    compute_feature_meta,
    load_csv,
    write_csv,
)
from limase.external import ExternalModel

from conftest import make_classification_dataset, make_regression_dataset

FIXTURES = Path(__file__).parent / "fixtures"

# model.json's form of a one-leaf tree over 3 features
LEAF_TREE_D3 = {"d": 3, "root": 0,
                "params": {"max_depth": 1, "min_samples_leaf": 1.0},
                "nodes": [{"feature": -1, "threshold": None, "left": -1, "right": -1,
                           "cover": 1.0, "value": 0.0}]}


@pytest.fixture(scope="module")
def reg_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "reg.csv"
    write_csv(make_regression_dataset(60, 150, 4), path, target_column="y")
    return str(path)


@pytest.fixture(scope="module")
def cls_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cls.csv"
    write_csv(make_classification_dataset(61, 200, 4, 3), path, target_column="label")
    return str(path)


@pytest.fixture(scope="module")
def step_csv(tmp_path_factory):
    # noiseless target representable by a depth-2 tree
    rng = RandomStream(62)
    X = rng.normal_matrix(200, 2)
    y = 1.0 * (X[:, 0] > 0) + 2.0 * (X[:, 1] > 0)
    data = Dataset(compute_feature_meta(X, ["a", "b"]), X, y, Task.regression())
    path = tmp_path_factory.mktemp("data") / "step.csv"
    write_csv(data, path, target_column="y")
    return str(path)


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestParser:
    def test_options_before_command(self, reg_csv, tmp_path):
        flags = ("--data", reg_csv, "--target", "y", "--model", "tree", "--n-samples", 50)
        out = tmp_path / "out"
        assert run("explain", *flags, "--out", out) == 0
        after = (out / "explanation.json").read_bytes()
        assert run(*flags, "explain", "--out", out) == 0
        assert (out / "explanation.json").read_bytes() == after

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["-h"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        for name, help_text in (
            ("inspect", "print a dataset summary"),
            ("train", "fit a model and write model.json"),
            ("explain", "explain one instance (explanation.json + force.svg)"),
            ("global", "explain many instances (matrix.json + summary.svg)"),
            ("sp", "pick representative instances (sp.json + summary.svg)"),
            ("bench", "time the surrogate pipeline against the kernel baseline"),
        ):
            assert re.search(rf"^ +{name} +{re.escape(help_text)}$", out, re.M), name

    def test_closed_stdout_ends_quietly(self, reg_csv):
        # 141 = 128 + SIGPIPE, what a shell shows for a tool stopped by a closed pipe
        src = str(Path(limase.cli.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "limase.cli", "inspect", "--data", reg_csv, "--target", "y"],
                stdout=write_end, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestInspect:
    def test_summary_printed(self, reg_csv, capsys):
        assert run("inspect", "--data", reg_csv, "--target", "y") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_rows"] == 150
        assert payload["n_features"] == 4
        assert "config" in payload

    def test_missing_data_flag(self, capsys):
        assert run("inspect") == 2
        assert "--data" in capsys.readouterr().err


class TestTrain:
    def test_forest_classification_accuracy(self, cls_csv, tmp_path, capsys):
        code = run("train", "--data", cls_csv, "--target", "label",
                   "--task", "classification", "--model", "forest",
                   "--n-trees", 30, "--out", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        accuracy = float(out.split("train accuracy")[1].split()[0])
        assert accuracy >= 0.9
        payload = json.loads((tmp_path / "model.json").read_text())
        assert payload["kind"] == "forest"
        assert payload["config"]["seed"] == 0

    def test_regression_tree_r2(self, step_csv, tmp_path, capsys):
        code = run("train", "--data", step_csv, "--target", "y",
                   "--model", "tree", "--min-samples-leaf", 1, "--out", tmp_path)
        assert code == 0
        r2 = float(capsys.readouterr().out.split("train r2")[1].split()[0])
        assert r2 >= 0.99

    def test_mlp_trains(self, cls_csv, tmp_path):
        code = run("train", "--data", cls_csv, "--target", "label",
                   "--task", "classification", "--model", "mlp",
                   "--epochs", 5, "--out", tmp_path)
        assert code == 0
        assert json.loads((tmp_path / "model.json").read_text())["kind"] == "mlp"

    def test_invalid_target_column_named(self, reg_csv, capsys):
        assert run("train", "--data", reg_csv, "--target", "nope") == 2
        assert "nope" in capsys.readouterr().err

    def test_tree_on_classification_rejected(self, cls_csv, capsys):
        code = run("train", "--data", cls_csv, "--target", "label",
                   "--task", "classification", "--model", "tree")
        assert code == 2
        assert "forest" in capsys.readouterr().err


class TestExplain:
    def test_limase_artifacts(self, reg_csv, tmp_path):
        code = run("explain", "--data", reg_csv, "--target", "y",
                   "--n-samples", 100, "--out", tmp_path)
        assert code == 0
        record = json.loads((tmp_path / "explanation.json").read_text())
        assert record["explainer"] == "limase"
        assert record["elapsed_ms"] is None
        assert record["instance_index"] == 0
        assert record["config"]["n_samples"] == 100
        assert len(record["phi"]) == 4
        assert (tmp_path / "force.svg").exists()

    def test_negative_seed(self, reg_csv, tmp_path):
        # rows draw from child seeds, which are never negative
        code = run("explain", "--data", reg_csv, "--target", "y", "--model", "tree",
                   "--n-samples", 50, "--seed", -1, "--out", tmp_path)
        assert code == 0
        assert json.loads((tmp_path / "explanation.json").read_text())["config"]["seed"] == -1

    def test_treeshap_on_forest(self, reg_csv, tmp_path):
        code = run("explain", "--data", reg_csv, "--target", "y",
                   "--explainer", "treeshap", "--n-trees", 10, "--out", tmp_path)
        assert code == 0
        record = json.loads((tmp_path / "explanation.json").read_text())
        assert record["explainer"] == "treeshap"

    def test_kernelshap_exact(self, reg_csv, tmp_path):
        code = run("explain", "--data", reg_csv, "--target", "y", "--model", "mlp",
                   "--epochs", 3, "--explainer", "kernelshap",
                   "--kernel-budget", "exact", "--out", tmp_path)
        assert code == 0
        record = json.loads((tmp_path / "explanation.json").read_text())
        assert record["explainer"] == "kernelshap"
        gap = record["base_value"] + sum(record["phi"]) - record["fx"]
        assert abs(gap) <= 1e-6 * max(1.0, abs(record["fx"]))

    def test_kernelshap_sampled_on_70_columns(self, tmp_path):
        # more features than an int64 bitmask holds
        path = tmp_path / "wide.csv"
        write_csv(make_regression_dataset(63, 80, 70), path, target_column="y")
        code = run("explain", "--data", path, "--target", "y", "--n-trees", 5,
                   "--explainer", "kernelshap", "--out", tmp_path)
        assert code == 0
        record = json.loads((tmp_path / "explanation.json").read_text())
        assert len(record["phi"]) == 70 and all(np.isfinite(record["phi"]))
        gap = record["base_value"] + sum(record["phi"]) - record["fx"]
        assert abs(gap) <= 1e-6 * max(1.0, abs(record["fx"]))

    def test_treeshap_on_mlp_rejected(self, reg_csv, capsys):
        code = run("explain", "--data", reg_csv, "--target", "y", "--model", "mlp",
                   "--epochs", 2, "--explainer", "treeshap")
        assert code == 2
        assert "treeshap" in capsys.readouterr().err

    def test_instance_out_of_range(self, reg_csv, capsys):
        assert run("explain", "--data", reg_csv, "--target", "y",
                   "--instance", 999) == 2
        assert "999" in capsys.readouterr().err

    def test_class_flag_validated(self, cls_csv, reg_csv, capsys):
        code = run("explain", "--data", cls_csv, "--target", "label",
                   "--task", "classification", "--class", 7, "--n-samples", 50)
        assert code == 2
        assert run("explain", "--data", reg_csv, "--target", "y", "--class", 0) == 2

    def test_saved_model_path(self, reg_csv, tmp_path):
        train_dir = tmp_path / "train"
        assert run("train", "--data", reg_csv, "--target", "y",
                   "--n-trees", 10, "--out", train_dir) == 0
        code = run("explain", "--data", reg_csv, "--target", "y",
                   "--model", train_dir / "model.json", "--explainer", "treeshap",
                   "--out", tmp_path / "explain")
        assert code == 0

    def test_unknown_model_spec(self, reg_csv, capsys):
        assert run("explain", "--data", reg_csv, "--target", "y",
                   "--model", "nonexistent.json") == 2
        assert "model spec" in capsys.readouterr().err


class TestExternalModels:
    def test_explain_through_external_stump(self, tmp_path):
        rng = RandomStream(63)
        X = 1.5 + rng.normal_matrix(120, 1)
        y = np.where(X[:, 0] <= 1.5, 0.0, 4.0)
        data = Dataset(compute_feature_meta(X, ["x0"]), X, y, Task.regression())
        csv = tmp_path / "stump.csv"
        write_csv(data, csv, target_column="y")
        command = f"{sys.executable} {FIXTURES / 'server_stump.py'}"
        code = run("explain", "--data", csv, "--target", "y",
                   "--model", f"external:{command}", "--n-samples", 100,
                   "--out", tmp_path / "out")
        assert code == 0
        record = json.loads((tmp_path / "out" / "explanation.json").read_text())
        assert record["explainer"] == "limase"

    def test_protocol_violation_is_runtime_failure(self, tmp_path, capsys):
        rng = RandomStream(64)
        X = rng.normal_matrix(30, 2)
        data = Dataset(compute_feature_meta(X, ["a", "b"]), X, X[:, 0],
                       Task.regression())
        csv = tmp_path / "d2.csv"
        write_csv(data, csv, target_column="y")
        command = f"{sys.executable} {FIXTURES / 'server_malformed.py'}"
        code = run("explain", "--data", csv, "--target", "y",
                   "--model", f"external:{command}", "--out", tmp_path / "out")
        assert code == 1
        assert "malformed" in capsys.readouterr().err


class TestModelLifetime:
    """Each command closes the model it attached exactly once, whether it succeeds or not."""

    @pytest.fixture
    def lifetimes(self, monkeypatch):
        """The models the CLI attaches, and the model of each close() call.

        Holding the models keeps their __del__, which closes again, from running.
        """
        attached, closed = [], []
        real_attach, real_close = limase.cli.attach_external, ExternalModel.close

        def attach(*args, **kwargs):
            attached.append(real_attach(*args, **kwargs))
            return attached[-1]

        def close(model):
            closed.append(model)
            real_close(model)

        monkeypatch.setattr(limase.cli, "attach_external", attach)
        monkeypatch.setattr(ExternalModel, "close", close)
        return attached, closed

    @pytest.mark.parametrize("command", ["explain", "global", "sp", "bench"])
    @pytest.mark.parametrize("server, d, exit_code", [
        ("server_stump.py", 1, 0),
        ("server_small_batches.py", 2, 1),  # refuses every limase batch after the probe
    ])
    def test_closed_once(self, tmp_path, capsys, lifetimes, command, server, d, exit_code):
        X = 1.5 + RandomStream(67).normal_matrix(120, d)
        data = Dataset(compute_feature_meta(X, [f"x{j}" for j in range(d)]), X, X[:, 0],
                       Task.regression())
        csv = tmp_path / "data.csv"
        write_csv(data, csv, target_column="y")
        command_line = f"{sys.executable} {FIXTURES / server}"
        code = run(command, "--data", csv, "--target", "y",
                   "--model", f"external:{command_line}", "--n-samples", 20,
                   "--count", 3, "--budget", 2, "--out", tmp_path / "out")
        assert code == exit_code
        attached, closed = lifetimes
        [model] = attached
        assert [m for m in closed if m is model] == [model]
        assert model._proc.poll() is not None
        if exit_code:
            assert "at most 4 rows" in capsys.readouterr().err


class TestGlobal:
    def test_single_instance_matrix(self, reg_csv, tmp_path):
        code = run("global", "--data", reg_csv, "--target", "y",
                   "--count", 1, "--n-samples", 50, "--out", tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "matrix.json").read_text())
        assert len(payload["phi"]) == 1
        assert len(payload["indices"]) == 1
        assert (tmp_path / "summary.svg").exists()

    def test_count_exceeding_rows(self, reg_csv, capsys):
        assert run("global", "--data", reg_csv, "--target", "y",
                   "--count", 151) == 2
        assert "151" in capsys.readouterr().err

    def test_fixed_seed_rerun_identical(self, reg_csv, tmp_path):
        args = ("global", "--data", reg_csv, "--target", "y", "--count", 5,
                "--n-samples", 50, "--seed", 3, "--out", tmp_path)
        assert run(*args) == 0
        first = (tmp_path / "matrix.json").read_bytes()
        first_svg = (tmp_path / "summary.svg").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "matrix.json").read_bytes() == first
        assert (tmp_path / "summary.svg").read_bytes() == first_svg


    @pytest.mark.parametrize("explainer", ["kernelshap", "treeshap"])
    def test_failed_row_names_its_dataset_row(self, tmp_path, capsys, monkeypatch, explainer):
        X = RandomStream(66).normal_matrix(30, 2)
        data = Dataset(compute_feature_meta(X, ["a", "b"]), X, X[:, 0], Task.regression())
        csv = tmp_path / "d2.csv"
        write_csv(data, csv, target_column="y")
        indices = limase.cli._sample_indices(SimpleNamespace(seed=5), data, 3)
        if explainer == "kernelshap":
            # the server answers x and the 4 background rows, then refuses the coalitions
            model = f"external:{sys.executable} {FIXTURES / 'server_small_batches.py'}"
            failed, message = indices[0], "at most 4 rows"
        else:
            model, failed, message = "forest", indices[1], "second row refused"
            inner, calls = limase.cli.forest_shap, []

            def refusing(*args):
                calls.append(args)
                if len(calls) == 2:
                    raise DataError("second row refused")
                return inner(*args)

            monkeypatch.setattr(limase.cli, "forest_shap", refusing)
        code = run("global", "--data", csv, "--target", "y", "--model", model,
                   "--explainer", explainer, "--background", 4, "--count", 3,
                   "--seed", 5, "--out", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert f"explanation failed for dataset row {failed}: " in err
        assert message in err
        assert not (tmp_path / "out" / "matrix.json").exists()

    @pytest.mark.parametrize("task, model, flags", [
        ("classification", "forest", ()),  # the rows' predicted classes
        ("classification", "forest", ("--class", 1)),
        ("regression", "forest", ()),
        ("regression", "tree", ()),  # a one-tree regression forest
    ], ids=["predicted-classes", "class-index", "regression", "tree"])
    def test_forest_boxes_built_before_row_0(self, reg_csv, cls_csv, tmp_path, monkeypatch,
                                             task, model, flags):
        csv, target = (cls_csv, "label") if task == "classification" else (reg_csv, "y")
        assert run("train", "--data", csv, "--target", target, "--task", task,
                   "--model", model, "--n-trees", 8, "--out", tmp_path / "m") == 0
        boxes, runner, events = limase.shapley._leaf_boxes, limase.cli.explain_rows, []

        def building(stack, first, stop):
            events.append("boxes")
            return boxes(stack, first, stop)

        def refusing(*args):
            raise AssertionError("a row built leaf boxes")

        def running(*a):
            events.append("rows")
            monkeypatch.setattr(limase.models, "_leaf_boxes", refusing)
            monkeypatch.setattr(limase.shapley, "_leaf_boxes", refusing)
            return runner(*a)

        monkeypatch.setattr(limase.models, "_leaf_boxes", building)
        monkeypatch.setattr(limase.shapley, "_leaf_boxes", building)
        monkeypatch.setattr(limase.cli, "explain_rows", running)
        assert run("global", "--data", csv, "--target", target, "--task", task,
                   "--model", tmp_path / "m" / "model.json", "--explainer", "treeshap",
                   "--count", 12, "--seed", 4, "--out", tmp_path / "g", *flags) == 0
        # loading the model built every output's boxes; no row built any
        outputs = load_csv(csv, target, task).task.n_outputs
        assert events == ["boxes"] * outputs + ["rows"]
        payload = json.loads((tmp_path / "g" / "matrix.json").read_text())
        assert len(set(map(tuple, payload["phi"]))) > 1


class TestSp:
    def test_budget_one(self, reg_csv, tmp_path):
        code = run("sp", "--data", reg_csv, "--target", "y", "--count", 6,
                   "--budget", 1, "--n-samples", 50, "--out", tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "sp.json").read_text())
        assert len(payload["selected"]) == 1
        assert payload["budget"] == 1
        assert len(payload["selected_dataset_rows"]) == 1

    def test_budget_covers_all(self, reg_csv, tmp_path):
        code = run("sp", "--data", reg_csv, "--target", "y", "--count", 4,
                   "--budget", 10, "--n-samples", 50, "--out", tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "sp.json").read_text())
        assert sorted(payload["selected"]) == [0, 1, 2, 3]

    def test_fixed_seed_rerun_identical(self, reg_csv, tmp_path):
        args = ("sp", "--data", reg_csv, "--target", "y", "--count", 6,
                "--budget", 3, "--n-samples", 50, "--seed", 4, "--out", tmp_path)
        assert run(*args) == 0
        first = (tmp_path / "sp.json").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "sp.json").read_bytes() == first

    @pytest.mark.parametrize("explainer", ["kernelshap", "treeshap"])
    def test_other_explainers_rejected(self, reg_csv, tmp_path, capsys, explainer):
        # rejected before the model is resolved, so the bad model spec is never read
        code = run("sp", "--data", reg_csv, "--target", "y", "--explainer", explainer,
                   "--model", tmp_path / "missing.json", "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert f"--explainer {explainer}" in err
        assert "model spec" not in err
        assert not (tmp_path / "sp.json").exists()

    def test_model_failure_is_runtime_failure(self, tmp_path, capsys):
        # the server passes the 4-row purity probe, then refuses every limase batch
        X = RandomStream(66).normal_matrix(30, 2)
        data = Dataset(compute_feature_meta(X, ["a", "b"]), X, X[:, 0], Task.regression())
        csv = tmp_path / "d2.csv"
        write_csv(data, csv, target_column="y")
        command = f"{sys.executable} {FIXTURES / 'server_small_batches.py'}"
        for name in ("global", "sp"):
            code = run(name, "--data", csv, "--target", "y", "--model", f"external:{command}",
                       "--count", 3, "--n-samples", 50, "--out", tmp_path / name)
            assert code == 1, name
            assert "at most 4 rows" in capsys.readouterr().err
        assert not (tmp_path / "sp" / "sp.json").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("command, option, value", [
        ("sp", "--count", -1),
        ("sp", "--budget", 0),
        ("explain", "--background", -1),
        ("train", "--hidden", "a"),
    ])
    def test_rejected_before_any_model(self, reg_csv, tmp_path, capsys,
                                       command, option, value):
        code = run(command, "--data", reg_csv, "--target", "y", "--model", "mlp",
                   "--explainer", "limase" if command == "sp" else "kernelshap",
                   option, value, "--out", tmp_path / "out")
        assert code == 2
        assert option in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_data_file_named(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run("inspect", "--data", missing) == 2
        assert f"error: cannot read data file {missing}" in capsys.readouterr().err

    def test_non_utf8_data_file_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b,y\n1,2,3\n1,\xff,3\n")
        assert run("inspect", "--data", path, "--target", "y") == 2
        assert f"error: data file {path} is not UTF-8 text" in capsys.readouterr().err

    def test_missing_config_file_named(self, reg_csv, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert run("inspect", "--data", reg_csv, "--target", "y", "--config", missing) == 2
        assert f"error: cannot read config file {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, cause", [
        ("{not json", "JSONDecodeError"),
        ('{"kind": "forest", "task": {"kind": "regression", "n_classes": null}, "d": 4}',
         "KeyError: 'trees'"),
        (json.dumps({"kind": "forest", "task": {"kind": "regression", "n_classes": None},
                     "d": 4, "trees": [LEAF_TREE_D3]}),
         "forest tree 0 has d=3, the forest d=4"),
        ('{"kind": "forest", "task": {"kind": "regression", "n_classes": null}, "d": 4, '
         '"trees": []}', "a forest needs at least one tree"),
        # older files hold min_weight_fraction_leaf, and only 0.0 loads
        (json.dumps({"kind": "tree", "tree": {
            **LEAF_TREE_D3, "params": {"max_depth": 1, "min_samples_leaf": 1.0,
                                       "min_weight_fraction_leaf": 0.05}}}),
         "min_weight_fraction_leaf 0.05 is not supported"),
    ])
    def test_bad_model_file_named(self, reg_csv, tmp_path, capsys, text, cause):
        path = tmp_path / "model.json"
        path.write_text(text)
        code = run("explain", "--data", reg_csv, "--target", "y", "--model", path,
                   "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: cannot load model {path}: {cause}" in err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def no_model_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a model was trained or attached")

        monkeypatch.setattr(limase.cli, "_train_model", refuse)
        monkeypatch.setattr(limase.cli, "attach_external", refuse)

    @pytest.mark.parametrize("command, flags, message", [
        ("explain", ("--explainer", "kernelshap", "--kernel-budget", 5),
         "budget 5 too small; need at least 10"),
        ("global", ("--explainer", "kernelshap", "--kernel-budget", 5),
         "budget 5 too small; need at least 10"),
        ("explain", ("--explainer", "kernelshap", "--kernel-budget", "few"),
         "--kernel-budget must be an integer or 'exact'"),
        ("explain", ("--n-samples", 5), "n_samples must be >= 10"),
        ("global", ("--sigma", -1), "sigma must be positive and finite"),
        ("sp", ("--n-samples", 5), "n_samples must be >= 10"),
        ("explain", ("--explainer", "treeshap"), "requires a tree or forest model"),
        ("global", ("--explainer", "treeshap", "--model", "external:server"),
         "requires a tree or forest model"),
        ("explain", ("--explainer", "kernelshap", "--kernel-budget", 5,
                     "--model", "external:server"), "budget 5 too small"),
        ("bench", ("--model", "tree"), "non-tree black box"),
        ("bench", ("--model", "forest"), "non-tree black box"),
        ("bench", ("--n-samples", 5), "n_samples must be >= 10"),
    ], ids=["explain-kernel-budget", "global-kernel-budget", "kernel-budget-word",
            "n-samples", "sigma", "sp-n-samples", "treeshap-mlp", "treeshap-external",
            "external-kernel-budget", "bench-tree", "bench-forest", "bench-n-samples"])
    def test_explainer_options_rejected_before_any_model(
            self, reg_csv, tmp_path, capsys, no_model_built, command, flags, message):
        code = run(command, "--data", reg_csv, "--target", "y", "--model", "mlp", *flags,
                   "--out", tmp_path / "out")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "explain", "global", "sp", "bench"])
    @pytest.mark.parametrize("out", ["taken", "taken/out"], ids=["file", "under-file"])
    def test_out_file_rejected_before_any_model(self, reg_csv, tmp_path, capsys,
                                                no_model_built, command, out):
        (tmp_path / "taken").write_text("kept\n")
        code = run(command, "--data", reg_csv, "--target", "y", "--model", "mlp",
                   "--count", 3, "--out", tmp_path / out)
        assert code == 2
        assert f"--out {tmp_path / out} cannot be a directory: {tmp_path / 'taken'} is a file" \
            in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_exact_budget_on_17_features_rejected_before_any_model(
            self, tmp_path, capsys, no_model_built):
        X = RandomStream(66).normal_matrix(20, 17)
        csv = tmp_path / "wide.csv"
        write_csv(Dataset(compute_feature_meta(X, [f"f{j}" for j in range(17)]), X,
                          X[:, 0], Task.regression()), csv, target_column="y")
        code = run("global", "--data", csv, "--target", "y", "--model", "mlp",
                   "--explainer", "kernelshap", "--kernel-budget", "exact", "--count", 2)
        assert code == 2
        assert "exact enumeration supports at most 16 features, got 17" in \
            capsys.readouterr().err

    def test_nan_leaf_minimum_rejected_before_training(self, reg_csv, tmp_path, capsys):
        code = run("train", "--data", reg_csv, "--target", "y", "--model", "tree",
                   "--min-samples-leaf", "nan", "--out", tmp_path / "out")
        assert code == 2
        assert "min_samples_leaf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def strict_json(path: Path) -> dict:
    """The JSON in path, refusing NaN and infinities as strict parsers do."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJson:
    """No artifact holds NaN or an infinity."""

    @pytest.mark.parametrize("command, flags", [
        ("explain", ("--sigma", "inf")),
        ("explain", ("--sigma", "inf", "--explainer", "treeshap", "--model", "forest")),
        ("train", ("--min-samples-leaf", "inf")),
        ("train", ("--learning-rate", "nan")),
        ("train", ("--learning-rate", "inf")),
        ("global", ("--learning-rate", "inf", "--model", "forest")),
        ("train", ("--learning-rate", 0)),
        ("train", ("--learning-rate", 1e6)),  # the weights diverge
    ], ids=["sigma", "unused-sigma", "leaf-minimum", "nan-rate", "inf-rate", "unused-rate",
            "zero-rate", "diverging-rate"])
    def test_rejected_options_exit_2(self, reg_csv, tmp_path, capsys, command, flags):
        code = run(command, "--data", reg_csv, "--target", "y", "--model", "mlp",
                   "--epochs", 2, "--count", 3, *flags, "--out", tmp_path / "out")
        assert code == 2
        # the option as the CLI (learning-rate), fit_mlp (learning_rate) or its advice spells it
        assert re.search(flags[0][2:].replace("-", "[-_ ]"), capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags, artifact", [
        ("train", ("--model", "mlp"), "model.json"),
        ("train", ("--model", "forest"), "model.json"),
        ("train", ("--model", "tree"), "model.json"),
        ("explain", ("--explainer", "limase"), "explanation.json"),
        ("explain", ("--explainer", "treeshap", "--model", "forest"), "explanation.json"),
        ("explain", ("--explainer", "kernelshap", "--kernel-budget", "exact"),
         "explanation.json"),
        ("global", ("--count", 3), "matrix.json"),
        ("sp", ("--count", 4, "--budget", 2), "sp.json"),
        ("bench", (), "bench.json"),
    ])
    def test_artifacts_parse_strictly(self, reg_csv, tmp_path, command, flags, artifact):
        assert run(command, "--data", reg_csv, "--target", "y", "--model", "mlp",
                   "--hidden", 4, "--epochs", 2, "--n-trees", 4, "--n-samples", 20,
                   *flags, "--out", tmp_path) == 0
        assert strict_json(tmp_path / artifact)["config"]["command"] == command


class TestBenchValidation:
    def test_needs_enough_rows(self, tmp_path, capsys):
        rng = RandomStream(65)
        X = rng.normal_matrix(20, 2)
        data = Dataset(compute_feature_meta(X, ["a", "b"]), X, X[:, 0],
                       Task.regression())
        csv = tmp_path / "tiny.csv"
        write_csv(data, csv, target_column="y")
        assert run("bench", "--data", csv, "--target", "y", "--model", "mlp") == 2
        assert "100" in capsys.readouterr().err

    def test_rejects_tree_models(self, reg_csv, capsys):
        assert run("bench", "--data", reg_csv, "--target", "y",
                   "--model", "forest") == 2
        assert "non-tree" in capsys.readouterr().err


class TestBench:
    TIMINGS = ("limase_single_s", "limase_batch_s", "kernel_single_s", "kernel_batch_s",
               "speedup_single", "speedup_batch")

    def test_report_and_rerun(self, reg_csv, tmp_path):
        args = ("bench", "--data", reg_csv, "--target", "y", "--model", "mlp",
                "--hidden", 4, "--epochs", 2, "--n-samples", 20, "--out", tmp_path)
        assert run(*args) == 0
        first = json.loads((tmp_path / "bench.json").read_text())
        assert set(first) == {"n_rows", "d", "batch_size", "n_samples", "kernel_budget",
                              "kernel_background", "config", *self.TIMINGS}
        assert (first["n_rows"], first["d"], first["batch_size"]) == (150, 4, 100)
        assert (first["n_samples"], first["kernel_budget"], first["kernel_background"]) \
            == (20, 2048, 100)
        assert all(first[k] > 0 for k in self.TIMINGS)
        assert run(*args) == 0
        second = json.loads((tmp_path / "bench.json").read_text())
        for report in (first, second):
            for k in self.TIMINGS:
                del report[k]
        assert second == first


class TestConfigFile:
    def test_file_values_applied_and_flags_override(self, reg_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nn-samples = 50\nseed = 9\nout = ignored\n")
        out = tmp_path / "out"
        code = run("explain", "--data", reg_csv, "--target", "y",
                   "--config", cfg, "--out", out, "--seed", 11)
        assert code == 0
        echo = json.loads((out / "explanation.json").read_text())["config"]
        assert echo["n_samples"] == 50  # from file
        assert echo["seed"] == 11  # flag wins
        assert echo["out"] == str(out)  # flag wins

    def test_quoted_values_and_comments(self, reg_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('\n# comment\nexplainer = "treeshap"\n')
        out = tmp_path / "out"
        code = run("explain", "--data", reg_csv, "--target", "y",
                   "--config", cfg, "--n-trees", 5, "--out", out)
        assert code == 0
        record = json.loads((out / "explanation.json").read_text())
        assert record["explainer"] == "treeshap"

    def test_unknown_key_names_location(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run("explain", "--data", reg_csv, "--target", "y",
                   "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and ":1" in err

    def test_bad_syntax_names_line(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\njust-some-garbage\n")
        assert run("explain", "--data", reg_csv, "--target", "y",
                   "--config", cfg) == 2
        assert ":2" in capsys.readouterr().err

    def test_value_outside_choices_names_line(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nexplainer = bogus\n")
        assert run("explain", "--data", reg_csv, "--target", "y",
                   "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "explainer" in err and ":2" in err
        assert not (tmp_path / "out").exists()

    def test_bad_value_type(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = notanumber\n")
        assert run("explain", "--data", reg_csv, "--target", "y",
                   "--config", cfg) == 2
        assert "seed" in capsys.readouterr().err

    def test_byte_order_mark_skipped(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("\ufeffseed = 3\n", encoding="utf-8")
        assert run("inspect", "--data", reg_csv, "--target", "y", "--config", cfg) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3

    def test_command_key_rejected(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\ncommand = explain\n")
        assert run("inspect", "--data", reg_csv, "--target", "y", "--config", cfg) == 2
        assert f"error: {cfg}:2: unknown option 'command'" in capsys.readouterr().err

    def test_help_key_rejected(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("help = 1\n")
        assert run("inspect", "--data", reg_csv, "--target", "y", "--config", cfg) == 2
        captured = capsys.readouterr()
        assert f"error: {cfg}:1: unknown option 'help'" in captured.err
        assert captured.out == ""

    def test_non_finite_value_rejected(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = inf\n")
        assert run("explain", "--data", reg_csv, "--target", "y", "--explainer", "treeshap",
                   "--config", cfg, "--out", tmp_path / "out") == 2
        assert "sigma in a config file) must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
