"""Core types: tasks, datasets, CSV IO, random streams."""
import os

import numpy as np
import pytest

from limase.core import (
    ConfigError,
    DataError,
    Dataset,
    FeatureMeta,
    ModelOutput,
    ModelOutputError,
    RandomStream,
    Task,
    child_seed,
    compute_feature_meta,
    dataset_summary,
    load_csv,
    write_csv,
)


class TestTask:
    def test_regression_has_one_output(self):
        t = Task.regression()
        assert not t.is_classification
        assert t.n_outputs == 1

    def test_classification_carries_class_count(self):
        t = Task.classification(4)
        assert t.is_classification
        assert t.n_outputs == 4

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError):
            Task("ranking")

    def test_classification_needs_two_classes(self):
        with pytest.raises(ConfigError):
            Task.classification(1)

    def test_regression_rejects_class_count(self):
        with pytest.raises(ConfigError):
            Task("regression", n_classes=3)


class TestRandomStream:
    def test_same_seed_same_draws(self):
        a = RandomStream(42).normal(1000)
        b = RandomStream(42).normal(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(1).normal(100)
        b = RandomStream(2).normal(100)
        assert not np.array_equal(a, b)

    def test_normal_moments(self):
        x = RandomStream(7).normal(100_000)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02

    def test_matrix_matches_flat_draw_count(self):
        m = RandomStream(3).normal_matrix(10, 4)
        assert m.shape == (10, 4)

    def test_child_streams_are_stable_and_distinct(self):
        r = RandomStream(5)
        c0 = r.child(0).normal(8)
        c1 = r.child(1).normal(8)
        again = RandomStream(5).child(0).normal(8)
        assert np.array_equal(c0, again)
        assert not np.array_equal(c0, c1)

    def test_child_seed_is_pure_function(self):
        assert child_seed(123, 4) == child_seed(123, 4)
        assert child_seed(123, 4) != child_seed(123, 5)
        assert child_seed(122, 4) != child_seed(123, 4)
        assert 0 <= child_seed(2**70, 9) < 2**64

    def test_choice_without_replacement_unique(self):
        idx = RandomStream(9).choice(50, size=20, replace=False)
        assert len(set(idx.tolist())) == 20
        assert idx.min() >= 0 and idx.max() < 50

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(0).normal(-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            RandomStream(-1)


class TestFeatureMeta:
    def test_population_std(self):
        rows = np.array([[1.0], [3.0]])
        meta = compute_feature_meta(rows, ["a"])[0]
        assert meta.mean == 2.0
        assert meta.std == pytest.approx(1.0)  # population: sqrt(((1)^2+(1)^2)/2)
        assert meta.min == 1.0 and meta.max == 3.0

    def test_name_count_mismatch(self):
        with pytest.raises(DataError):
            compute_feature_meta(np.zeros((2, 2)), ["only-one"])


class TestDataset:
    def test_validate_passes_on_consistent_data(self, reg_data):
        reg_data.validate()
        assert reg_data.n == 300
        assert reg_data.d == 5
        assert reg_data.feature_names == [f"f{j}" for j in range(5)]

    def test_stale_statistics_detected(self, reg_data):
        bad_meta = list(reg_data.features)
        f0 = bad_meta[0]
        bad_meta[0] = FeatureMeta(f0.name, 0, f0.mean + 1.0, f0.std, f0.min, f0.max)
        ds = Dataset(bad_meta, reg_data.rows, reg_data.target, reg_data.task)
        with pytest.raises(DataError, match="stale"):
            ds.validate()

    def test_nonfinite_rejected(self, reg_data):
        rows = reg_data.rows.copy()
        rows[0, 0] = np.nan
        ds = Dataset(reg_data.features, rows, reg_data.target, reg_data.task)
        with pytest.raises(DataError):
            ds.validate()

    def test_classification_labels_must_be_integral(self, cls_data):
        target = cls_data.target.copy()
        target[0] = 0.5
        ds = Dataset(cls_data.features, cls_data.rows, target, cls_data.task)
        with pytest.raises(DataError):
            ds.validate()

    def test_out_of_range_label_rejected(self, cls_data):
        target = cls_data.target.copy()
        target[0] = cls_data.task.n_classes
        ds = Dataset(cls_data.features, cls_data.rows, target, cls_data.task)
        with pytest.raises(DataError):
            ds.validate()

    def test_summary_shape(self, cls_data):
        s = dataset_summary(cls_data)
        assert s["n_rows"] == 300
        assert s["n_features"] == 5
        assert len(s["features"]) == 5
        assert s["task"] == "classification"
        assert s["n_classes"] == 3


class TestModelOutput:
    def test_values_coerced_to_2d_float(self):
        out = ModelOutput(np.zeros((3, 1)))
        assert out.values.shape == (3, 1)
        assert out.values.dtype == float

    def test_probability_check(self):
        ModelOutput(np.array([[0.25, 0.75]])).check_probabilities()
        ModelOutput(np.zeros((0, 2))).check_probabilities()
        with pytest.raises(ModelOutputError, match="sum to 1"):
            ModelOutput(np.array([[0.5, 0.9]])).check_probabilities()
        with pytest.raises(ModelOutputError, match=r"\[0, 1\]"):
            ModelOutput(np.array([[-0.2, 1.2]])).check_probabilities()
        with pytest.raises(ModelOutputError, match=r"\[0, 1\]"):
            ModelOutput(np.array([[np.nan, 1.0]])).check_probabilities()


class TestCsv:
    def test_round_trip_bitwise(self, tmp_path, reg_data):
        path = tmp_path / "data.csv"
        write_csv(reg_data, path, target_column="y")
        back = load_csv(path, "y", "regression")
        assert np.array_equal(back.rows, reg_data.rows)
        assert np.array_equal(back.target, reg_data.target)
        assert back.feature_names == reg_data.feature_names

    def test_classification_round_trip_infers_classes(self, tmp_path, cls_data):
        path = tmp_path / "data.csv"
        write_csv(cls_data, path, target_column="label")
        back = load_csv(path, "label", "classification")
        assert back.task == cls_data.task
        assert np.array_equal(back.target, cls_data.target)

    def test_missing_target_column_named(self, tmp_path, reg_data):
        path = tmp_path / "data.csv"
        write_csv(reg_data, path, target_column="y")
        with pytest.raises(DataError, match="nope"):
            load_csv(path, "nope", "regression")

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,3\n1,oops,3\n")
        with pytest.raises(DataError) as err:
            load_csv(path, "y", "regression")
        msg = str(err.value)
        assert "b" in msg and "2" in msg  # column name and data-row number

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b,y\n1,2,3\n1,\xff,3\n")
        with pytest.raises(DataError, match="is not UTF-8 text") as err:
            load_csv(path, "y", "regression")
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header", ["y,a,b", "a,y,b"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + header + "\n1,2,3\n4,5,6\n", encoding="utf-8")
        data = load_csv(path, "y", "regression")
        assert data.feature_names == [h for h in header.split(",") if h != "y"]
        assert data.target.tolist() == ([1.0, 4.0] if header[0] == "y" else [2.0, 5.0])

    @pytest.mark.parametrize("header, name", [("y,a,y", "y"), ("a,a,y", "a")])
    def test_repeated_header_name_rejected(self, tmp_path, header, name):
        path = tmp_path / "dup.csv"
        path.write_text(header + "\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError) as err:
            load_csv(path, "y", "regression")
        assert str(err.value) == f"column {name!r} appears more than once in the header of {path}"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path, "y", "regression")

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,y\n")
        with pytest.raises(DataError):
            load_csv(path, "y", "regression")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,y\n1,2,3\n1,2\n")
        with pytest.raises(DataError):
            load_csv(path, "y", "regression")

    # The first bad cell, in row order and with each row's target first,
    # names the error, as a cell-by-cell read finds it.
    @pytest.mark.parametrize("text,message", [
        ("a,b,y\n1,2,3\n1,inf,3\n4,5,6\n7,8,9\n1,oops,3\n",
         "non-finite cell at row 2, column 'b': 'inf'"),
        ("a,b,y\n1,2,3\n1,2,-inf\n", "non-finite cell at row 2, column 'y': '-inf'"),
        ("a,b,y\n1,2,3\n1,2\n1,oops,3\n", "row 2 has 2 cells, expected 3"),
        ("a,y,b\n1,2,3\noops,nan,4\n", "non-finite cell at row 2, column 'y': 'nan'"),
        ("a,y,b\n1,2,3\n1,x,oops\n", "non-numeric cell at row 2, column 'y': 'x'"),
    ])
    def test_first_bad_cell_reported(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_csv(path, "y", "regression")
        assert str(err.value) == message

    def test_target_column_anywhere(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("a,y,b\n1,-0.0,3\n4.5,1e300,-6\n")
        data = load_csv(path, "y", "regression")
        assert data.feature_names == ["a", "b"]
        assert data.rows.tolist() == [[1.0, 3.0], [4.5, -6.0]]
        assert data.rows.flags.c_contiguous and data.target.flags.c_contiguous
        assert data.target.tobytes() == np.array([-0.0, 1e300]).tobytes()

    def test_finite_cells_whose_sum_overflows_are_kept(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("a,b,y\n6e307,6e307,6e307\n6e307,6e307,6e307\n")
        data = load_csv(path, "y", "regression")
        assert data.rows.tolist() == [[6e307, 6e307]] * 2
        assert data.target.tolist() == [6e307] * 2

    # The file is read once: a pipe, which cannot be read twice, still
    # gives the first bad cell's message.
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_cell_reported_from_a_pipe(self):
        r, w = os.pipe()
        os.write(w, b"a,b,y\n1,2,3\n1,inf,3\n1,oops,3\n")
        os.close(w)
        try:
            with pytest.raises(DataError) as err:
                load_csv(f"/dev/fd/{r}", "y", "regression")
        finally:
            os.close(r)
        assert str(err.value) == "non-finite cell at row 2, column 'b': 'inf'"
