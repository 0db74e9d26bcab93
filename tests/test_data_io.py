import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from activemc.data_io import (
    load_dataset,
    load_matrix,
    write_dataset,
    write_matrix,
    write_records,
    RECORD_COLUMNS,
)
from activemc.errors import DatasetFormatError, DegenerateLabelsError, DimensionMismatchError
from activemc.harness import RoundRecord


def write_text(path, text):
    path.write_text(text)
    return str(path)


class TestLoadDataset:
    def test_label_mapping(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "0.5,1.5,1\n2.0,3.0,0\n4.0,5.0,1\n")
        features, labels = load_dataset(path, positive_label="1")
        np.testing.assert_array_equal(labels, [1, -1, 1])
        np.testing.assert_allclose(features, [[0.5, 1.5], [2.0, 3.0], [4.0, 5.0]])

    def test_header_skipped(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,target\n1,2,1\n3,4,0\n")
        features, labels = load_dataset(
            path, label_col="target", positive_label="1", has_header=True
        )
        np.testing.assert_array_equal(labels, [1, -1])
        assert features.shape == (2, 2)

    def test_label_column_index(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,9,2\n0,8,3\n1,7,4\n")
        features, labels = load_dataset(path, label_col=0, positive_label="1")
        np.testing.assert_array_equal(labels, [1, -1, 1])
        np.testing.assert_allclose(features[:, 0], [9.0, 8.0, 7.0])

    def test_numeric_label_equivalence(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1.0\n3,4,2.0\n")
        _, labels = load_dataset(path, positive_label="1")
        np.testing.assert_array_equal(labels, [1, -1])

    def test_already_signed_labels(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,-1\n3,4,1\n")
        _, labels = load_dataset(path)
        np.testing.assert_array_equal(labels, [-1, 1])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((5, 3))
        labels = np.array([1, -1, 1, 1, -1])
        path = tmp_path / "out.csv"
        write_dataset(path, features, labels)
        reloaded, y = load_dataset(path, positive_label="1")
        np.testing.assert_array_equal(reloaded, features)
        np.testing.assert_array_equal(y, labels)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_dataset("/nonexistent/file.csv")

    @pytest.mark.parametrize(
        "text, label_col, where",
        [
            ("1,2,1\nnan,4,0\n", "last", "line 2, column 1: non-finite value 'nan'"),
            ("1,2,1\n3,4,0\n5,-inf,1\n", "last", "line 3, column 2: non-finite value '-inf'"),
            ("1,1,2,3\n0,4,Infinity,6\n", 0, "line 2, column 3: non-finite value 'Infinity'"),
        ],
        ids=["nan", "inf", "after-label"],
    )
    def test_non_finite_cell_reports_location(self, tmp_path, text, label_col, where):
        path = write_text(tmp_path / "d.csv", text)
        with pytest.raises(DatasetFormatError, match=where):
            load_dataset(path, label_col=label_col, positive_label="1")

    @pytest.mark.parametrize(
        "label, where",
        [
            ("nan", "line 2, column 3: non-finite label 'nan'"),
            ("-inf", "line 2, column 3: non-finite label '-inf'"),
            ("", "line 2, column 3: empty label"),
        ],
        ids=["nan", "inf", "empty"],
    )
    def test_bad_label_token_reports_location(self, tmp_path, label, where):
        path = write_text(tmp_path / "d.csv", f"1,2,1\n3,4,{label}\n5,6,0\n")
        with pytest.raises(DatasetFormatError, match=where):
            load_dataset(path, positive_label="1")

    def test_class_names_other_than_positive_map_to_minus_one(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,yes\n3,4,no\n5,6,maybe\n")
        _, labels = load_dataset(path, positive_label="yes")
        np.testing.assert_array_equal(labels, [1, -1, -1])

    def test_bad_cell_reports_location(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1\n3,oops,0\n")
        with pytest.raises(DatasetFormatError, match="line 2.*column 2"):
            load_dataset(path, positive_label="1")

    def test_ragged_row_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1\n3,0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path, positive_label="1")

    def test_single_class_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1\n3,4,1\n")
        with pytest.raises(DegenerateLabelsError):
            load_dataset(path, positive_label="1")

    def test_too_few_columns(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,1\n2,0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path, positive_label="1")

    @pytest.mark.parametrize("delimiter", ["", ";;"], ids=["empty", "two-chars"])
    def test_bad_delimiter_names_it_and_the_file(self, tmp_path, delimiter):
        path = write_text(tmp_path / "d.csv", "1,2,1\n3,4,-1\n")
        with pytest.raises(DatasetFormatError, match=f"d.csv: delimiter {delimiter!r}"):
            load_dataset(path, delimiter=delimiter)

    def test_unsigned_labels_need_positive_label(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,3\n3,4,0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        # the UTF-8 byte-order mark that spreadsheet "CSV UTF-8" exports begin with
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2,1\n3,4,-1\n")
        features, labels = load_dataset(path)
        np.testing.assert_array_equal(features, [[1.5, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(labels, [1, -1])

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,c\n1,2,3\n-1,4,5\n")
        features, labels = load_dataset(path, label_col="a", has_header=True)
        np.testing.assert_array_equal(labels, [1, -1])
        np.testing.assert_array_equal(features, [[2.0, 3.0], [4.0, 5.0]])

    @pytest.mark.parametrize(
        "line4, where",
        [
            ("7,oops,1", "line 4, column 2: non-numeric value 'oops'"),
            ("7,1", "line 4: expected 3 columns, found 2"),
            ("7,8,nan", "line 4, column 3: non-finite label 'nan'"),
        ],
        ids=["non-numeric", "ragged", "bad-label"],
    )
    def test_malformed_row_wins_over_earlier_non_finite_cell(self, tmp_path, line4, where):
        path = write_text(tmp_path / "d.csv", f"1,2,1\nnan,4,0\n5,6,1\n{line4}\n")
        with pytest.raises(DatasetFormatError, match=where):
            load_dataset(path, positive_label="1")

    def test_first_non_finite_cell_in_file_order_reported(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,3,1\n4,inf,-inf,0\nnan,5,6,1\n")
        with pytest.raises(DatasetFormatError, match="line 2, column 2: non-finite value 'inf'"):
            load_dataset(path, positive_label="1")

    def test_cells_parse_as_python_float(self, tmp_path):
        tokens = [" 1.5 ", "1_000", "+2", ".5", "5.", "1e-320", "-0", "1E3"]
        rows = [f"{t},{t},{label}" for t, label in zip(tokens, [1, -1] * 4)]
        path = write_text(tmp_path / "d.csv", "\n".join(rows) + "\n")
        features, _ = load_dataset(path)
        expected = np.array([float(t) for t in tokens])
        assert features[:, 0].tobytes() == expected.tobytes()
        assert np.signbit(features[tokens.index("-0"), 0])

    def test_traced_peak_is_a_few_feature_matrices(self, tmp_path):
        rng = np.random.default_rng(2)
        labels = np.where(np.arange(2000) % 2 == 0, 1, -1)
        write_dataset(tmp_path / "d.csv", rng.standard_normal((2000, 50)), labels)
        tracemalloc.start()
        try:
            features, _ = load_dataset(tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert features.shape == (2000, 50)
        assert peak <= 4 * features.nbytes, f"peak {peak / features.nbytes:.1f}x the array"

    @settings(max_examples=100, deadline=None)
    @given(features=hnp.arrays(
        float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    ))
    @example(features=np.array([[5e-324, -2.2250738585072014e-308], [-0.0, 1.7976931348623157e308]]))
    def test_write_then_load_is_bit_exact(self, tmp_path_factory, features):
        path = tmp_path_factory.mktemp("round_trip") / "d.csv"
        labels = np.where(np.arange(len(features)) % 2 == 0, 1, -1)
        write_dataset(path, features, labels)
        reloaded, y = load_dataset(path)
        assert reloaded.tobytes() == features.tobytes()
        np.testing.assert_array_equal(y, labels)


class TestWriteDataset:
    @pytest.mark.parametrize("delimiter", [",", "%"], ids=["comma", "percent"])
    def test_bytes_match_per_cell_formatting(self, tmp_path, delimiter):
        features = np.array([
            [-0.0, np.inf, 1e308],
            [-np.inf, np.nan, 5e-324],
            [0.1, -2.5e-310, 1.0],
        ])
        labels = [np.int64(1), np.int32(-1), 1]
        expected = "".join(
            delimiter.join([f"{v:.17g}" for v in row] + [str(int(label))]) + "\n"
            for row, label in zip(features, labels)
        )
        path = tmp_path / "d.csv"
        write_dataset(path, features, labels, delimiter=delimiter)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("features,labels", [
        (np.zeros((4, 2)), [1, -1]),
        (np.zeros((2, 2)), [1, -1, 1, -1]),
        (np.zeros(3), [1, -1, 1]),
        (np.zeros((2, 2)), [[1], [-1]]),
    ], ids=["fewer_labels", "more_labels", "1d_features", "2d_labels"])
    def test_rows_and_labels_must_pair_up(self, tmp_path, features, labels):
        # zip would write the shorter of the two and drop the rest silently
        path = tmp_path / "d.csv"
        with pytest.raises(DimensionMismatchError):
            write_dataset(path, features, labels)
        assert not path.exists()

    @pytest.mark.parametrize("label", [0.6, -1.7, float("nan"), float("inf")])
    def test_label_must_be_a_whole_number(self, tmp_path, label):
        # int() would write 0.6 as 0 and -1.7 as -1
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=f"^label {label!r} at row 1 is not a whole number$"):
            write_dataset(path, np.zeros((2, 2)), [1.0, label])
        assert not path.exists()


class TestMatrixIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        # a one-column file must not come back transposed
        for shape in [(4, 6), (5, 1), (1, 5)]:
            m = rng.standard_normal(shape)
            path = tmp_path / "m.csv"
            write_matrix(path, m)
            np.testing.assert_array_equal(load_matrix(path), m)


class TestRecordWriting:
    def records(self):
        return [
            RoundRecord(1, 0.0, 0, 0.5, 0.25, 10.0, 0.9, 0.95),
            RoundRecord(2, 16.0, 16, 0.4, 0.16, 8.0, 0.92, 0.97),
        ]

    def test_header_and_row_count(self, tmp_path):
        # the file format documented in the README, pinned byte for byte
        header = (
            "round,cumulative_cost,queried_entries,recon_rel,recon_msq,"
            "train_objective,test_accuracy,test_auc"
        )
        path = tmp_path / "r.csv"
        write_records(path, self.records())
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == header.encode()
        assert ",".join(RECORD_COLUMNS) == header
        assert lines[1] == (
            b"1,0.0000000000e+00,0,5.0000000000e-01,2.5000000000e-01,"
            b"1.0000000000e+01,9.0000000000e-01,9.5000000000e-01"
        )
        assert len(lines) == 4 and lines[3] == b""

    def test_floats_carry_ten_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(path, self.records())
        row = path.read_text().strip().split("\n")[1].split(",")
        assert row[0] == "1" and row[2] == "0"
        assert row[3] == "5.0000000000e-01"

    def test_values_survive_parsing(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(path, self.records())
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        assert parsed[1, 1] == 16.0
        assert parsed[1, 6] == pytest.approx(0.92)
