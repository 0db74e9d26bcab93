import numpy as np
import pytest

from activemc.data_io import (
    DatasetSpec,
    load_dataset,
    load_matrix,
    write_dataset,
    write_matrix,
    write_records,
    RECORD_COLUMNS,
)
from activemc.errors import DatasetFormatError, DegenerateLabelsError
from activemc.harness import RoundRecord


def write_text(path, text):
    path.write_text(text)
    return str(path)


class TestLoadDataset:
    def test_label_mapping(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "0.5,1.5,1\n2.0,3.0,0\n4.0,5.0,1\n")
        features, labels = load_dataset(DatasetSpec(path, positive_label="1"))
        np.testing.assert_array_equal(labels, [1, -1, 1])
        np.testing.assert_allclose(features, [[0.5, 1.5], [2.0, 3.0], [4.0, 5.0]])

    def test_header_skipped(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,target\n1,2,1\n3,4,0\n")
        features, labels = load_dataset(
            DatasetSpec(path, label_column="target", positive_label="1", has_header=True)
        )
        np.testing.assert_array_equal(labels, [1, -1])
        assert features.shape == (2, 2)

    def test_label_column_index(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,9,2\n0,8,3\n1,7,4\n")
        features, labels = load_dataset(DatasetSpec(path, label_column=0, positive_label="1"))
        np.testing.assert_array_equal(labels, [1, -1, 1])
        np.testing.assert_allclose(features[:, 0], [9.0, 8.0, 7.0])

    def test_numeric_label_equivalence(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1.0\n3,4,2.0\n")
        _, labels = load_dataset(DatasetSpec(path, positive_label="1"))
        np.testing.assert_array_equal(labels, [1, -1])

    def test_already_signed_labels(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,-1\n3,4,1\n")
        _, labels = load_dataset(DatasetSpec(path))
        np.testing.assert_array_equal(labels, [-1, 1])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((5, 3))
        labels = np.array([1, -1, 1, 1, -1])
        path = tmp_path / "out.csv"
        write_dataset(path, features, labels)
        spec = DatasetSpec(str(path), positive_label="1")
        reloaded, y = load_dataset(spec)
        np.testing.assert_array_equal(reloaded, features)
        np.testing.assert_array_equal(y, labels)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_dataset(DatasetSpec("/nonexistent/file.csv"))

    @pytest.mark.parametrize(
        "text, label_column, where",
        [
            ("1,2,1\nnan,4,0\n", "last", "line 2, column 1: non-finite value 'nan'"),
            ("1,2,1\n3,4,0\n5,-inf,1\n", "last", "line 3, column 2: non-finite value '-inf'"),
            ("1,1,2,3\n0,4,Infinity,6\n", 0, "line 2, column 3: non-finite value 'Infinity'"),
        ],
        ids=["nan", "inf", "after-label"],
    )
    def test_non_finite_cell_reports_location(self, tmp_path, text, label_column, where):
        path = write_text(tmp_path / "d.csv", text)
        with pytest.raises(DatasetFormatError, match=where):
            load_dataset(DatasetSpec(path, label_column=label_column, positive_label="1"))

    def test_bad_cell_reports_location(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1\n3,oops,0\n")
        with pytest.raises(DatasetFormatError, match="line 2.*column 2"):
            load_dataset(DatasetSpec(path, positive_label="1"))

    def test_ragged_row_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1\n3,0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(DatasetSpec(path, positive_label="1"))

    def test_single_class_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,1\n3,4,1\n")
        with pytest.raises(DegenerateLabelsError):
            load_dataset(DatasetSpec(path, positive_label="1"))

    def test_too_few_columns(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,1\n2,0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(DatasetSpec(path, positive_label="1"))

    def test_unsigned_labels_need_positive_label(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "1,2,3\n3,4,0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(DatasetSpec(path))


class TestMatrixIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6))
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
