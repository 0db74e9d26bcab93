"""Dataset ingestion and results persistence.

Datasets are delimited numeric text with one labeled row per instance.
Results are plain comma-delimited files, one row per acquisition round,
ready to plot as learning curves.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, DegenerateLabelsError
from .harness import RoundRecord

RECORD_COLUMNS = tuple(f.name for f in fields(RoundRecord))


@dataclass
class DatasetSpec:
    """Where and how to read a dataset.

    ``label_column`` is "last", a 0-based column index, or (with a header)
    a column name. ``positive_label`` is the raw token mapped to +1, every
    other label token maps to -1; when omitted the label column must
    already hold -1/+1 values.
    """

    path: str
    label_column: str | int = "last"
    positive_label: str | None = None
    delimiter: str = ","
    has_header: bool = False


def _resolve_label_index(spec: DatasetSpec, header: list[str] | None, width: int) -> int:
    col = spec.label_column
    if isinstance(col, str):
        if col == "last":
            return width - 1
        try:
            col = int(col)
        except ValueError:
            if header is None:
                raise DatasetFormatError(
                    f"label column {spec.label_column!r} is a name but the file has no header"
                )
            if col not in header:
                raise DatasetFormatError(f"label column {col!r} not found in header")
            return header.index(col)
    if not -width <= col < width:
        raise DatasetFormatError(f"label column index {col} out of range for {width} columns")
    return col % width


def _parse_label(token: str, positive_label: str | None, where: str) -> int:
    token = token.strip()
    if positive_label is None:
        try:
            value = float(token)
        except ValueError:
            raise DatasetFormatError(f"non-numeric label {token!r} at {where}")
        if value not in (-1.0, 1.0):
            raise DatasetFormatError(
                f"label {token!r} at {where} is not in {{-1, +1}}; pass positive_label"
            )
        return int(value)
    if token == positive_label:
        return 1
    try:
        if float(token) == float(positive_label):
            return 1
    except ValueError:
        pass
    return -1


def load_dataset(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Parse a delimited file into (features, labels in {-1, +1})."""
    path = Path(spec.path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")

    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    if not rows:
        raise DatasetFormatError(f"{path} holds no data rows")

    header = None
    if spec.has_header:
        header = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise DatasetFormatError(f"{path} holds a header but no data rows")

    width = len(rows[0][1])
    if width < 3:
        raise DatasetFormatError(f"{path} needs at least 2 feature columns plus a label")
    label_idx = _resolve_label_index(spec, header, width)

    features, labels = [], []
    for line_num, row in rows:
        if len(row) != width:
            raise DatasetFormatError(
                f"{path} line {line_num}: expected {width} columns, found {len(row)}"
            )
        feat = []
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            try:
                feat.append(float(cell))
            except ValueError:
                raise DatasetFormatError(
                    f"{path} line {line_num}, column {j + 1}: non-numeric value {cell!r}"
                )
        labels.append(_parse_label(row[label_idx], spec.positive_label, f"{path} line {line_num}"))
        features.append(feat)

    x = np.asarray(features, dtype=float)
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        col = j + int(j >= label_idx)
        line_num, row = rows[i]
        raise DatasetFormatError(
            f"{path} line {line_num}, column {col + 1}: non-finite value {row[col]!r}"
        )
    y = np.asarray(labels, dtype=int)
    if y.min() == y.max():
        raise DegenerateLabelsError(f"{path} yields a single class after label mapping")
    return x, y


def write_dataset(path, features: np.ndarray, labels: np.ndarray, delimiter: str = ",") -> None:
    """Write features with the labels appended as the last column.

    Feature values are printed with enough digits to round-trip exactly.
    """
    with open(path, "w", newline="\n") as fh:
        for row, label in zip(np.asarray(features, dtype=float), labels):
            cells = [f"{v:.17g}" for v in row] + [str(int(label))]
            fh.write(delimiter.join(cells) + "\n")


def write_matrix(path, m: np.ndarray, delimiter: str = ",") -> None:
    np.savetxt(path, np.asarray(m, dtype=float), fmt="%.17g", delimiter=delimiter, newline="\n")


def load_matrix(path, delimiter: str = ",") -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=delimiter))


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.10e}"


def write_records(path, records: list[RoundRecord]) -> None:
    """One row per round, fixed column order, deterministic formatting."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for rec in records:
            writer.writerow([_format_value(v) for v in astuple(rec)])
