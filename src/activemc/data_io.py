"""Dataset ingestion and results persistence.

Datasets are delimited numeric text with one labeled row per instance.
Results are plain comma-delimited files, one row per acquisition round,
ready to plot as learning curves.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, DegenerateLabelsError, DimensionMismatchError
from .harness import RoundRecord

RECORD_COLUMNS = tuple(f.name for f in fields(RoundRecord))


def _resolve_label_index(col: str | int, header: list[str] | None, width: int) -> int:
    if isinstance(col, str):
        if col == "last":
            return width - 1
        try:
            col = int(col)
        except ValueError:
            if header is None:
                raise DatasetFormatError(
                    f"label column {col!r} is a name but the file has no header"
                )
            if col not in header:
                raise DatasetFormatError(f"label column {col!r} not found in header")
            return header.index(col)
    if not -width <= col < width:
        raise DatasetFormatError(f"label column index {col} out of range for {width} columns")
    return col % width


def _parse_label(token: str, positive_label: str | int | None, where: str) -> int:
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
    if not token:
        raise DatasetFormatError(f"{where}: empty label")
    try:
        value = float(token)
    except ValueError:
        return -1  # a class name other than positive_label
    if not math.isfinite(value):
        raise DatasetFormatError(f"{where}: non-finite label {token!r}")
    try:
        return 1 if value == float(positive_label) else -1
    except ValueError:
        return -1


def load_dataset(path, *, label_col: str | int = "last", positive_label: str | int | None = None,
                 delimiter: str = ",", has_header: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Parse a delimited file into (features, labels in {-1, +1}).

    ``label_col`` is "last", a 0-based column index, or (with a header) a
    column name. ``positive_label`` is the raw token mapped to +1, every
    other label token maps to -1, except that an empty or non-finite
    numeric token is an error; when omitted the label column must already
    hold -1/+1 values. A leading UTF-8 byte-order mark is skipped.

    Each row becomes a float vector as it is read, so loading holds about
    the feature matrix plus one row of text.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DatasetFormatError(f"{path}: delimiter {delimiter!r} is not one character")

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = ((reader.line_num, row) for row in reader if any(c.strip() for c in row))
        first = next(rows, None)
        if first is None:
            raise DatasetFormatError(f"{path} holds no data rows")

        header = None
        if has_header:
            header = [c.strip() for c in first[1]]
            first = next(rows, None)
            if first is None:
                raise DatasetFormatError(f"{path} holds a header but no data rows")

        width = len(first[1])
        if width < 3:
            raise DatasetFormatError(f"{path} needs at least 2 feature columns plus a label")
        label_idx = _resolve_label_index(label_col, header, width)

        features, labels = [], []
        # the first non-finite cell as (line, column, token); it is reported
        # only once every row has parsed, so a malformed row anywhere wins
        non_finite = None
        for line_num, row in itertools.chain([first], rows):
            if len(row) != width:
                raise DatasetFormatError(
                    f"{path} line {line_num}: expected {width} columns, found {len(row)}"
                )
            label = row.pop(label_idx)
            try:
                feat = np.fromiter(map(float, row), dtype=float, count=width - 1)
            except ValueError:
                for j, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise DatasetFormatError(
                            f"{path} line {line_num}, column {j + (j >= label_idx) + 1}: "
                            f"non-numeric value {cell!r}"
                        )
            labels.append(_parse_label(label, positive_label,
                                       f"{path} line {line_num}, column {label_idx + 1}"))
            features.append(feat)
            if non_finite is None and not np.isfinite(feat).all():
                j = int(np.argmin(np.isfinite(feat)))
                non_finite = (line_num, j + (j >= label_idx) + 1, row[j])

    if non_finite is not None:
        line_num, col, cell = non_finite
        raise DatasetFormatError(f"{path} line {line_num}, column {col}: non-finite value {cell!r}")
    x = np.stack(features)
    y = np.asarray(labels, dtype=int)
    if y.min() == y.max():
        raise DegenerateLabelsError(f"{path} yields a single class after label mapping")
    return x, y


def write_dataset(path, features: np.ndarray, labels: np.ndarray, delimiter: str = ",") -> None:
    """Write features with the labels appended as the last column.

    Feature values are printed with enough digits to round-trip exactly.
    Each feature row needs one label, a whole number; none is dropped or rounded.
    """
    features = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if features.ndim != 2 or y.shape != features.shape[:1]:
        raise DimensionMismatchError(f"features of shape {features.shape} need one label per "
                                     f"row, got labels of shape {y.shape}")
    bad = np.flatnonzero(~np.isfinite(y) | (y != np.trunc(y)))
    if bad.size:
        raise ValueError(f"label {float(y[bad[0]])!r} at row {bad[0]} is not a whole number")
    sep = delimiter.replace("%", "%%")
    template = sep.join(["%.17g"] * features.shape[1] + ["%d"]) + "\n"
    with open(path, "w", newline="\n") as fh:
        for row, label in zip(features, y):
            fh.write(template % (*row.tolist(), int(label)))


def write_matrix(path, m: np.ndarray, delimiter: str = ",") -> None:
    np.savetxt(path, np.asarray(m, dtype=float), fmt="%.17g", delimiter=delimiter, newline="\n")


def load_matrix(path, delimiter: str = ",") -> np.ndarray:
    return np.loadtxt(path, delimiter=delimiter, ndmin=2)


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.10e}"


def write_rows(path, header, rows) -> None:
    """A comma-delimited table: integers as written, floats to ten significant digits."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])


def write_records(path, records: list[RoundRecord]) -> None:
    """One row per round, fixed column order, deterministic formatting."""
    write_rows(path, RECORD_COLUMNS, map(astuple, records))
