"""Feature tables: labeled datasets for training and the feature CSV format.

The feature CSV is the interchange surface between extraction and the
classifiers: one row per record, all ten geometric features, full float
precision. Training selects either the basic (L, W, alpha) columns or
the full set.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import MalformedLineError
from .geometry import FEATURE_NAMES_BASIC, FEATURE_NAMES_EXTENDED
from .textio import data_lines, first_bad_line, iter_data_lines

FEATURE_CSV_HEADER = "record_id,label," + ",".join(FEATURE_NAMES_EXTENDED)

# the training columns of each --features choice
FEATURE_SETS = {"basic": FEATURE_NAMES_BASIC, "extended": FEATURE_NAMES_EXTENDED}


class LabeledDataset(NamedTuple):
    """Feature matrix with dense integer labels.

    features is (n, d) float64, labels is (n,) int with every value in
    [0, num_classes), both read-only, as :func:`labeled_dataset` checks and
    builds them. A class may be empty here; training operations that need
    every class populated raise EmptyClassError themselves.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    feature_names: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def subset(self, row_indices: np.ndarray) -> "LabeledDataset":
        features, labels = self.features[row_indices], self.labels[row_indices]
        features.setflags(write=False)
        labels.setflags(write=False)
        return self._replace(features=features, labels=labels)


def labeled_dataset(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    feature_names: tuple[str, ...],
) -> LabeledDataset:
    """A dataset of read-only float64 features and int64 labels.

    Raises ValueError for a features array that is not a finite (n, d)
    matrix, labels that do not align with its rows or lie outside
    [0, num_classes), fewer than 2 classes, or feature_names that do not
    name its columns.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ValueError("features must be an (n, d) matrix")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must align with feature rows")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if features.shape[1] != len(feature_names):
        raise ValueError("feature_names must match feature columns")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels must lie in [0, num_classes)")
    features.setflags(write=False)
    labels.setflags(write=False)
    return LabeledDataset(features, labels, num_classes, feature_names)


class FeatureTable(NamedTuple):
    """Feature rows: ids, label names and the feature matrix.

    values is (n, 10) in FEATURE_NAMES_EXTENDED order, as a feature CSV and
    extraction give it, or (n, 3) with only the leading FEATURE_NAMES_BASIC
    columns, as extraction for a basic-feature model gives it.
    """

    record_ids: tuple[str, ...]
    label_names: tuple[str, ...]
    values: np.ndarray

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.label_names)))

    def columns(self, names: tuple[str, ...]) -> np.ndarray:
        """The feature matrix restricted to the named columns, in that order.

        Raises ValueError for a name that is not an extracted feature.
        """
        return self.values[:, [FEATURE_NAMES_EXTENDED.index(n) for n in names]]

    def to_dataset(self, mode: str = "basic") -> LabeledDataset:
        index_of = {name: i for i, name in enumerate(self.class_names)}
        labels = np.array([index_of[n] for n in self.label_names], dtype=np.int64)
        names = FEATURE_SETS[mode]
        return labeled_dataset(self.columns(names), labels, len(self.class_names), names)


# "%.17g" is format_float's format, applied to a whole row at once
_ROW_FORMAT = "%s,%s" + ",%.17g" * len(FEATURE_NAMES_EXTENDED)


def feature_csv_row(
    record_id: str, label_name: str, values: np.ndarray | Sequence[float]
) -> str:
    """One CSV data line; values are the ten features in header order."""
    return _ROW_FORMAT % (record_id, label_name, *np.asarray(values).tolist())


def parse_feature_csv(text: str) -> FeatureTable:
    """Parse a feature CSV (header required, '#' comments skipped).

    A missing header, a row without 12 fields, or a non-numeric or
    non-finite feature value raises MalformedLineError at the first bad
    line.
    """
    lines = data_lines(text)
    if not lines:
        raise MalformedLineError(0, "feature CSV has no header line")
    if lines[0] != FEATURE_CSV_HEADER:
        line_no, why = next(iter_data_lines(text))[0], "expected feature CSV header"
    else:
        table = _parse_block(lines[1:])
        if isinstance(table, FeatureTable):
            return table
        # the rows fail as a block only where one fails alone: raise the first
        line_no, why = first_bad_line(text, _parse_block, start=1)
    raise MalformedLineError(line_no, f"line {line_no}: {why}")


_N_FIELDS = 2 + len(FEATURE_NAMES_EXTENDED)
# a field of its own between the data lines; no line holds a newline
_BREAK = "\n"


def _parse_block(rows: list[str]) -> FeatureTable | str:
    """The table of stripped data rows in one pass, or why they are not
    one: a field count, a non-numeric value or a non-finite one. For one
    row, that reason is the row's own.

    Splits the joined rows once and converts every feature with float().
    """
    if not rows:
        return FeatureTable((), (), np.empty((0, len(FEATURE_NAMES_EXTENDED))))
    fields = f",{_BREAK},".join(rows).split(",")
    # n rows of 12 fields give 13n - 1 fields with a break at every 13th
    if (
        len(fields) != (_N_FIELDS + 1) * len(rows) - 1
        or fields[_N_FIELDS :: _N_FIELDS + 1].count(_BREAK) != len(rows) - 1
    ):
        return f"expected {_N_FIELDS} fields"
    del fields[_N_FIELDS :: _N_FIELDS + 1]
    record_ids, label_names = fields[0::_N_FIELDS], fields[1::_N_FIELDS]
    del fields[0::_N_FIELDS]
    del fields[0 :: _N_FIELDS - 1]
    try:
        values = np.array(list(map(float, fields)), dtype=np.float64)
    except ValueError:
        return "non-numeric feature value"
    if not np.isfinite(values).all():
        return "non-finite feature value"
    return FeatureTable(
        record_ids=tuple(record_ids),
        label_names=tuple(label_names),
        values=values.reshape(len(rows), len(FEATURE_NAMES_EXTENDED)),
    )
