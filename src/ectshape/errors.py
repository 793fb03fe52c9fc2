"""Exception hierarchy for the ectshape library.

Every error raised by the library derives from :class:`EctShapeError`, so
callers can catch one base class at pipeline boundaries. Structured context
(line numbers, paths, class indices) is kept as attributes where it exists.
"""

from __future__ import annotations


class EctShapeError(Exception):
    """Base class for all ectshape errors."""


# --- record / manifest ingestion ---------------------------------------

class MalformedLineError(EctShapeError):
    """A data line is non-numeric or has the wrong number of fields."""

    def __init__(self, line_no: int, message: str = "") -> None:
        self.line_no = line_no
        super().__init__(message or f"malformed line {line_no}")


class EmptyRecordError(EctShapeError):
    """A record file contains zero data lines."""


class NonFiniteSampleError(EctShapeError):
    """A sample value is NaN or infinite."""

    def __init__(self, line_no: int, message: str = "") -> None:
        self.line_no = line_no
        super().__init__(message or f"non-finite sample on line {line_no}")


class DuplicatePathError(EctShapeError):
    """A manifest lists the same record path twice."""

    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(f"duplicate path in manifest: {path}")


# --- preprocessing ------------------------------------------------------

class TooFewSamplesError(EctShapeError):
    """Record has fewer samples than the pipeline minimum (3)."""


class DegenerateAfterTrimError(EctShapeError):
    """Noise trimming left fewer than 3 points."""


# --- geometry -----------------------------------------------------------

class DegenerateCloudError(EctShapeError):
    """The cloud cannot be measured: all points are identical, the points
    differ but their squared deviations underflow to zero, a coordinate
    exceeds 2**500 in magnitude, or rounding makes the hull's compactness
    exceed the isoperimetric bound of 1."""


class CollinearCloudError(EctShapeError):
    """All points lie on one line; no 2D convex hull exists."""


class ZeroWidthError(EctShapeError):
    """Minor-axis extent is zero; elongation is undefined."""


# --- classifiers --------------------------------------------------------

class EmptyClassError(EctShapeError):
    """A declared class has no training rows."""

    def __init__(self, class_index: int) -> None:
        self.class_index = class_index
        super().__init__(f"class {class_index} has no training rows")


class DimensionMismatchError(EctShapeError):
    """Feature dimensionality differs from what the model was trained on."""


class EmptyDatasetError(EctShapeError):
    """Training requires at least one row."""


class NonFiniteLossError(EctShapeError):
    """Network training diverged (loss became NaN or infinite)."""


# --- evaluation ---------------------------------------------------------

class BadKError(EctShapeError):
    """Fold count k is below 2 or above the number of rows."""


class BadSpecError(EctShapeError):
    """Synthetic-data specification violates its preconditions."""


# --- model serialization ------------------------------------------------

class ModelFormatError(EctShapeError):
    """A model file is missing, truncated, or malformed."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
