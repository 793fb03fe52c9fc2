"""Parsing of impedance records and dataset manifests.

A record file holds one acquisition: one "RE IM" (or "RE,IM") pair per
line, in ohms, in acquisition order. A manifest maps record files to
class labels, one "path,label" per line, and parses to a tuple of
(path, label) pairs. Both formats skip blank lines and '#' comments.
Parsed samples are read-only arrays and parsed manifests are tuples:
neither can be changed after parsing.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DuplicatePathError,
    EmptyRecordError,
    MalformedLineError,
    NonFiniteSampleError,
)
from .textio import data_lines, first_bad_line, iter_data_lines


def parse_record(text: str, record_id: str) -> np.ndarray:
    """Parse record text into its read-only (n, 2) float64 samples of
    (resistance, reactance) pairs.

    Data lines hold exactly two numeric fields (real part, imaginary
    part) separated by whitespace or commas; file order is preserved.
    A field is any string Python's ``float()`` accepts.

    Raises
    ------
    MalformedLineError
        Non-numeric or wrong-arity line (1-based file line number).
    NonFiniteSampleError
        A field parsed to NaN or infinity.
    EmptyRecordError
        No data lines at all.
    """
    lines = data_lines(text)
    samples = _parse_block(lines)
    if isinstance(samples, str):
        if not lines:
            raise EmptyRecordError(f"record {record_id!r} has no data lines")
        # the block fails only where a line fails alone: raise the first
        line_no, why = first_bad_line(text, _parse_block)
        if why is _NON_FINITE:
            raise NonFiniteSampleError(line_no)
        raise MalformedLineError(line_no, f"line {line_no}: {why}")
    samples.setflags(write=False)
    return samples


# a token float() rejects, put between the data lines
_BREAK = "|"
# the one reason that is a NonFiniteSampleError, not a MalformedLineError
_NON_FINITE = "non-finite value"


def _parse_block(lines: list[str]) -> np.ndarray | str:
    """The (n, 2) samples of stripped data lines in one pass, or why they
    are not a record: a field count, a non-numeric field, a non-finite
    value or no data lines. For one line, that reason is the line's own.

    Splits the joined lines once and converts every field with float().
    """
    if not lines:
        return "no data lines"
    tokens = f"\n{_BREAK}\n".join(lines).replace(",", " ").split()
    # n lines of two fields give 3n - 1 tokens with a break at every third;
    # a break token left among the fields makes float() raise below
    if (
        len(tokens) != 3 * len(lines) - 1
        or tokens[2::3].count(_BREAK) != len(lines) - 1
    ):
        return f"expected 2 fields, got {len(tokens)}"
    del tokens[2::3]
    try:
        samples = np.array(list(map(float, tokens)), dtype=np.float64)
    except ValueError:
        return "non-numeric field"
    if not np.isfinite(samples).all():
        return _NON_FINITE
    return samples.reshape(-1, 2)


def record_to_text(samples: np.ndarray) -> str:
    """Serialize (n, 2) samples to the canonical record format at full
    precision.

    Re-parsing the output yields bitwise-equal sample values.
    """
    # "%.17g" is format_float's format, applied in one pass over the record
    return ("%.17g %.17g\n" * samples.shape[0]) % tuple(samples.ravel().tolist())


def load_manifest(text: str) -> tuple[tuple[str, str], ...]:
    """Parse manifest text ("path,label" lines) into its (path, label)
    entries, in file order."""
    entries: list[tuple[str, str]] = []
    seen_paths: set[str] = set()
    for line_no, line in iter_data_lines(text):
        parts = line.split(",")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise MalformedLineError(
                line_no, f"line {line_no}: expected 'path,label'"
            )
        path, label_name = parts[0].strip(), parts[1].strip()
        if path in seen_paths:
            raise DuplicatePathError(path)
        seen_paths.add(path)
        entries.append((path, label_name))
    return tuple(entries)


def record_id_from_path(path: str) -> str:
    """Record id of a manifest path: the file name without its extension."""
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name
