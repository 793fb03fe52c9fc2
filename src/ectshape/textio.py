"""Shared helpers for the line-oriented text formats.

Every on-disk format in this package (records, manifests, feature CSVs,
model files) is UTF-8 text where blank lines and lines starting with '#'
are ignored, and floats are written with 17 significant digits so they
re-parse to the same IEEE-754 double.
"""

from __future__ import annotations

from typing import Callable, Iterator


def format_float(x: float) -> str:
    """Render a double with enough digits to round-trip bit-exactly."""
    return f"{x:.17g}"


def iter_data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped content) for non-comment lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def first_failing(lines: list[str], parse_block: Callable[[list[str]], object]) -> int:
    """Index of the first line that parse_block rejects on its own, for lines
    that it rejects as a whole.

    parse_block returns a str, the reason, for the lines it rejects, and
    rejects a block exactly where it rejects one of its lines alone. So the
    failing span is halved: about log2(n) calls that parse n lines in all,
    instead of one call per line.
    """
    low, high = 0, len(lines)
    while high - low > 1:
        mid = (low + high) // 2
        if isinstance(parse_block(lines[low:mid]), str):
            high = mid
        else:
            low = mid
    return low
