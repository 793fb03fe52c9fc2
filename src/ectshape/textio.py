"""Shared helpers for the line-oriented text formats.

Every on-disk format in this package (records, manifests, feature CSVs,
model files, synth specs) is UTF-8 text where blank lines and lines
starting with '#' are ignored, and floats are written with 17 significant
digits so they re-parse to the same IEEE-754 double. A line ends at "\\n",
"\\r\\n" or "\\r" and at no other character, as in Python's text mode.
"""

from __future__ import annotations

from typing import Callable, Iterator


def format_float(x: float) -> str:
    """Render a double with enough digits to round-trip bit-exactly."""
    return f"{x:.17g}"


def split_lines(text: str) -> list[str]:
    """The lines of text, without their line ends.

    "\\x0b", "\\x0c", "\\x1c" to "\\x1e", "\\x85", U+2028 and U+2029 stay
    inside the line, where str's own line split would end it.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def data_lines(text: str) -> list[str]:
    """The stripped content of the lines that are neither blank nor comments."""
    return [s for s in map(str.strip, split_lines(text)) if s and s[0] != "#"]


def iter_data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped content) for non-comment lines."""
    for line_no, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield line_no, line


def first_bad_line(
    text: str, parse_block: Callable[[list[str]], object], start: int = 0
) -> tuple[int, str]:
    """(line number, reason) of the first data line of text, from the
    start-th on, that parse_block rejects on its own, for data lines that it
    rejects as a whole.

    parse_block returns a str, the reason, for the lines it rejects, and
    rejects a block exactly where it rejects one of its lines alone. So the
    failing span is halved: about log2(n) calls that parse n lines in all,
    instead of one call per line.
    """
    numbered = list(iter_data_lines(text))[start:]
    lines = [line for _, line in numbered]
    low, high = 0, len(lines)
    while high - low > 1:
        mid = (low + high) // 2
        if isinstance(parse_block(lines[low:mid]), str):
            high = mid
        else:
            low = mid
    return numbered[low][0], parse_block(lines[low : low + 1])
