"""Output artifact plumbing: provenance headers and atomic file writes."""

from __future__ import annotations

import itertools
import os
from datetime import datetime, timezone

from . import __version__ as TOOL_VERSION

TIMESTAMP_PREFIX = "# timestamp:"


def config_echo(config: dict) -> str:
    """`key=value` pairs on one line, with every character that is not
    printable (a newline, a tab, any other control or line-separator
    character) escaped as Python writes it in a string literal, `\\n` for a
    newline. A value of printable characters keeps its bytes."""
    echo = " ".join(f"{key}={config[key]}" for key in sorted(config))
    if echo.isprintable():
        return echo
    return "".join(
        c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
        for c in echo
    )


def artifact_header(config: dict, seed: int | None = None) -> list[str]:
    """Comment lines recording how an artifact was produced.

    The timestamp is the only line that varies between reruns of the same
    config; comparisons must go through comparable_artifact.
    """
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [
        f"# ectshape {TOOL_VERSION}",
        f"{TIMESTAMP_PREFIX} {stamp}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.append(f"# config: {config_echo(config)}")
    return lines


def _xml_comment(line: str) -> str:
    """A `# ` header line as an XML comment. XML forbids `--` inside a
    comment, so a space goes between every two adjacent hyphens."""
    text = line.removeprefix("# ")
    while "--" in text:
        text = text.replace("--", "- -")
    return f"<!-- {text} -->\n"


def comparable_artifact(text: str) -> str:
    """Artifact text with the timestamp header line, in either form,
    dropped, for bit-exact comparison of reruns."""
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.strip().startswith((TIMESTAMP_PREFIX, "<!-- timestamp:"))
    )


# numbers the temp files of this process
_tmp_serial = itertools.count()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see a torn file.

    The temp file is created with mode 0o666 less the umask, as `open()`
    would create it, and the rename keeps that mode.
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp_path = os.path.join(
            directory, f".ectshape-{os.getpid()}-{next(_tmp_serial)}.tmp"
        )
        try:
            fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # left by an earlier process with this pid
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_artifact(path: str, text: str, config: dict, seed: int | None = None) -> None:
    """Write text under the artifact header, atomically.

    The header is `#` lines, or for a path ending in `.svg` XML comments,
    which are legal before the <svg> root. A text that does not end in a
    newline gets one.
    """
    header = artifact_header(config, seed)
    if path.endswith(".svg"):
        head = "".join(map(_xml_comment, header))
    else:
        head = "\n".join(header) + "\n"
    if text and not text.endswith("\n"):
        text += "\n"
    atomic_write_text(path, head + text)
