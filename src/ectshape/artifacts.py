"""Output artifact plumbing: provenance headers and atomic file writes."""

from __future__ import annotations

import os
import tempfile
from datetime import datetime, timezone

from . import __version__ as TOOL_VERSION

TIMESTAMP_PREFIX = "# timestamp:"


def config_echo(config: dict) -> str:
    return " ".join(f"{key}={config[key]}" for key in sorted(config))


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


def _is_timestamp_line(line: str) -> bool:
    stripped = line.strip()
    return stripped.startswith("# timestamp:") or stripped.startswith(
        "<!-- timestamp:"
    )


def comparable_artifact(text: str) -> str:
    """Artifact text with the timestamp header line dropped, for bit-exact
    comparison of reruns."""
    return "\n".join(
        line for line in text.splitlines() if not _is_timestamp_line(line)
    )


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ectshape-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_artifact(
    path: str, body_lines: list[str], config: dict, seed: int | None = None
) -> None:
    lines = artifact_header(config, seed) + body_lines
    atomic_write_text(path, "\n".join(lines) + "\n")
