"""What `import ectshape.cli` costs a fresh process: every `ect-shape` call
pays it before any work, so it loads no module the program does not use,
the dataclasses module included: its value types are NamedTuples, which
cost a seventh as much to build as a dataclass, and the functions where
input enters check it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# stdlib packages the program has no use for: importlib.metadata (which pulls
# in email) would only give the version string, and xml.sax (which pulls in
# urllib, http, ssl and email) only an escape function
UNUSED = ("importlib.metadata", "xml.sax", "urllib.request", "http.client", "ssl", "email")

# modules that `site` loaded before the import are not counted
CHILD = """
import sys
before = set(sys.modules)
import ectshape.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


# the value types make no dataclass, so the import loads no dataclasses
# module; numpy does not load it either
DATACLASS_CHILD = """
import sys
import numpy
import ectshape.cli
assert "dataclasses" not in sys.modules, "the import loaded dataclasses"
"""


def run_child(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_cli_loads_no_unused_stdlib_package():
    new = run_child(CHILD)
    assert "ectshape.cli" in new
    loaded = [m for m in new if any(m == u or m.startswith(u + ".") for u in UNUSED)]
    assert loaded == []


def test_import_cli_loads_no_dataclasses():
    run_child(DATACLASS_CHILD)
