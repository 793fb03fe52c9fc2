"""What `import ectshape.cli` costs a fresh process: every `ect-shape` call
pays it before any work, so it loads no module the program does not use and
makes few dataclasses, each of which costs about a millisecond to build."""

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


# classes that the dataclass decorator may make during the import; value
# objects that check nothing are NamedTuples, which cost a seventh as much
DATACLASS_BUDGET = 6

# counts the classes made through dataclasses.dataclass, bare or called, and
# fails on one without a __post_init__: a dataclass is only worth its cost
# where it checks its input
DATACLASS_CHILD = """
import dataclasses
made = []
real = dataclasses.dataclass

def counting(cls=None, /, **kwargs):
    def wrap(c):
        made.append(f"{c.__module__}.{c.__qualname__}")
        if "__post_init__" not in vars(c):
            raise TypeError(f"{made[-1]} checks nothing; make it a NamedTuple")
        return real(**kwargs)(c)
    return wrap if cls is None else wrap(cls)

dataclasses.dataclass = counting
import ectshape.cli
print("\\n".join(made))
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


def test_import_cli_makes_few_dataclasses():
    made = run_child(DATACLASS_CHILD)
    assert "ectshape.preprocess.PointCloud2D" in made  # the wrapper saw them
    assert len(made) <= DATACLASS_BUDGET, made
