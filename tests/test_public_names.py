"""No public name in the package that nothing uses: every top-level public
function, class and UPPER_CASE constant of src/ectshape appears, as a whole
word, somewhere in the program (src/, demos/ or perfbench/) outside its own
definition. A name that only tests call belongs in tests/reference.py."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "demos", "perfbench")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def public_definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public top-level definition."""
    out = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            names = [n for n in names if CONSTANT.fullmatch(n)]
        else:
            continue
        out += [(n, node.lineno, node.end_lineno) for n in names if not n.startswith("_")]
    return out


def unused_public_names() -> list[str]:
    sources = {
        path: path.read_text().splitlines()
        for d in PROGRAM_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    }
    unused = []
    for path in sorted((ROOT / "src" / "ectshape").rglob("*.py")):
        for name, first, last in public_definitions(path):
            word = re.compile(rf"\b{name}\b")
            used = any(
                word.search(line)
                for other, lines in sources.items()
                for no, line in enumerate(lines, 1)
                if not (other == path and first <= no <= last)
            )
            if not used:
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    return unused


def test_every_public_name_is_used_by_the_program():
    assert unused_public_names() == []
