"""List every `raise` statement under src/ that the test suite never executes.

    PYTHONPATH=src python scripts/raise_coverage.py [pytest arguments]

Runs pytest in this process (default: the tier-1 suite, `-q`) under a stdlib
`sys.settrace` line tracer that records only the lines of files under src/, then
prints each `raise` statement whose first line never ran, as path:line.  A bare
`raise` counts like any other.  Exit status: pytest's own when the suite fails, else 1
when a `raise` was missed and 0 when every one ran.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def raise_lines(root: Path) -> dict[str, set[int]]:
    """The first line of every `raise` statement, by the real path of its .py file."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
        if lines:
            found[os.path.realpath(path)] = lines
    return found


def executed_lines(files: set[str], run) -> tuple[object, dict[str, set[int]]]:
    """run()'s result, and the lines it executed in `files` (real paths), in every thread."""
    hit: dict[str, set[int]] = {path: set() for path in files}
    # co_filename -> its file's line tracer, or None if not traced.  One tracer per file,
    # not a closure per call: a closure that returns itself is a reference cycle, and
    # the garbage it leaves per traced call would show in the suite's memory tests.
    by_name: dict[str, object] = {}

    def line_tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            lines = hit.get(os.path.realpath(name))
            by_name[name] = None if lines is None else line_tracer(lines)
        return by_name[name]  # a global tracer sees only "call" events

    outer = sys.gettrace(), threading.gettrace()  # a tracer already running resumes after
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, hit


def main(argv: list[str]) -> int:
    targets = raise_lines(SRC)
    status, hit = executed_lines(set(targets), lambda: pytest.main(argv or ["-q"]))
    if status != 0:
        return int(status)
    missed = [
        (path, line) for path, lines in targets.items() for line in sorted(lines - hit[path])
    ]
    total = sum(len(lines) for lines in targets.values())
    for path, line in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line}")
    print(f"{total - len(missed)} of {total} raise statements under src/ executed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
