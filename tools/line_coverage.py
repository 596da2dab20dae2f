"""Print the statements of src/chebylift/ that a pytest run never executes.

    python tools/line_coverage.py [pytest args]

Runs pytest in this process (with the given arguments, from the current
directory) under a ``sys.settrace`` tracer that records the lines executed
in the modules of src/chebylift/, then prints, per module, the statement
lines that never ran.  The statements of a module are the ``ast.stmt``
nodes of its source, docstrings excluded; a statement counts as run when a
line event fires on its first line.  The library is imported from this
tree's src/, which goes first on ``sys.path``.  Exits with pytest's status.
Standard library only (pytest itself runs the tests).
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PKG = SRC / "chebylift"


def statement_lines(path: Path) -> set:
    """First lines of the statements of the module at ``path``, without the
    docstrings of the module, its classes and its functions."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                docstrings.add(first)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docstrings}


def run(args: list) -> tuple:
    """pytest's exit status on ``args`` and {module path: lines run}."""
    import pytest

    modules = {os.path.realpath(p) for p in PKG.glob("*.py")}
    hits = defaultdict(set)
    traced = {}             # co_filename -> module path, or None

    def local(frame, event, arg):
        if event == "line":
            hits[traced[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            real = os.path.realpath(name)
            traced[name] = real if real in modules else None
        return local if traced[name] is not None else None

    sys.path.insert(0, str(SRC))
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    status, hits = run(sys.argv[1:])
    missed_total = 0
    print()
    for path in sorted(PKG.glob("*.py")):
        stmts = statement_lines(path)
        missed = sorted(stmts - hits[os.path.realpath(path)])
        missed_total += len(missed)
        print(f"{path.name}: {len(stmts) - len(missed)} of {len(stmts)} "
              "statements run" + "".join(f"\n  {path.name}:{line}"
                                         for line in missed))
    print(f"{missed_total} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
