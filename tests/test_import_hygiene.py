"""Every name a library module imports is used in that module.

Standard library only: each ``src/chebylift/*.py`` is parsed with ``ast``;
a name counts as used when it occurs as a name anywhere in the module,
including inside string annotations such as ``Optional["Report"]``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chebylift"


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def used_names(tree: ast.Module) -> set:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    strings = [sub.value for ann in annotations if ann is not None
               for sub in ast.walk(ann)
               if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]
    trees = [tree] + [ast.parse(s, mode="eval") for s in strings]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - used_names(tree)
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_string_annotations_count_as_uses():
    tree = ast.parse("from typing import Optional\n"
                     "from .errors import Report\n"
                     "def f(x: Optional['Report']) -> None: ...\n")
    assert imported_names(tree) == {"Optional", "Report"}
    assert imported_names(tree) <= used_names(tree)
    unused = ast.parse("from .errors import Check, Report\n"
                       "def f() -> 'Report': ...\n")
    assert imported_names(unused) - used_names(unused) == {"Check"}
