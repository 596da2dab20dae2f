"""Print the line count of each library module, split into code, docstring,
comment and blank lines.

    python tools/src_lines.py [--root TREE]

One line per ``TREE/src/chebylift/*.py`` and a total line.  The four parts
of a module sum to its ``wc -l`` count (its newline characters).  A line
is docstring when it lies in the docstring of the module, a class or a
function; else code when it holds a token other than a comment, or lies
inside a string that spans lines; else comment when it holds a comment;
else blank.  Simplifying a module should cut its code lines, not only its
docstrings.  Needs only the standard library.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PARTS = ("code", "docstring", "comment", "blank")
#: tokens that put no code on their line
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """The parts of ``text``'s newline-terminated lines."""
    doc = docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(PARTS, 0)
    for i in range(1, text.count("\n") + 1):
        part = ("docstring" if i in doc else "code" if i in code
                else "comment" if i in comment else "blank")
        out[part] += 1
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=Path(__file__).resolve().parents[1],
                    type=Path, help="source tree (default: this checkout)")
    args = ap.parse_args()
    total = dict.fromkeys(PARTS, 0)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{p:>11}" for p in PARTS))
    for path in sorted((args.root / "src" / "chebylift").glob("*.py")):
        parts = count(path.read_text())
        for p in PARTS:
            total[p] += parts[p]
        print(f"{path.name:<16}{sum(parts.values()):>7}"
              + "".join(f"{parts[p]:>11}" for p in PARTS))
    print(f"{'total':<16}{sum(total.values()):>7}"
          + "".join(f"{total[p]:>11}" for p in PARTS))


if __name__ == "__main__":
    main()
