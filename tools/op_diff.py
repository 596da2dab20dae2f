"""Print how far each benchmark op moved between two ``op_digest.py`` dumps.

    python tools/op_diff.py A B

A and B are directories written by ``op_digest.py --dump``, one .npz per
op.  For each op in either, one line: "identical" when every array is
equal (NaN where NaN), else the number of arrays that moved and the
largest absolute move max |a - b| and relative move max |a - b| / max |b|
over the op's float arrays, each with the array's path in the result.  An
indented line follows for each array that moved: its two moves, or why
they are not measured (integers that differ, such as a check's worst node,
NaN at other nodes, another shape, or an array on one side only).  Needs
only the standard library and numpy.
"""

import argparse
from pathlib import Path

import numpy as np


def move(a: np.ndarray, b: np.ndarray):
    """None when ``a`` equals ``b``, else (absolute, relative) move of two
    float arrays of one shape, or a string saying why it is not measured."""
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    if a.dtype.kind != "f" or b.dtype.kind != "f":
        return None if np.array_equal(a, b) else "differs"
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return "NaN at other nodes"
    same = (a == b) | np.isnan(a)   # equal infinities included
    if same.all():
        return None
    d = np.abs(a[~same] - b[~same])
    scale = np.abs(b[np.isfinite(b)]).max(initial=0.0)
    return d.max(), d.max() / scale if scale else np.inf


def op_lines(name: str, a: dict, b: dict):
    """The lines of the op ``name`` from its two dumps, arrays by path."""
    moved = {}
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            moved[key] = f"only in {'A' if key in a else 'B'}"
        elif (m := move(a[key], b[key])) is not None:
            moved[key] = m
    if not moved:
        yield f"{name}: identical"
        return
    sized = {k: m for k, m in moved.items() if not isinstance(m, str)}
    head = [f"{len(moved)} of {len(set(a) | set(b))} arrays moved"]
    for i, kind in enumerate(("abs", "rel")):
        if sized:
            key = max(sized, key=lambda k: sized[k][i])
            head.append(f"max {kind} {sized[key][i]:.3e} at {key}")
    yield f"{name}: " + "; ".join(head)
    for key, m in moved.items():
        yield f"    {key}: " + (m if isinstance(m, str)
                                 else f"abs {m[0]:.3e} rel {m[1]:.3e}")


def load(path: Path):
    """The arrays of one dump file by key, or None when it is missing."""
    if not path.exists():
        return None
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("A", type=Path)
    p.add_argument("B", type=Path)
    args = p.parse_args()
    files = sorted({f.name for d in (args.A, args.B) for f in d.glob("*.npz")})
    for file in files:
        op = file[:-len(".npz")].replace("_", " ")
        a, b = load(args.A / file), load(args.B / file)
        if a is None or b is None:
            print(f"{op}: only in {'A' if b is None else 'B'}")
        else:
            for line in op_lines(op, a, b):
                print(line)


if __name__ == "__main__":
    main()
