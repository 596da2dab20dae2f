"""Print one line per benchmark op of a source tree: its error or a digest.

    python tools/op_digest.py --root TREE --workload W --seed N

For every kind of workload W, every n in (201, 801) and every draw of the
kind, the op's inputs are made as the benchmark makes them
(``kind.make(n, default_rng([N, kind index, n, draw]))``) and its ``run`` is
called once.  The line names the op and holds either the type and message
of the error it raised, or a sha256 over every array, number, string,
``Check`` and ``Report`` of its result followed by the figures the op's gate
reads (``workloads.judge``'s ``accuracy``, as name=repr).  Two trees that
print the same lines compute the same outputs, bit for bit, on those ops;
diff the two outputs.  Where a digest differs, its figures show how far the
op moved against its gate's bounds.

The library is imported from TREE/src and the workloads from
TREE/perfbench/workloads.py.  Nothing is written into TREE.  BLAS runs on
one thread, as in ``perfbench/run.py``, so that sums are taken in one order.
Needs only the standard library and numpy (and what TREE itself imports).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (201, 801)


def feed(h, x) -> None:
    """Add ``x`` to the hash ``h``, with its type and shape, recursively
    through tuples, lists, dicts and dataclasses (their fields only)."""
    if isinstance(x, np.ndarray):
        h.update(f"ndarray {x.dtype.str} {x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif x is None or isinstance(x, (bool, int, float, str, np.generic)):
        # repr round-trips a float exactly and names a numpy scalar's type
        h.update(f"{type(x).__name__} {x!r}".encode())
    elif isinstance(x, (tuple, list)):
        h.update(f"{type(x).__name__} {len(x)}".encode())
        for y in x:
            feed(h, y)
    elif isinstance(x, dict):
        h.update(f"dict {len(x)}".encode())
        for k in sorted(x, key=repr):
            feed(h, k)
            feed(h, x[k])
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            feed(h, getattr(x, f.name))
    else:
        raise TypeError(f"cannot digest a {type(x).__name__}")


def ops(workload: str, seed: int):
    """(name, kind, n, rng) of every op of ``workload``, in order; the op
    is ``kind.run(kind.make(n, rng))``."""
    import workloads as wl

    kinds, _ = wl.WORKLOADS[workload]
    for index, kind in enumerate(kinds):
        for n in SIZES:
            for draw in range(kind.draws):
                yield (f"{workload} {kind.name} n={n} draw={draw}", kind, n,
                       np.random.default_rng([seed, index, n, draw]))


def digest_lines(workload: str, seed: int):
    import workloads as wl

    for name, kind, n, rng in ops(workload, seed):
        try:
            inputs = kind.make(n, rng)
            result = kind.run(inputs)
        except Exception as e:  # the op's error is its outcome
            yield f"{name}: {type(e).__name__}: {e}"
            continue
        h = hashlib.sha256()
        feed(h, result)
        # judge reads the op's kind and inputs, not its seed
        accuracy = wl.judge(wl.Op(kind, n, None, inputs), result).accuracy
        yield " ".join([f"{name}: {h.hexdigest()}"] + [
            f"{k}={v!r}" for k, v in accuracy.items()])


def tree_args(description: str, *options) -> argparse.Namespace:
    """--root, --workload and --seed, then each (flag, ``add_argument``
    keywords) of ``options``, with TREE/src and TREE/perfbench put first
    on the import path and no bytecode written into TREE."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--root", required=True, type=Path,
                   help="source tree holding src/ and perfbench/")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    for flag, kwargs in options:
        p.add_argument(flag, **kwargs)
    args = p.parse_args()
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    return args


def main() -> None:
    args = tree_args(__doc__.split("\n\n")[0])
    for line in digest_lines(args.workload, args.seed):
        print(line, flush=True)


if __name__ == "__main__":
    main()
