"""Print one line per benchmark op of a source tree: its first and best wall
times.

    python tools/op_time.py --root TREE --workload W --seed N [--kind K]
                            [--n N] [--repeats R]

The ops are those of ``op_digest.py``, with their inputs made the same way
(``kind.make(n, default_rng([N, kind index, n, draw]))``), restricted to
kind K and size n when given.  Each op's inputs are made once, outside the
timing, and its ``run`` is called R times (default 5): the line gives the
first call's wall time and the best of the R, in ms.  The first call fills
first-use caches, such as scipy's import and the spline memos of
``_splines`` for nodes no earlier op used, so it shows an op's cold cost;
with R > 1 the best time excludes them.  BLAS runs on one thread, as in
``perfbench/run.py``.  An op that raises prints its error instead.  Run
two trees one after the other on an idle machine to compare their ops.

Nothing is written into TREE.  Needs only the standard library and numpy
(and what TREE itself imports).
"""

import time

from op_digest import ops, tree_args


def time_lines(workload: str, seed: int, kind, n, repeats: int):
    for name, k, size, rng in ops(workload, seed):
        if kind not in (None, k.name) or n not in (None, size):
            continue
        try:
            inputs = k.make(size, rng)
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                k.run(inputs)
                times.append(time.perf_counter() - t0)
        except Exception as e:  # the op's error is its outcome
            yield f"{name}: {type(e).__name__}: {e}"
            continue
        yield (f"{name}: first {times[0] * 1e3:.2f} ms, "
               f"best {min(times) * 1e3:.2f} ms of {repeats}")


def main() -> None:
    args = tree_args(__doc__.split("\n\n")[0],
                     ("--kind", {"help": "time this kind only"}),
                     ("--n", {"type": int, "help": "time this size only"}),
                     ("--repeats", {"type": int, "default": 5}))
    for line in time_lines(args.workload, args.seed, args.kind, args.n,
                           args.repeats):
        print(line, flush=True)


if __name__ == "__main__":
    main()
