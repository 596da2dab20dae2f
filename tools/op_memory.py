"""Print one line per benchmark op of a source tree: the memory it keeps
and its peak, in bytes.

    python tools/op_memory.py --root TREE --workload W --seed N

The ops are those of ``op_digest.py``, with their inputs made the same way
(``kind.make(n, default_rng([N, kind index, n, draw]))``).  Each op's
``run`` is called once untraced, so that first-use caches are filled, and
once more on fresh inputs under ``tracemalloc``: ``kept`` is the traced
memory still allocated when ``run`` returns, which is what its result
holds, and ``peak`` the traced peak during the call.  Inputs are made
before tracing starts and count in neither.  numpy reports its array
buffers to ``tracemalloc``, so both figures include every array.  An op
that raises prints its error instead.  Diff the outputs of two trees to see
a memory change op by op.

Nothing is written into TREE.  Needs only the standard library and numpy
(and what TREE itself imports).
"""

import tracemalloc

from op_digest import ops, tree_args


def memory_lines(workload: str, seed: int):
    for name, kind, n, rng in ops(workload, seed):
        state = rng.bit_generator.state
        try:
            kind.run(kind.make(n, rng))
            rng.bit_generator.state = state
            inp = kind.make(n, rng)
            tracemalloc.start()
            try:
                result = kind.run(inp)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        except Exception as e:  # the op's error is its outcome
            yield f"{name}: {type(e).__name__}: {e}"
            continue
        del result
        yield f"{name}: kept {kept} peak {peak}"


def main() -> None:
    args = tree_args(__doc__.split("\n\n")[0])
    for line in memory_lines(args.workload, args.seed):
        print(line, flush=True)


if __name__ == "__main__":
    main()
