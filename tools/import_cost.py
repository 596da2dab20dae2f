"""Print the cold import time of each library module of a source tree, and
whether importing it loads scipy.interpolate.

    python tools/import_cost.py --root TREE [--repeats N]

Each of ``chebylift.numerics``, ``minkowski``, ``chebnet``, ``lift`` and
``bjorling``, and then all five together, is imported in N fresh
interpreters (default 5).  A line gives the median seconds from the import
statement to its end, which counts numpy, scipy and whatever else the
module pulls in, but not interpreter start-up, and says whether
``scipy.interpolate`` was in ``sys.modules`` afterwards.  Run it on two
trees to compare their import cost.

Bytecode is cached in a temporary directory, filled by one unmeasured
import per line, so that no run pays for compiling and nothing is written
into TREE.  BLAS gets one thread, as in ``perfbench/run.py``.  Needs only
the standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("numerics", "minkowski", "chebnet", "lift", "bjorling")
CHILD = """
import json, sys, time
t0 = time.perf_counter()
import {imports}
print(json.dumps([time.perf_counter() - t0,
                  "scipy.interpolate" in sys.modules]))
"""


def cold_import(names: list, env: dict) -> tuple:
    """(seconds, scipy.interpolate loaded) of one import of ``names`` in a
    fresh interpreter."""
    code = CHILD.format(imports=", ".join(f"chebylift.{m}" for m in names))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return tuple(json.loads(out))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", required=True, type=Path,
                   help="source tree holding src/chebylift")
    p.add_argument("--repeats", type=int, default=5,
                   help="fresh interpreters per module (default 5)")
    args = p.parse_args()
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPATH": str(args.root.resolve() / "src"),
               "PYTHONPYCACHEPREFIX": cache,
               **{var: "1" for var in THREAD_VARS}}
        for names in [[m] for m in MODULES] + [list(MODULES)]:
            cold_import(names, env)
            runs = [cold_import(names, env) for _ in range(args.repeats)]
            loaded = "yes" if any(r[1] for r in runs) else "no"
            label = "all five" if len(names) > 1 else f"chebylift.{names[0]}"
            print(f"{label}: {statistics.median(r[0] for r in runs):.3f} s "
                  f"(median of {args.repeats}), scipy.interpolate loaded: "
                  f"{loaded}", flush=True)


if __name__ == "__main__":
    main()
