"""Print the cold import time of each library module of a source tree, and
the cold time of the first call of each entry point that fits a spline,
with the scipy subpackages each loads.

    python tools/import_cost.py --root TREE [--repeats N]

Each of ``chebylift.numerics``, ``minkowski``, ``chebnet``, ``lift`` and
``bjorling``, and then all five together, is imported in N fresh
interpreters (default 5).  A line gives the median seconds from the import
statement to its end, which counts numpy, scipy and whatever else the
module pulls in, but not interpreter start-up, and says whether
``scipy.interpolate`` was in ``sys.modules`` afterwards.

Then each entry point runs once in N fresh interpreters, after the library
and its inputs are made: ``bjorling.solve`` on ``helix_data(201, 1.0)``
(from TREE/perfbench/inputs.py), ``lift.isothermal_form`` on the lift of a
first-kind net at n = 101 with its generators, and the same lift with its
grid replaced, which drops the generators, so that the coordinate change
takes Route B, the bicubic fits.  A line gives the median seconds of that
first call and the scipy subpackages in ``sys.modules`` after it.  Run it
on two trees to compare their import cost.

Bytecode is cached in a temporary directory, filled by one unmeasured
import per line, so that no run pays for compiling and nothing is written
into TREE; ``PYTHONDONTWRITEBYTECODE`` is dropped for the children, since
with it set the cache stays empty and every run compiles every module.  BLAS gets one thread, as in ``perfbench/run.py``.  Needs only
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

#: the set-up of each entry point, then its first call, timed
ENTRY_SETUP = """
import json, sys, time
from dataclasses import replace
import numpy as np
from chebylift import bjorling, chebnet, lift, numerics
import inputs
T1, T2 = (numerics.sample_curve(fn, (-1.5, 1.5), 101,
                                cls=numerics.SphereCurve)
          for fn in (lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], -1),
                     lambda t: np.stack([0 * t, np.sin(t), np.cos(t)], -1)))
surf = lift.lift_net(chebnet.build_first_kind(T1, T2, np.zeros(3)))
stale = replace(surf, grid=surf.grid.with_values(surf.grid.values.copy()))
data = inputs.helix_data(201, 1.0)[0]
t0 = time.perf_counter()
{call}
print(json.dumps([time.perf_counter() - t0, sorted(
    m[6:] for m, mod in sys.modules.items() if m.startswith("scipy.")
    and m.count(".") == 1 and not m[6:].startswith("_")
    and hasattr(mod, "__path__"))]))
"""
ENTRIES = {"first solve on helix data": "bjorling.solve(data)",
           "first generator isothermal_form": "lift.isothermal_form(surf)",
           "first Route B isothermal_form": "lift.isothermal_form(stale)"}


def run_child(code: str, env: dict) -> list:
    return json.loads(subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True).stdout)


def cold_import(names: list, env: dict) -> tuple:
    """(seconds, scipy.interpolate loaded) of one import of ``names`` in a
    fresh interpreter."""
    return tuple(run_child(CHILD.format(
        imports=", ".join(f"chebylift.{m}" for m in names)), env))


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
        root = args.root.resolve()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                   (str(root / "src"), str(root / "perfbench"))),
               "PYTHONPYCACHEPREFIX": cache,
               **{var: "1" for var in THREAD_VARS}}
        # the cache fills only where bytecode may be written
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for names in [[m] for m in MODULES] + [list(MODULES)]:
            cold_import(names, env)
            runs = [cold_import(names, env) for _ in range(args.repeats)]
            loaded = "yes" if any(r[1] for r in runs) else "no"
            label = "all five" if len(names) > 1 else f"chebylift.{names[0]}"
            print(f"{label}: {statistics.median(r[0] for r in runs):.3f} s "
                  f"(median of {args.repeats}), scipy.interpolate loaded: "
                  f"{loaded}", flush=True)
        for label, call in ENTRIES.items():
            code = ENTRY_SETUP.format(call=call)
            run_child(code, env)
            runs = [run_child(code, env) for _ in range(args.repeats)]
            loaded = sorted({p for r in runs for p in r[1]})
            print(f"{label}: {statistics.median(r[0] for r in runs):.3f} s "
                  f"(median of {args.repeats}), scipy subpackages loaded: "
                  f"{', '.join(loaded) or 'none'}", flush=True)


if __name__ == "__main__":
    main()
