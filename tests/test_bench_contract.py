"""The benchmark in ``perfbench/`` can still read the library.

Each kind of each benchmark workload runs once at n = 201 (seed 1, draw 0)
through the workload's own ``make``, ``run`` and ``judge``: every output
must be readable by its gate and pass it, and every raise must be a
``ChebyliftError``, as a reject kind expects.  The self-checks that a
traced run (``--trace 1``) gates on must pass too.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chebylift.errors import ChebyliftError

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402

KINDS = [(name, i, kind) for name, (kinds, _) in wl.WORKLOADS.items()
         for i, kind in enumerate(kinds)]


@pytest.mark.parametrize("workload, index, kind", KINDS,
                         ids=[f"{w}-{k.name}" for w, _, k in KINDS])
def test_kind_passes_its_gate(workload, index, kind):
    key = (index, 201, 0)
    op = wl.Op(kind=kind, n=201, seed=(1, *key),
               inputs=kind.make(201, np.random.default_rng([1, *key])))
    result = exc = None
    try:
        result = kind.run(op.inputs)
    except Exception as e:
        exc = e
    assert exc is None or isinstance(exc, ChebyliftError), repr(exc)
    outcome = wl.judge(op, result, exc)
    assert not any("gate could not judge" in e for e in outcome.errors)
    assert outcome.ok, outcome.errors


def test_traced_self_checks_pass():
    # --trace 1 installs the tracer and gates on these checks.  Installing
    # it rebinds library functions for the whole process, so it runs in a
    # child of its own.
    code = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import run, tracer, workloads
tr = tracer.Tracer()
tr.install()
checks = {{"unwrapped_names": tr.unwrapped_names()}}
checks.update(run.count_self_checks(tr, workloads))
print(json.dumps({{"checks": checks, "pass": run.self_checks_pass(checks)}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["checks"]["unwrapped_names"] == []
    assert out["pass"], out["checks"]
