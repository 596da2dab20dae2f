"""The benchmark in ``perfbench/`` can still read the library.

Each kind of each benchmark workload runs once at n = 201 (seed 1, draw 0)
through the workload's own ``make``, ``run`` and ``judge``: every output
must be readable by its gate and pass it, and every raise must be a
``ChebyliftError``, as a reject kind expects.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from chebylift.errors import ChebyliftError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
