"""``tools/op_diff.py`` reads two ``op_digest.py --dump`` directories and
names each op that moved, with its largest absolute and relative move."""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_moves_of_two_dumps(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    same = {"result.x": np.array([1.0, np.nan, np.inf]),
            "result.n": np.array(3)}
    np.savez(a / "w_same_n=5.npz", **same)
    np.savez(b / "w_same_n=5.npz", **same)
    np.savez(a / "w_moved_n=5.npz", x=np.array([1.0, -4.0]), i=np.array(2),
             nan=np.array([0.0, 1.0]), gone=np.zeros(2))
    np.savez(b / "w_moved_n=5.npz", x=np.array([1.0, -3.5]),
             i=np.array(3), nan=np.array([np.nan, 1.0]))
    np.savez(a / "w_error_n=5.npz", error=np.array("w error: BadGrid: x"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_diff.py"), str(a), str(b)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == [
        "w error n=5: only in A",
        "w moved n=5: 4 of 4 arrays moved; max abs 5.000e-01 at x; "
        "max rel 1.429e-01 at x",
        "    gone: only in A",
        "    i: differs",
        "    nan: NaN at other nodes",
        "    x: abs 5.000e-01 rel 1.429e-01",
        "w same n=5: identical",
    ]
