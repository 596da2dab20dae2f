"""``tools/src_lines.py`` splits every library line into exactly one part:
per module and in total, code + docstring + comment + blank is the plain
line count of the files."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_parts_sum_to_line_counts():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py")],
        capture_output=True, text=True, check=True).stdout.splitlines()
    rows = {name: [int(x) for x in nums]
            for name, *nums in (line.split() for line in out[1:])}
    files = sorted((ROOT / "src" / "chebylift").glob("*.py"))
    wc = {f.name: f.read_text().count("\n") for f in files}
    assert sorted(rows) == sorted(wc) + ["total"]
    for name, (lines, *parts) in rows.items():
        assert lines == sum(parts) == wc.get(name, sum(wc.values())), name
    # every part occurs in the library
    assert all(rows["total"][1:])


def test_parts_of_a_sample():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from src_lines import count
    finally:
        sys.path.pop(0)
    sample = ('"""Module\ndocstring."""\n# comment\nx = 1  # trailing\n\n'
              'def f():\n    """Doc."""\n    s = """a\n\nb"""\n    return s\n')
    # a blank line inside a code string is code
    assert count(sample) == {"code": 6, "docstring": 3, "comment": 1,
                             "blank": 1}
