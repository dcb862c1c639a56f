"""tests/src_lines.py, run as its usage line says, on the package."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).parent / "src_lines.py"
PACKAGE = Path(__file__).parent.parent / "src" / "gbsdelab"


def _run(*args):
    """The tool's output rows, each split at whitespace, header dropped."""
    out = subprocess.run([sys.executable, "-B", str(TOOL), *args], capture_output=True,
                         text=True, check=True).stdout
    return [line.split() for line in out.splitlines()[1:]]


def test_module_totals_are_wc_l():
    rows = {name: [int(v) for v in counts] for name, *counts in _run(str(PACKAGE))}
    wc_l = {path.name: path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py")}
    assert {name: counts[-1] for name, counts in rows.items() if name != "total"} == wc_l
    assert all(sum(counts[:-1]) == counts[-1] for counts in rows.values())
    assert rows["total"][-1] == sum(wc_l.values())


def test_functions_sum_to_each_modules_docstring_lines():
    docs = {name: int(counts[0]) for name, *counts in _run(str(PACKAGE))}
    listed = [(int(lines), name) for lines, name in _run("--functions", str(PACKAGE))]
    by_module = Counter()
    for lines, name in listed:
        by_module[name.split(".")[0] + ".py"] += lines
    assert by_module == {name: n for name, n in docs.items() if name != "total" and n}
    assert [lines for lines, _ in listed] == sorted((n for n, _ in listed), reverse=True)
    names = {name for _, name in listed}
    assert {"pde", "pde.solve_stack", "envelope.ScalarGenerator.refute"} <= names
