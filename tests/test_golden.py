"""Golden-file tests: every subcommand on the README baseline config.

The expected CSVs in ``tests/golden/`` were written by the CLI itself; rerun
``python tests/test_golden.py`` to rewrite them after a deliberate numeric
change (and say so in CHANGES.md).  Monte Carlo output must match byte for
byte; analytic cells within 1e-12 relative (z-scores within 1e-9 absolute,
being differences of nearly equal numbers); text cells exactly.
"""
import csv
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pickroute.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = GOLDEN / "baseline.cfg"
MC = ["--samples", "20000", "--seed", "17"]

# name -> (extra flags after the config path, expected exit status)
CASES = {
    "moments": ([], 0),
    "simulate": (MC, 0),
    "leadtime": (["--pickers", "5", "--lambda", "51", "--allow-unstable"], 0),
    "layout": (["--lambda", "51"], 0),
    "validate": (MC, 0),
}
BYTE_EXACT = {"simulate"}
REL_TOL = 1e-12
Z_ABS_TOL = 1e-9


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _cell_matches(column: str, got: str, want: str) -> bool:
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return got == want
    if column == "z":
        return abs(g - w) <= Z_ABS_TOL
    return abs(g - w) <= REL_TOL * abs(w)


def case_args(name: str, out: Path) -> list[str]:
    flags, _ = CASES[name]
    return [name, str(CONFIG), *flags, "--out", str(out)]


def run_case(name: str, out: Path) -> int:
    return main(case_args(name, out))


def assert_matches_golden(name: str, out: Path):
    golden = GOLDEN / f"{name}.csv"
    if name in BYTE_EXACT:
        assert out.read_bytes() == golden.read_bytes()
        return
    with open(out, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    with open(golden, newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for row_got, row_want in zip(got[1:], want[1:]):
        assert len(row_got) == len(header)
        for column, g, w in zip(header, row_got, row_want):
            assert _cell_matches(column, g, w), (name, row_want[:3], column, g, w)


@pytest.mark.parametrize("name", CASES)
def test_golden_csv(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert run_case(name, out) == CASES[name][1]
    assert_matches_golden(name, out)


# A fresh interpreter whose import system refuses scipy: every subcommand
# must run on numpy alone.
BLOCKED_SCIPY_RUN = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not available")
        return None

sys.meta_path.insert(0, RefuseScipy())
from pickroute.cli import main
"""


def test_golden_csv_without_scipy(tmp_path):
    args = [case_args(name, tmp_path / f"{name}.csv") for name in CASES]
    code = BLOCKED_SCIPY_RUN + f"print([main(args) for args in {args!r}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([status for _, status in CASES.values()])
    for name in CASES:
        assert_matches_golden(name, tmp_path / f"{name}.csv")


if __name__ == "__main__":
    for case in CASES:
        status = run_case(case, GOLDEN / f"{case}.csv")
        print(f"{case}: exit {status}", file=sys.stderr)
