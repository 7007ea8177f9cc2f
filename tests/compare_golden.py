"""Compare the golden commands of this tree with those of another checkout.

    python tests/compare_golden.py OTHER_ROOT

Runs every command of ``test_golden.CASES`` on ``tests/golden/baseline.cfg``,
:func:`test_golden.mc_grid` and the commands of ``REFUSALS``, once on this
tree's ``src/`` and once on ``OTHER_ROOT/src``, each in a child process.
Prints ``byte-identical`` when every output, standard error and exit status
agree, or else each differing cell (this tree's value against OTHER_ROOT's)
with its relative difference, and each differing exit status or standard
error, and then exits 1.  Nothing is written under ``tests/golden/``.
"""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(ROOT / "src"))

from test_cli import REFUSED  # noqa: E402
from test_golden import CASES, CONFIG  # noqa: E402

MC_GRID_RUN = (f"import json, sys; sys.path.insert(0, {str(TESTS)!r}); "
               "from test_golden import mc_grid; print(json.dumps(mc_grid(), sort_keys=True))")


# Commands that are refused: one token outside each key's domain, on the
# baseline config, and inputs whose squares underflow.
TINY = ["--wa", "0", "--v", "1", "--dist", "geom:3", "--pickers", "5", "--lambda", "51"]
SLOW = ["--k", "3", "--l", "20", "--wa", "2.5", "--v", "1e-300", "--dist", "geom:3"]
REFUSALS = ([["moments", str(CONFIG), "--heuristic" if key == "heuristics" else "--" + key.replace("_", "-"), token]
             for key, token in REFUSED.items()]
            + [["moments", *SLOW, "--pick-mean", "5", "--pick-scv", "1"],
               ["simulate", *SLOW, "--pick-mean", "5", "--pick-scv", "1", "--samples", "1000"],
               ["layout", *SLOW[4:], "--total-length", "100", "--k-min", "2", "--k-max", "3"],
               ["leadtime", "--k", "3", "--l", "1e-200", *TINY],
               ["layout", "--total-length", "1e-200", "--k-min", "2", "--k-max", "3", *TINY]])


def run(root: Path, args: list[str]) -> tuple[int, bytes, bytes]:
    """Exit status, standard output and standard error of ``python args`` on
    ``root/src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, cwd=root)
    return proc.returncode, proc.stdout, proc.stderr


def status_differences(name: str, mine: tuple, theirs: tuple) -> list[str]:
    """The exit status and standard error of two runs, where they differ."""
    differences = []
    if mine[0] != theirs[0]:
        differences.append(f"{name}: exit {mine[0]} against {theirs[0]}")
    if mine[2] != theirs[2]:
        differences.append(f"{name}: stderr {mine[2].decode()!r} against {theirs[2].decode()!r}")
    return differences


def relative(a: str, b: str) -> str:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return "text"
    return f"{abs(x - y) / abs(y):.3g}" if y else f"{abs(x - y):.3g} absolute"


def csv_differences(name: str, mine: bytes, theirs: bytes) -> list[str]:
    rows = [list(csv.reader(io.StringIO(out.decode()))) for out in (mine, theirs)]
    if len(rows[0]) != len(rows[1]) or rows[0][:1] != rows[1][:1]:
        return [f"{name}: {len(rows[0])} rows against {len(rows[1])}, or another header"]
    header = rows[0][0]
    return [f"{name}: row {row_a[:3]} {column}: {a} against {b} (relative {relative(a, b)})"
            for row_a, row_b in zip(*rows) for column, a, b in zip(header, row_a, row_b) if a != b]


def grid_differences(mine: bytes, theirs: bytes) -> list[str]:
    a, b = json.loads(mine), json.loads(theirs)
    if a.keys() != b.keys():
        return ["mc_grid: other cells"]
    return [f"mc_grid: {cell} {h} {f}: {a[cell][h][f]} against {b[cell][h][f]} "
            f"(relative {relative(a[cell][h][f], b[cell][h][f])})"
            for cell in a for h in a[cell] for f in a[cell][h] if a[cell][h][f] != b[cell][h].get(f)]


def main(other: Path) -> int:
    differences = []
    for name, (flags, _) in CASES.items():
        args = ["-m", "pickroute", name, str(CONFIG), *flags]
        mine, theirs = run(ROOT, args), run(other, args)
        differences += status_differences(name, mine, theirs)
        if mine[1] != theirs[1]:
            differences += csv_differences(name, mine[1], theirs[1]) or [f"{name}: the bytes differ"]
    mine, theirs = run(ROOT, ["-c", MC_GRID_RUN]), run(other, ["-c", MC_GRID_RUN])
    if mine[0] or theirs[0]:
        differences.append(f"mc_grid: exit {mine[0]} against {theirs[0]}")
    else:
        differences += status_differences("mc_grid", mine, theirs)
        if mine[1] != theirs[1]:
            differences += grid_differences(mine[1], theirs[1]) or ["mc_grid: the bytes differ"]
    for command in REFUSALS:
        args = ["-m", "pickroute", *command]
        differences += status_differences(" ".join(command), run(ROOT, args), run(other, args))
    print("\n".join(differences) if differences else "byte-identical")
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1]).resolve()))
