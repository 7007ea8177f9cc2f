"""Compare the golden commands of this tree with those of another checkout.

    python tests/compare_golden.py OTHER_ROOT

Runs every command of ``test_golden.CASES`` on ``tests/golden/baseline.cfg``,
and :func:`test_golden.mc_grid`, once on this tree's ``src/`` and once on
``OTHER_ROOT/src``, each in a child process.  Prints ``byte-identical`` when
every output and exit status agree, or else each differing cell (this
tree's value against OTHER_ROOT's) with its relative difference, and then
exits 1.  Nothing is written under ``tests/golden/``.
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

from test_golden import CASES, CONFIG  # noqa: E402

MC_GRID_RUN = (f"import json, sys; sys.path.insert(0, {str(TESTS)!r}); "
               "from test_golden import mc_grid; print(json.dumps(mc_grid(), sort_keys=True))")


def run(root: Path, args: list[str]) -> tuple[int, bytes]:
    """Exit status and standard output of ``python args`` on ``root/src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, cwd=root)
    if proc.stderr:
        sys.stderr.buffer.write(proc.stderr)
    return proc.returncode, proc.stdout


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
        (status, mine), (other_status, theirs) = run(ROOT, args), run(other, args)
        if status != other_status:
            differences.append(f"{name}: exit {status} against {other_status}")
        if mine != theirs:
            differences += csv_differences(name, mine, theirs) or [f"{name}: the bytes differ"]
    (status, mine), (other_status, theirs) = run(ROOT, ["-c", MC_GRID_RUN]), run(other, ["-c", MC_GRID_RUN])
    if status or other_status:
        differences.append(f"mc_grid: exit {status} against {other_status}")
    elif mine != theirs:
        differences += grid_differences(mine, theirs) or ["mc_grid: the bytes differ"]
    print("\n".join(differences) if differences else "byte-identical")
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1]).resolve()))
