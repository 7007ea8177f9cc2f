"""The benchmark's three workloads: their inputs, the public calls they make
and the check applied to every output.

Every workload is a list of ops.  An op is one top-level public call into
pickroute plus a check of its result; a pass runs the full list once.  The
checks compare analytic values against ``reference.json`` (made at the commit
that defined the benchmark, see ``make_reference.py``) to 1e-9 relative.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pickroute.cli
import pickroute.heuristics
import pickroute.layout
from pickroute import HEURISTICS, PickTimeModel, QueueScenario, WarehouseConfig

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
Z_GATE = 4.0

# Shared model: 20 m aisles, 2.5 m aisle spacing, 3 km/h (converted as the
# CLI converts it), 5 s mean pick time with squared coefficient of variation 1.
L = 20.0
WA = 2.5
V = 3.0 * (1000.0 / 3600.0)
PICK_MEAN = 5.0
PICK_SCV = 1.0
PICK = PickTimeModel.from_scv(PICK_MEAN, PICK_SCV)

# setup_s: a fresh interpreter imports pickroute and answers one tiny request.
SETUP_K = 2
SETUP_DIST = "det:1"
SETUP_CODE = f"""
import pickroute
from pickroute import HEURISTICS, PickTimeModel, WarehouseConfig, compute_moments, parse_dist_spec
cfg = WarehouseConfig(k={SETUP_K}, l={L!r}, wa={WA!r}, v={V!r})
dist = parse_dist_spec({SETUP_DIST!r})
pick = PickTimeModel.from_scv({PICK_MEAN!r}, {PICK_SCV!r})
print(pickroute.__file__)
for h in HEURISTICS:
    print(h, repr(compute_moments(cfg, dist, pick, h).e_t))
"""

# The published layout table runs k = 2..24; at this commit that takes ~31 s
# per pass, too long to repeat within one run, so the sweep stops at k = 12.
# Largest gap's 2-D quadrature still dominates every row from k = 4 on.  With
# 11 rows the median op (k = 7) sits well apart from its neighbours in cost.
LAYOUT_TOTAL = 100.0
LAYOUT_KS = tuple(range(2, 13))
LAYOUT_DIST = "geom:18"
LAYOUT_QUEUE = QueueScenario(c=5, lam=51 / 3600)   # rho <= 0.80 in every cell

VALIDATE_DISTS = ("det:3", "spois:4", "geom:8", "geom:32", "snbin:3:9")
VALIDATE_KS = (1, 2, 3, 5)
VALIDATE_SAMPLES = 100_000
VALIDATE_HEADER = ["heuristic", "k", "dist", "n", "seed", "quantity",
                   "analytic", "mc", "se", "z"]

# Largest gap is left out: 5-8 s per call at k = 64, and layout-sweep covers it.
WIDE_KS = (32, 48, 64)
WIDE_DISTS = ("geom:32", "snbin:3:9", "spois:4", "det:3")
WIDE_HEURISTICS = ("return", "midpoint", "s-shaped")


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]   # an error message, or None when correct


@dataclass
class Context:
    """What every op of one run shares: the seed, the reference, a directory
    for output files and the first output of each op, which later passes of
    the same inputs must reproduce exactly."""

    seed: int
    reference: dict
    out_dir: Path
    first_output: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    min_passes: int        # passes every run makes; sets the tail percentile
    uses_seed: bool
    probe: str             # host probe its times are scaled by: "python" or "numpy"
    build: Callable        # (Context, dist_of) -> list[Op]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def close(got, want) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)


def _mismatch(what: str, got, want) -> str:
    return f"{what} = {got!r}, reference {want!r}"


def layout_ops(ctx: Context, dist_of) -> list[Op]:
    dist = dist_of(LAYOUT_DIST)
    ref = ctx.reference["layout-sweep"]
    ops = []
    for k in LAYOUT_KS:
        def call(k=k):
            return pickroute.layout.layout_sweep(LAYOUT_TOTAL, [k], WA, V, dist, PICK, LAYOUT_QUEUE)

        def check(rows, k=k, want=ref[str(k)]):
            if len(rows) != 1 or rows[0].k != k:
                return f"expected one row for k={k}"
            for h in HEURISTICS:
                cell = rows[0].cells[h]
                if math.isnan(cell.e_t):
                    return f"{h}: NA cell"
                if not close(cell.e_t, want[h][0]):
                    return _mismatch(f"{h} E_T", cell.e_t, want[h][0])
                if not close(cell.e_r, want[h][1]):
                    return _mismatch(f"{h} E_R", cell.e_r, want[h][1])
            return None

        ops.append(Op(f"k={k}", call, check))
    return ops


def validate_argv(k: int, spec: str, seed: int, out: Path) -> list[str]:
    return ["validate", "--k", str(k), "--l", repr(L), "--wa", repr(WA), "--v", "3 km/h",
            "--dist", spec, "--pick-mean", repr(PICK_MEAN), "--pick-scv", repr(PICK_SCV),
            "--samples", str(VALIDATE_SAMPLES), "--seed", str(seed), "--out", str(out)]


def _check_validate(ctx: Context, label: str, status, out: Path, want: dict):
    text = out.read_text(encoding="utf-8")
    if ctx.first_output.setdefault(label, text) != text:
        return "output differs from an earlier pass with the same seed"
    if status != 0:
        return f"exit status {status}"
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != VALIDATE_HEADER:
        return "unexpected CSV header"
    body = [dict(zip(rows[0], row)) for row in rows[1:]]
    if sorted((r["heuristic"], r["quantity"]) for r in body) != sorted(
            (h, q) for h in HEURISTICS for q in ("E_T", "E_T2")):
        return "unexpected CSV rows"
    for r in body:
        index = 0 if r["quantity"] == "E_T" else 1
        analytic = float(r["analytic"])
        if not close(analytic, want[r["heuristic"]][index]):
            return _mismatch(f"{r['heuristic']} {r['quantity']}", analytic, want[r["heuristic"]][index])
        if not abs(float(r["z"])) <= Z_GATE:
            return f"{r['heuristic']} {r['quantity']}: |z| = {abs(float(r['z']))} > {Z_GATE}"
    return None


def validate_ops(ctx: Context, dist_of) -> list[Op]:
    # The CLI parses the distribution itself; a traced run counts it through
    # the CLI's own binding of parse_dist_spec, so dist_of is not needed here.
    rng = random.Random(ctx.seed)
    out = ctx.out_dir / "validate.csv"
    ops = []
    for spec in VALIDATE_DISTS:
        for k in VALIDATE_KS:
            label = f"{spec} k={k}"
            argv = validate_argv(k, spec, rng.randrange(2 ** 31), out)

            def check(status, label=label, want=ctx.reference["mc-validate"][f"{k}/{spec}"]):
                return _check_validate(ctx, label, status, out, want)

            ops.append(Op(label, lambda argv=argv: pickroute.cli.main(argv), check))
    return ops


def wide_ops(ctx: Context, dist_of) -> list[Op]:
    ref = ctx.reference["wide-aisles"]
    ops = []
    for k in WIDE_KS:
        cfg = WarehouseConfig(k=k, l=L, wa=WA, v=V)
        for spec in WIDE_DISTS:
            dist = dist_of(spec)
            for h in WIDE_HEURISTICS:
                def call(cfg=cfg, dist=dist, h=h):
                    return pickroute.heuristics.compute_moments(cfg, dist, PICK, h)

                def check(report, want=ref[f"{k}/{spec}/{h}"]):
                    if not close(report.e_t, want[0]):
                        return _mismatch("E_T", report.e_t, want[0])
                    if not close(report.e_t2, want[1]):
                        return _mismatch("E_T2", report.e_t2, want[1])
                    return None

                ops.append(Op(f"{h} k={k} {spec}", call, check))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("layout-sweep", min_passes=4, uses_seed=False, probe="python", build=layout_ops),
    Workload("mc-validate", min_passes=2, uses_seed=True, probe="numpy", build=validate_ops),
    Workload("wide-aisles", min_passes=3, uses_seed=False, probe="python", build=wide_ops),
)}
