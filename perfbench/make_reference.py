"""Regenerate ``reference.json``: the analytic values every benchmark op is
checked against.

The values are pickroute's own outputs at the commit that defined the
benchmark.  Regenerate them only when a change to the numbers is intended and
shown to be inside the oracle tolerances; a perf change must leave them alone.

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pickroute import HEURISTICS, WarehouseConfig, compute_moments, layout_sweep, parse_dist_spec  # noqa: E402

import workloads as w  # noqa: E402


def main() -> None:
    setup_cfg = WarehouseConfig(k=w.SETUP_K, l=w.L, wa=w.WA, v=w.V)
    ref = {"setup": {h: compute_moments(setup_cfg, parse_dist_spec(w.SETUP_DIST), w.PICK, h).e_t
                     for h in HEURISTICS}}

    rows = layout_sweep(w.LAYOUT_TOTAL, w.LAYOUT_KS, w.WA, w.V, parse_dist_spec(w.LAYOUT_DIST),
                        w.PICK, w.LAYOUT_QUEUE)
    ref["layout-sweep"] = {str(row.k): {h: [c.e_t, c.e_r] for h, c in row.cells.items()}
                           for row in rows}

    ref["mc-validate"] = {}
    for spec in w.VALIDATE_DISTS:
        for k in w.VALIDATE_KS:
            cfg = WarehouseConfig(k=k, l=w.L, wa=w.WA, v=w.V)
            reports = {h: compute_moments(cfg, parse_dist_spec(spec), w.PICK, h) for h in HEURISTICS}
            ref["mc-validate"][f"{k}/{spec}"] = {h: [r.e_t, r.e_t2] for h, r in reports.items()}

    ref["wide-aisles"] = {}
    for k in w.WIDE_KS:
        cfg = WarehouseConfig(k=k, l=w.L, wa=w.WA, v=w.V)
        for spec in w.WIDE_DISTS:
            for h in w.WIDE_HEURISTICS:
                r = compute_moments(cfg, parse_dist_spec(spec), w.PICK, h)
                ref["wide-aisles"][f"{k}/{spec}/{h}"] = [r.e_t, r.e_t2]

    with open(w.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
