"""Warehouse-shape sweeps at fixed total aisle length.

Varying the aisle count k while holding k*l fixed trades a long narrow
warehouse against a short wide one.  Each (k, heuristic) cell carries the
picking-time mean and, when a queue scenario is given, the mean lead time.
A cell whose queue is unstable has no lead time, and a cell whose moments
fail numerically (``ArithmeticError``, such as a negative variance from lost
precision or an ``IntegrationError``) has NaN E[T]; both render as NA without
aborting the sweep, and nothing is logged: ``pickroute moments`` at that k and
heuristic states the reason.  Any other error, such as an invalid argument or
an unknown heuristic name, raises.
"""
from __future__ import annotations

from dataclasses import dataclass

from .heuristics import HEURISTICS, PickTimeModel, WarehouseConfig, compute_moments
from .orderdist import OrderSizeDistribution, as_count, as_real
from .queueing import QueueScenario, lead_time_estimate

__all__ = ["LayoutCell", "LayoutRow", "NoFeasibleLayoutError", "layout_sweep", "recommend"]

_METRICS = ("mean_pick_time", "lead_time")


class NoFeasibleLayoutError(ValueError):
    """Every candidate cell is NA for the requested metric."""


@dataclass(frozen=True)
class LayoutCell:
    e_t: float          # NaN when the cell failed
    e_r: float | None   # None: unstable queue or no scenario requested


@dataclass(frozen=True)
class LayoutRow:
    k: int
    l: float
    cells: dict  # heuristic name -> LayoutCell


def layout_sweep(total_length: float, k_range, wa: float, v: float,
                 dist: OrderSizeDistribution, pick: PickTimeModel,
                 scenario: QueueScenario | None = None,
                 heuristics=HEURISTICS) -> list[LayoutRow]:
    """One row per k in ``k_range``, with l = total_length / k."""
    as_real(total_length, "total aisle length", positive=True)
    ks = sorted({as_count(k, "aisle count in k_range") for k in k_range})
    if not ks:
        raise ValueError("k_range must contain integers >= 1")
    if isinstance(heuristics, str):
        raise ValueError(f"heuristics must be a sequence of names, got the string {heuristics!r}")

    rows = []
    for k in ks:
        l = total_length / k
        cfg = WarehouseConfig(k=k, l=l, wa=wa, v=v)
        cells = {}
        for h in heuristics:
            try:
                report = compute_moments(cfg, dist, pick, h)
            except ArithmeticError:
                cells[h] = LayoutCell(float("nan"), None)
                continue
            e_r = None
            if scenario is not None:
                e_r = lead_time_estimate(report, scenario).e_r
            cells[h] = LayoutCell(report.e_t, e_r)
        rows.append(LayoutRow(k, l, cells))
    return rows


def recommend(rows, metric: str) -> tuple[int, str]:
    """(k, heuristic) minimizing the metric; ties prefer smaller k, then the
    heuristic order return, midpoint, largest-gap, s-shaped."""
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    best = None
    best_val = None
    for row in rows:
        for h in HEURISTICS:
            cell = row.cells.get(h)
            if cell is None:
                continue
            value = cell.e_t if metric == "mean_pick_time" else cell.e_r
            if value is None or value != value:  # NA or NaN
                continue
            if best_val is None or value < best_val:
                best_val = value
                best = (row.k, h)
    if best is None:
        raise NoFeasibleLayoutError(f"no feasible cell for metric {metric!r}")
    return best
