import math

import pytest

from pickroute import (
    Geometric,
    HEURISTICS,
    NoFeasibleLayoutError,
    PickTimeModel,
    QueueScenario,
    WarehouseConfig,
    compute_moments,
    layout_sweep,
    recommend,
)
from pickroute.layout import LayoutCell, LayoutRow

V = 3000.0 / 3600.0
DIST = Geometric(1 / 18)
PICK = PickTimeModel(0.0, 0.0)


def test_single_k_matches_direct_calls():
    rows = layout_sweep(100.0, [5], 2.5, V, DIST, PICK)
    assert len(rows) == 1
    row = rows[0]
    assert row.k == 5 and row.l == pytest.approx(20.0)
    for h in HEURISTICS:
        direct = compute_moments(WarehouseConfig(5, 20.0, 2.5, V), DIST, PICK, h)
        assert row.cells[h].e_t == pytest.approx(direct.e_t, rel=1e-12)
        assert row.cells[h].e_r is None


def test_total_length_preserved():
    rows = layout_sweep(100.0, range(2, 9), 2.5, V, DIST, PICK)
    for row in rows:
        assert row.k * row.l == pytest.approx(100.0, abs=1e-9)


def test_scenario_adds_lead_times_with_na_cells():
    scenario = QueueScenario(10, 145 / 3600)
    pick = PickTimeModel.from_scv(5.0, 1.0)
    rows = layout_sweep(100.0, range(2, 25), 2.5, V, DIST, pick, scenario)
    return_cells = {row.k: row.cells["return"] for row in rows}
    # heavily loaded narrow-warehouse cells go unstable without killing the sweep
    assert return_cells[2].e_r is None
    assert any(cell.e_r is not None for cell in return_cells.values())
    for row in rows:
        for h in HEURISTICS:
            cell = row.cells[h]
            if cell.e_r is not None:
                assert cell.e_r >= cell.e_t


def test_pick_mean_shifts_rows_uniformly():
    rows_a = layout_sweep(100.0, range(2, 7), 2.5, V, DIST, PickTimeModel(0.0, 0.0))
    rows_b = layout_sweep(100.0, range(2, 7), 2.5, V, DIST, PickTimeModel(5.0, 25.0))
    offset = DIST.mean() * 5.0
    for ra, rb in zip(rows_a, rows_b):
        for h in HEURISTICS:
            diff = rb.cells[h].e_t - ra.cells[h].e_t
            assert diff == pytest.approx(offset, abs=1e-9)


def test_recommend_minimum_and_tie_breaking():
    rows = [
        LayoutRow(2, 50.0, {
            "return": LayoutCell(10.0, 5.0),
            "midpoint": LayoutCell(9.0, None),
        }),
        LayoutRow(4, 25.0, {
            "return": LayoutCell(9.0, 4.0),
            "midpoint": LayoutCell(11.0, 4.0),
        }),
    ]
    assert recommend(rows, "mean_pick_time") == (2, "midpoint")
    assert recommend(rows, "lead_time") == (4, "return")
    # scaling every value leaves the argmin unchanged
    scaled = [LayoutRow(r.k, r.l, {h: LayoutCell(c.e_t * 7.0, None if c.e_r is None else c.e_r * 7.0)
                                   for h, c in r.cells.items()}) for r in rows]
    assert recommend(scaled, "mean_pick_time") == (2, "midpoint")


def test_recommend_reproduces_published_highlights():
    # ten pickers, 145 orders/hour, geometric mean 18, k*l = 100 m, 5 s picks:
    # fastest picking at (8, largest-gap), shortest lead time at (2, s-shaped)
    scenario = QueueScenario(10, 145 / 3600)
    pick = PickTimeModel.from_scv(5.0, 1.0)
    rows = layout_sweep(100.0, range(2, 25), 2.5, V, DIST, pick, scenario)
    assert recommend(rows, "mean_pick_time") == (8, "largest-gap")
    assert recommend(rows, "lead_time") == (2, "s-shaped")


def test_recommend_single_cell_and_errors():
    rows = [LayoutRow(3, 10.0, {"s-shaped": LayoutCell(5.0, None)})]
    assert recommend(rows, "mean_pick_time") == (3, "s-shaped")
    with pytest.raises(NoFeasibleLayoutError):
        recommend(rows, "lead_time")
    with pytest.raises(ValueError):
        recommend(rows, "nonsense")


def test_failed_cell_renders_nan_without_aborting():
    rows = [LayoutRow(2, 50.0, {"return": LayoutCell(float("nan"), None),
                                "midpoint": LayoutCell(3.0, None)})]
    assert recommend(rows, "mean_pick_time") == (2, "midpoint")


def test_layout_sweep_validation():
    with pytest.raises(ValueError):
        layout_sweep(0.0, [2], 2.5, V, DIST, PICK)
    with pytest.raises(ValueError, match="total aisle length must be finite and positive, got inf"):
        layout_sweep(math.inf, [2], 2.5, V, DIST, PICK)
    with pytest.raises(ValueError):
        layout_sweep(100.0, [], 2.5, V, DIST, PICK)
    with pytest.raises(ValueError):
        layout_sweep(100.0, [0, 2], 2.5, V, DIST, PICK)
    with pytest.raises(ValueError):
        layout_sweep(100.0, [2], 2.5, V, DIST, PICK, heuristics=("bogus",))
    # compute_moments checks each name, at the first cell that uses it
    with pytest.raises(ValueError, match="unknown heuristic 'bogus'"):
        layout_sweep(100.0, [2, 3], 2.5, V, DIST, PICK, heuristics=("return", "bogus"))


def test_layout_sweep_refuses_one_name_as_a_string():
    # the string was iterated by character: "unknown heuristic 'r'"
    with pytest.raises(ValueError, match="sequence of names, got the string 'return'"):
        layout_sweep(100.0, [2], 2.5, V, DIST, PICK, heuristics="return")
    assert list(layout_sweep(100.0, [2], 2.5, V, DIST, PICK, heuristics=("return",))[0].cells) == ["return"]


def test_numerical_failure_is_one_na_cell(monkeypatch):
    import pickroute.layout as layout_mod
    from pickroute.quadrature import IntegrationError

    real = layout_mod.compute_moments

    def failing_at_k3_midpoint(cfg, dist, pick, heuristic):
        if cfg.k == 3 and heuristic == "midpoint":
            raise IntegrationError("integration failed: roundoff", 1.0, 0.5)
        return real(cfg, dist, pick, heuristic)

    monkeypatch.setattr(layout_mod, "compute_moments", failing_at_k3_midpoint)
    rows = layout_sweep(100.0, [2, 3, 4], 2.5, V, DIST, PICK, QueueScenario(5, 51 / 3600))
    failed = [(row.k, h) for row in rows for h, cell in row.cells.items() if cell.e_t != cell.e_t]
    assert failed == [(3, "midpoint")]
    assert rows[1].cells["midpoint"].e_r is None
    assert all(cell.e_r is not None for row in rows for h, cell in row.cells.items()
               if (row.k, h) != (3, "midpoint"))


def test_overflowing_report_is_one_na_cell_each():
    # an aisle spacing of 1e200 m overflows E[T^2] in every cell, which
    # used to keep its E_T as if the report were sound
    rows = layout_sweep(100.0, [2, 3], 1e200, V, DIST, PICK, QueueScenario(5, 51 / 3600))
    cells = [cell for row in rows for cell in row.cells.values()]
    assert len(cells) == 8
    assert all(cell.e_t != cell.e_t and cell.e_r is None for cell in cells)


def test_invalid_law_raises_instead_of_na_cells():
    # a spec string is not a law: an error in the call, not a numerical failure of a cell
    with pytest.raises(AttributeError):
        layout_sweep(100.0, [2, 3], 2.5, 1.0, "geom:18", PICK)
