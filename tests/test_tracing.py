"""The benchmark's tracer (perfbench/tracing.py) rebinds names inside
pickroute from outside the package; a binding whose name is gone fails here
before it fails a traced benchmark run."""
from pathlib import Path

import pytest

from pickroute import HEURISTICS, Geometric, PickTimeModel, WarehouseConfig, heuristics, prelim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the prelim blocks each heuristic reads; heuristics looks them up as
# prelim.<name> at call time, which is what lets the tracer see them
BLOCKS_USED = {
    "return": {"far_item_moments", "sum_far_item_kplus_cross", "m_far_cross"},
    "midpoint": {"far_half_cond_moments"},
    "largest-gap": {"gap_cond_moments"},
    "s-shaped": {"occupancy_law", "contiguous_count_prime", "contiguous_far_moments"},
}


def test_tracer_installs_every_binding_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = prelim.integrate_1d, prelim.integrate_2d, prelim.gap_kernel
    with Tracer().installed():
        pass
    assert (prelim.integrate_1d, prelim.integrate_2d, prelim.gap_kernel) == before


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_tracer_sees_every_block_a_heuristic_reads(heuristic, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    cfg = WarehouseConfig(5, 20.0, 2.5, 3000.0 / 3600.0)
    with Tracer().installed() as tracer:
        heuristics.compute_moments(cfg, Geometric(1 / 8), PickTimeModel(5.0, 37.5), heuristic)
    names = {span[0] for span in tracer.spans}
    assert {"prelim." + b for b in BLOCKS_USED[heuristic] | {"kplus_moments"}} <= names


@pytest.mark.parametrize("heuristic", ["return", "midpoint", "largest-gap"])
def test_tracer_sees_both_integration_entry_points(heuristic, monkeypatch):
    # every integral of these blocks goes through prelim.integrate_1d or
    # prelim.integrate_2d, the names the tracer binds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    cfg = WarehouseConfig(5, 20.0, 2.5, 3000.0 / 3600.0)
    with Tracer().installed() as tracer:
        heuristics.compute_moments(cfg, Geometric(1 / 8), PickTimeModel(5.0, 37.5), heuristic)
    names = {span[0] for span in tracer.spans}
    assert {"quadrature.integrate_1d", "quadrature.integrate_2d"} <= names
