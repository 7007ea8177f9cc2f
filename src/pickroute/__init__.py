"""Exact analytics for warehouse order-picking time under random storage.

Computes the first two moments of the total picking time for four picker
routing heuristics (return, midpoint, largest gap, S-shaped) for arbitrary
order-size distributions given by their PGF, validates them against a Monte
Carlo simulator, estimates mean order-lead time through an M/G/c
approximation, and sweeps warehouse layouts at fixed total aisle length.
"""
from .heuristics import (
    HEURISTICS,
    MomentReport,
    PickTimeModel,
    WarehouseConfig,
    compute_moments,
    largest_gap_moments,
    midpoint_moments,
    return_moments,
    sshaped_moments,
)
from .layout import LayoutCell, LayoutRow, NoFeasibleLayoutError, layout_sweep, recommend
from .orderdist import (
    Deterministic,
    Geometric,
    OrderSizeDistribution,
    ShiftedNegBinomial,
    ShiftedPoisson,
    parse_dist_spec,
)
from .prelim import AisleModel
from .queueing import LeadTimeReport, QueueScenario, UnstableQueueError, erlang_c_wait_prob, lead_time_estimate
from .quadrature import IntegrationError, box_kernel, gap_kernel, integrate_1d, integrate_2d, log_kernel
from .simulate import McEstimate, SampledOrder, route_time, run_replications_all, sample_order

__version__ = "0.1.0"

__all__ = [
    "AisleModel",
    "Deterministic",
    "Geometric",
    "HEURISTICS",
    "IntegrationError",
    "LayoutCell",
    "LayoutRow",
    "LeadTimeReport",
    "McEstimate",
    "MomentReport",
    "NoFeasibleLayoutError",
    "OrderSizeDistribution",
    "PickTimeModel",
    "QueueScenario",
    "SampledOrder",
    "ShiftedNegBinomial",
    "ShiftedPoisson",
    "UnstableQueueError",
    "WarehouseConfig",
    "box_kernel",
    "compute_moments",
    "erlang_c_wait_prob",
    "gap_kernel",
    "integrate_1d",
    "integrate_2d",
    "largest_gap_moments",
    "layout_sweep",
    "lead_time_estimate",
    "log_kernel",
    "midpoint_moments",
    "parse_dist_spec",
    "recommend",
    "return_moments",
    "route_time",
    "run_replications_all",
    "sample_order",
    "sshaped_moments",
]
