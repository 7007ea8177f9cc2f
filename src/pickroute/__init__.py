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
from .quadrature import IntegrationError
from .simulate import McEstimate, run_replications_all

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
    "ShiftedNegBinomial",
    "ShiftedPoisson",
    "UnstableQueueError",
    "WarehouseConfig",
    "compute_moments",
    "erlang_c_wait_prob",
    "layout_sweep",
    "lead_time_estimate",
    "parse_dist_spec",
    "recommend",
    "run_replications_all",
]
