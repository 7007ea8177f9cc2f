"""Order-lead time via an M/G/c view of the picking floor.

Orders arrive Poisson at rate lambda, c pickers serve FCFS without hindering
each other, and the service time is the total picking time T.  The mean
sojourn (lead) time uses the standard two-moment M/G/c approximation

    E[R] ~= Q / (c (1 - rho)) * (1 + C_T^2) / 2 * E[T] + E[T],

with Q the Erlang-C waiting probability of the matching M/M/c queue.  At
c = 1 this reduces to the exact M/G/1 mean sojourn time.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .heuristics import MomentReport
from .orderdist import as_count

__all__ = ["MAX_PICKERS", "QueueScenario", "LeadTimeReport", "UnstableQueueError",
           "erlang_c_wait_prob", "lead_time_estimate"]

# The Erlang-B recurrence takes one Python step per picker: 0.1-0.2 s at this bound.
MAX_PICKERS = 10 ** 6


class UnstableQueueError(ValueError):
    """Offered load at or above capacity (rho >= 1)."""


@dataclass(frozen=True)
class QueueScenario:
    """c pickers, Poisson arrivals at ``lam`` orders per second."""

    c: int
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "c", as_count(self.c, "picker count", MAX_PICKERS))
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"arrival rate must be finite and positive, got {self.lam!r}")


@dataclass(frozen=True)
class LeadTimeReport:
    rho: float
    q_wait: float        # Erlang-C waiting probability; NaN when unstable
    e_r: float | None    # mean lead time in seconds; None marks an unstable queue

    @property
    def stable(self) -> bool:
        return self.e_r is not None


def erlang_c_wait_prob(c: int, rho: float) -> float:
    """P(wait) in an M/M/c queue, by the Erlang-B recurrence (no factorials).

    Returns 0.0 where the Erlang-B value ends below the smallest normal float:
    once subnormal it stops shrinking, as a b / n rounds back up to b
    whenever a / n > 1/2, so it would be left orders of magnitude too large."""
    c = as_count(c, "server count", MAX_PICKERS)
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"utilization must be finite and >= 0, got {rho!r}")
    if rho >= 1:
        raise UnstableQueueError(f"utilization must be < 1, got {rho!r}")
    a = c * rho
    b = 1.0
    for n in range(1, c + 1):
        b = a * b / (n + a * b)
    if b < sys.float_info.min:
        return 0.0
    return b / (1.0 - rho * (1.0 - b))


def lead_time_estimate(report: MomentReport, scenario: QueueScenario) -> LeadTimeReport:
    """Two-moment mean lead-time approximation from a picking-time report."""
    if not report.e_t > 0:
        raise ValueError("mean picking time must be positive for a lead-time estimate")
    rho = scenario.lam * report.e_t / scenario.c
    if rho >= 1:
        return LeadTimeReport(rho, float("nan"), None)
    q = erlang_c_wait_prob(scenario.c, rho)
    scv_t = report.var_t / report.e_t ** 2
    e_r = q / (scenario.c * (1.0 - rho)) * 0.5 * (1.0 + scv_t) * report.e_t + report.e_t
    return LeadTimeReport(rho, q, e_r)
