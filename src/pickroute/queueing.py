"""Order-lead time via an M/G/c view of the picking floor.

Orders arrive Poisson at rate lambda, c pickers serve FCFS without hindering
each other, and the service time is the total picking time T.  The mean
sojourn (lead) time uses the standard two-moment M/G/c approximation

    E[R] ~= Q / (c (1 - rho)) * (1 + C_T^2) / 2 * E[T] + E[T],

with Q the Erlang-C waiting probability of the matching M/M/c queue, a sum of
at most about 45 sqrt(c) positive terms, so any c answers at once.  At c = 1
this reduces to the exact M/G/1 mean sojourn time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .heuristics import MomentReport
from .orderdist import as_count, as_real

__all__ = ["QueueScenario", "LeadTimeReport", "UnstableQueueError", "erlang_c_wait_prob",
           "lead_time_estimate"]


class UnstableQueueError(ValueError):
    """Offered load at or above capacity (rho >= 1)."""


@dataclass(frozen=True)
class QueueScenario:
    """c pickers, Poisson arrivals at ``lam`` orders per second."""

    c: int
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "c", as_count(self.c, "picker count"))
        as_real(self.lam, "arrival rate", positive=True)


@dataclass(frozen=True)
class LeadTimeReport:
    rho: float
    q_wait: float        # Erlang-C waiting probability; NaN when unstable
    e_r: float | None    # mean lead time in seconds; None marks an unstable queue

    @property
    def stable(self) -> bool:
        return self.e_r is not None


def erlang_c_wait_prob(c: int, rho: float) -> float:
    """P(wait) in an M/M/c queue from the Erlang loss formula B, a = c rho:
    1/B = sum_{i=0..c} c!/((c-i)! a^i) and Q = 1/(rho + (1 - rho)/B).  The
    terms, a running product over n = c, ..., 1, rise while n > a and then fall
    by factors below n/a, so once n < a the rest is at most term n/(a - n), and
    the sum stops when that cannot change it.  A sum that overflows means
    B < 1/DBL_MAX, and Q is 0.0."""
    c = as_count(c, "server count")
    as_real(rho, "utilization")
    if rho >= 1:
        raise UnstableQueueError(f"utilization must be < 1, got {rho!r}")
    if rho == 0:
        return 0.0
    a = c * rho
    term = total = 1.0
    for n in range(c, 0, -1):
        if total == math.inf or n < a and total + term * n / (a - n) == total:
            break
        term *= n / a
        total += term
    return 1.0 / (rho + (1.0 - rho) * total)


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
