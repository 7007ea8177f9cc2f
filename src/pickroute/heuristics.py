"""Exact first and second moments of the total picking time per routing heuristic.

The total picking time decomposes into pick time, within-aisle travel and
cross-aisle travel.  Each heuristic's second moment is assembled as an
explicit named-term sum (logged at DEBUG level) so that any discrepancy
against the Monte Carlo oracle is attributable to a single term.

Conventions: the midpoint and largest-gap routes always traverse the first
and last occupied aisle completely (the term 2l/v), even when both coincide;
all speeds are in meters/second and times in seconds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from . import prelim
from .orderdist import OrderSizeDistribution
from .prelim import AisleModel

__all__ = [
    "WarehouseConfig",
    "PickTimeModel",
    "MomentReport",
    "HEURISTICS",
    "return_moments",
    "midpoint_moments",
    "largest_gap_moments",
    "sshaped_moments",
    "compute_moments",
]

log = logging.getLogger(__name__)

HEURISTICS = ("return", "midpoint", "largest-gap", "s-shaped")


@dataclass(frozen=True)
class WarehouseConfig:
    """Geometry and picker speed: k aisles of length l, aisle spacing wa, speed v."""

    k: int
    l: float
    wa: float
    v: float

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"aisle count must be an integer >= 1, got {self.k!r}")
        if not (math.isfinite(self.l) and self.l > 0):
            raise ValueError(f"aisle length must be finite and positive, got {self.l!r}")
        if not (math.isfinite(self.wa) and self.wa >= 0):
            raise ValueError(f"aisle spacing must be finite and >= 0, got {self.wa!r}")
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValueError(f"walking speed must be finite and positive, got {self.v!r}")


@dataclass(frozen=True)
class PickTimeModel:
    """First two moments of the per-item pick time (seconds, seconds^2)."""

    mean: float
    second_moment: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.mean >= 0):
            raise ValueError(f"pick-time mean must be finite and >= 0, got {self.mean!r}")
        if not (math.isfinite(self.second_moment) and self.second_moment >= self.mean ** 2 - 1e-12):
            raise ValueError(f"pick-time second moment must be finite and >= mean^2, got {self.second_moment!r}")

    @classmethod
    def from_scv(cls, mean: float, scv: float) -> "PickTimeModel":
        """Build from mean and squared coefficient of variation."""
        if not (math.isfinite(scv) and scv >= 0):
            raise ValueError(f"squared coefficient of variation must be finite and >= 0, got {scv!r}")
        return cls(mean, mean * mean * (1.0 + scv))

    @property
    def scv(self) -> float:
        if self.mean == 0:
            return 0.0
        return self.second_moment / self.mean ** 2 - 1.0


@dataclass(frozen=True)
class MomentReport:
    """Moments of the total picking time T plus travel-only decompositions."""

    e_t: float
    e_t2: float
    var_t: float
    sd_t: float
    e_tw: float    # within-aisle travel time
    e_ttr: float   # total travel time (within-aisle + cross-aisle)
    terms: dict = field(default=None, repr=False, compare=False)


def _make_report(heuristic: str, e_t: float, e_t2: float, e_tw: float, e_ttr: float,
                 terms: dict) -> MomentReport:
    var = e_t2 - e_t * e_t
    if var < 0:
        if var < -1e-9 * max(e_t2, 1.0):
            raise ArithmeticError(f"{heuristic}: negative variance {var} beyond tolerance")
        var = 0.0
    if log.isEnabledFor(logging.DEBUG):
        for name, value in terms.items():
            log.debug("%s term %s = %.12g", heuristic, name, value)
    return MomentReport(e_t, e_t2, var, math.sqrt(var), e_tw, e_ttr, terms)


def _common(cfg: WarehouseConfig, dist: OrderSizeDistribution, pick: PickTimeModel):
    model = AisleModel(cfg.k, dist)
    em, f2 = dist.mean(), dist.factorial2()
    kp_mean, kp_sec, m_kp = prelim.kplus_moments(model)
    return model, em, f2, pick.mean, pick.second_moment, kp_mean, kp_sec, m_kp


def return_moments(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                   pick: PickTimeModel) -> MomentReport:
    """Walk into every occupied aisle up to its furthest item and back."""
    model, em, f2, ep, ep2, kp_mean, kp_sec, m_kp = _common(cfg, dist, pick)
    k, l, wa, v = cfg.k, cfg.l, cfg.wa, cfg.v

    a_mean, a_sec, a_cross = prelim.far_item_moments(model, "full")
    ma = prelim.m_far_cross(model)
    sum_ak = prelim.sum_far_item_kplus_cross(model)

    e_tw = (2 * l * k / v) * a_mean
    cross_aisle = (2 * wa / v) * (kp_mean - 1)
    e_ttr = e_tw + cross_aisle
    e_t = em * ep + e_ttr

    within2 = k * a_sec + (k * (k - 1) * a_cross if k >= 2 else 0.0)
    terms = {
        "pick2": f2 * ep * ep + em * ep2,
        "within2": (4 * l * l / v ** 2) * within2,
        "cross2": (4 * wa * wa / v ** 2) * (kp_sec - 2 * kp_mean + 1),
        "pick_within": (4 * l * k / v) * ep * ma,
        "pick_cross": (4 * wa / v) * ep * (m_kp - em),
        "within_cross": (8 * wa * l / v ** 2) * (sum_ak - k * a_mean),
    }
    e_t2 = math.fsum(terms.values())
    return _make_report("return", e_t, e_t2, e_tw, e_ttr, terms)


def midpoint_moments(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                     pick: PickTimeModel) -> MomentReport:
    """Serve interior aisles up to the midpoint from both cross-aisles."""
    model, em, f2, ep, ep2, kp_mean, kp_sec, m_kp = _common(cfg, dist, pick)
    k, l, wa, v = cfg.k, cfg.l, cfg.wa, cfg.v

    es = es2 = eks = ems = 0.0
    for d in range(2, k):
        c = prelim.far_half_cond_moments(model, d)
        pairs = k - d              # positions of a span-d aisle pair
        interior = d - 1           # interior aisles per position
        es += pairs * interior * c.mean
        es2 += pairs * (2 * d - 2) * c.second + pairs * (2 * d - 2) * (2 * d - 3) * c.cross
        eks += 0.5 * pairs * (k + d + 1) * interior * c.mean
        # order size against the interior half-aisle maxima: one identical
        # half, 2d-3 other interior halves, four endpoint-aisle halves
        ems += pairs * interior * (c.n_same + (2 * d - 3) * c.n_other + 4 * c.n_endpoint)

    e_tw = (2 * l / v) * es + 2 * l / v
    cross_aisle = (2 * wa / v) * (kp_mean - 1)
    e_ttr = e_tw + cross_aisle
    e_t = em * ep + e_ttr

    terms = {
        "pick2": f2 * ep * ep + em * ep2,
        "within2": (l * l / v ** 2) * es2,
        "cross2": (4 * wa * wa / v ** 2) * (kp_sec - 2 * kp_mean + 1),
        "traverse2": 4 * l * l / v ** 2,
        "pick_within": (4 * l / v) * ep * ems,
        "pick_cross": (4 * wa / v) * ep * (m_kp - em),
        "within_cross": (8 * wa * l / v ** 2) * (eks - es),
        "traverse_rest": (4 * l / v) * (e_t - 2 * l / v),
    }
    e_t2 = math.fsum(terms.values())
    return _make_report("midpoint", e_t, e_t2, e_tw, e_ttr, terms)


def largest_gap_moments(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                        pick: PickTimeModel) -> MomentReport:
    """Serve interior aisles from both ends, skipping each aisle's largest gap."""
    model, em, f2, ep, ep2, kp_mean, kp_sec, m_kp = _common(cfg, dist, pick)
    k, l, wa, v = cfg.k, cfg.l, cfg.wa, cfg.v

    eg = eg2 = ekg = emg = 0.0
    for d in range(2, k):
        c = prelim.gap_cond_moments(model, d)
        pairs = k - d
        interior = d - 1
        eg += pairs * interior * c.mean
        eg2 += pairs * interior * c.second
        ekg += 0.5 * pairs * (k + d + 1) * interior * c.mean
        ems_d = c.n_same + 2 * c.n_endpoint
        if d >= 3:
            eg2 += pairs * interior * (d - 2) * c.cross
            ems_d += (d - 2) * c.n_other
        emg += pairs * interior * ems_d

    e_tw = (2 * l / v) * eg + 2 * l / v
    cross_aisle = (2 * wa / v) * (kp_mean - 1)
    e_ttr = e_tw + cross_aisle
    e_t = em * ep + e_ttr

    terms = {
        "pick2": f2 * ep * ep + em * ep2,
        "within2": (4 * l * l / v ** 2) * eg2,
        "cross2": (4 * wa * wa / v ** 2) * (kp_sec - 2 * kp_mean + 1),
        "traverse2": 4 * l * l / v ** 2,
        "pick_within": (4 * l / v) * ep * emg,
        "pick_cross": (4 * wa / v) * ep * (m_kp - em),
        "within_cross": (8 * l * wa / v ** 2) * (ekg - eg),
        "traverse_rest": (4 * l / v) * (e_t - 2 * l / v),
    }
    e_t2 = math.fsum(terms.values())
    return _make_report("largest-gap", e_t, e_t2, e_tw, e_ttr, terms)


def sshaped_moments(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                    pick: PickTimeModel) -> MomentReport:
    """Traverse every occupied aisle, entering the last one from the front
    (and walking back out) only when the occupied-aisle count is odd."""
    model, em, f2, ep, ep2, kp_mean, kp_sec, m_kp = _common(cfg, dist, pick)
    k, l, wa, v = cfg.k, cfg.l, cfg.wa, cfg.v
    P, Pp = dist.pgf, dist.pgf_prime

    pmf, ei, ei2, cp = prelim.occupancy_law(model)
    odd = range(1, k + 1, 2)
    e_iodd = math.fsum(pmf[j - 1] for j in odd)
    e_iodd_i = math.fsum(j * pmf[j - 1] for j in odd)
    e_mi = k * em - (k - 1) * Pp((k - 1) / k)
    e_ki = k * k - k * (k + 1) * P((k - 1) / k) + math.fsum(P((j - 1) / k) for j in range(1, k + 1))
    # kplus = m and an odd occupied count: sets of odd size j with maximum m
    e_iodd_k = math.fsum(
        m_ * math.fsum(math.comb(m_ - 1, j - 1) * cp[j - 1] for j in range(1, m_ + 1, 2))
        for m_ in range(1, k + 1))
    w = prelim.contiguous_count_prime(model)
    e_m_iodd = math.fsum(math.comb(k - 1, j - 1) * w[j] for j in odd)

    far, far2, mfar = prelim.contiguous_far_moments(model)
    e_iodd_a = math.fsum(math.comb(k, j) * far[j] for j in odd)
    e_iodd_a2 = math.fsum(math.comb(k, j) * far2[j] for j in odd)
    e_iodd_a_i = math.fsum(j * math.comb(k, j) * far[j] for j in odd)
    e_iodd_a_k = math.fsum(
        m_ * math.fsum(math.comb(m_ - 1, j - 1) * far[j] for j in range(1, m_ + 1, 2))
        for m_ in range(1, k + 1))
    e_m_iodd_a = math.fsum(math.comb(k, j) * mfar[j] for j in odd)

    e_tw = (l / v) * ei + (2 * l / v) * e_iodd_a - (l / v) * e_iodd
    cross_aisle = (2 * wa / v) * (kp_mean - 1)
    e_ttr = e_tw + cross_aisle
    e_t = em * ep + e_ttr

    terms = {
        "pick2": f2 * ep * ep + em * ep2,
        "occupied2": (l * l / v ** 2) * ei2,
        "last_aisle2": (4 * l * l / v ** 2) * e_iodd_a2,
        "odd2": (l * l / v ** 2) * e_iodd,
        "cross2": (4 * wa * wa / v ** 2) * (kp_sec - 2 * kp_mean + 1),
        "pick_occupied": (2 * l / v) * ep * e_mi,
        "pick_last": (4 * l / v) * ep * e_m_iodd_a,
        "pick_odd": -(2 * l / v) * ep * e_m_iodd,
        "pick_cross": (4 * wa / v) * ep * (m_kp - em),
        "last_occupied": (4 * l * l / v ** 2) * e_iodd_a_i,
        "odd_occupied": -(2 * l * l / v ** 2) * e_iodd_i,
        "occupied_cross": (4 * l * wa / v ** 2) * (e_ki - ei),
        "last_odd": -(4 * l * l / v ** 2) * e_iodd_a,
        "last_cross": (8 * l * wa / v ** 2) * (e_iodd_a_k - e_iodd_a),
        "odd_cross": -(4 * l * wa / v ** 2) * (e_iodd_k - e_iodd),
    }
    e_t2 = math.fsum(terms.values())
    return _make_report("s-shaped", e_t, e_t2, e_tw, e_ttr, terms)


_DISPATCH = {
    "return": return_moments,
    "midpoint": midpoint_moments,
    "largest-gap": largest_gap_moments,
    "s-shaped": sshaped_moments,
}


def compute_moments(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                    pick: PickTimeModel, heuristic: str) -> MomentReport:
    """Moment report for the named heuristic."""
    try:
        fn = _DISPATCH[heuristic]
    except KeyError:
        raise ValueError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}") from None
    return fn(cfg, dist, pick)

