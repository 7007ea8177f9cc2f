"""Exact first and second moments of the total picking time per routing heuristic.

The total picking time is T = pick time + within-aisle travel + cross-aisle
travel, and the heuristics differ only in the within-aisle part.  Pick time
and cross-aisle travel, (2wa/v)(kplus - 1) out to the furthest occupied aisle
and back, are common to all four, and so are their terms in E[T^2].

Each heuristic splits every aisle into ``u`` units of length l/u and walks
(2l/u) X within aisles.  Return, midpoint and largest gap walk into each unit
they serve a distance X_i (as a fraction of l/u) and back, X being the sum of
the X_i; S-shaped traverses each of the I occupied aisles and, when I is odd,
enters the last one only to its furthest item A and walks back out:

* return: u = 1, X_i = A_i, the furthest item of every aisle;
* midpoint: u = 2, X_i = A^f, the furthest item of an interior half-aisle
  from its own cross-aisle;
* largest gap: u = 1, X_i = 1 - D_i, an interior aisle minus its largest gap;
* s-shaped: u = 2, X = I + [I odd](2A - 1).

Midpoint and largest gap also traverse the first and last occupied aisles
completely (2l, even when both coincide), and their X sums the interior units
of each span d = kplus - kminus.  For all four, E[T] and E[T^2] follow from
four sums, E[X], E[X^2], E[kplus X] and E[M X], through one assembler, and
every report names the same terms.  Each second moment is an explicit
named-term sum, so that any discrepancy against the Monte Carlo oracle is
attributable to a single term.  Speeds are in meters/second and times in
seconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import prelim
from .orderdist import OrderSizeDistribution, as_count, as_real
from .prelim import AisleModel

__all__ = [
    "WarehouseConfig",
    "PickTimeModel",
    "MomentReport",
    "HEURISTICS",
    "compute_moments",
]

HEURISTICS = ("return", "midpoint", "largest-gap", "s-shaped")


@dataclass(frozen=True)
class WarehouseConfig:
    """Geometry and picker speed: k aisles of length l, aisle spacing wa, speed v."""

    k: int
    l: float
    wa: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "k", as_count(self.k, "aisle count"))
        as_real(self.l, "aisle length", positive=True)
        as_real(self.wa, "aisle spacing")
        as_real(self.v, "walking speed", positive=True)
        if self.v * self.v == 0.0:   # every report divides by v^2
            raise ValueError(f"walking speed's square underflows to 0, got {self.v!r}")


@dataclass(frozen=True)
class PickTimeModel:
    """First two moments of the per-item pick time (seconds, seconds^2)."""

    mean: float
    second_moment: float

    def __post_init__(self):
        as_real(self.mean, "pick-time mean")
        square = self.mean * self.mean   # mean ** 2 may round one ulp below it
        if not (math.isfinite(self.second_moment) and self.second_moment >= square - max(1e-12, 1e-15 * square)):
            raise ValueError(f"pick-time second moment must be finite and >= mean^2, got {self.second_moment!r}")

    @classmethod
    def from_scv(cls, mean: float, scv: float) -> "PickTimeModel":
        """Build from mean and squared coefficient of variation."""
        as_real(scv, "squared coefficient of variation")
        return cls(mean, mean * mean * (1.0 + scv))

    @property
    def scv(self) -> float:
        if self.mean == 0:
            return 0.0
        return self.second_moment / (self.mean * self.mean) - 1.0


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


def _return_sums(model: AisleModel) -> tuple[float, float, float, float]:
    """The four aisle sums of X = A_1 + ... + A_k, every aisle one unit and
    A_i its furthest item."""
    k = model.k
    a_mean, a_sec, a_cross = prelim.far_item_moments(model)
    return (k * a_mean, k * a_sec + (k * (k - 1) * a_cross if k >= 2 else 0.0),
            prelim.sum_far_item_kplus_cross(model), k * prelim.m_far_cross(model))


def _span_sums(model: AisleModel, u: int, block) -> tuple[float, float, float, float]:
    """The four aisle sums of X = sum of X_i over the interior units, from the
    span-d moments ``block(model)`` of one unit, arrays over the spans
    d = 2..k-1, with ``u`` units per aisle.

    A span-d event has k - d positions, n = u(d-1) interior units and 2u units
    in the two endpoint aisles; kplus averages (k + d + 1) / 2 over positions.
    """
    k = model.k
    d = np.arange(2, k)
    c = block(model)
    n = u * (d - 1)
    weight = (k - d) * n
    many = n >= 2
    x2 = c.second + np.where(many, (n - 1) * c.cross, 0.0)
    mx = c.n_same + 2 * u * c.n_endpoint + np.where(many, (n - 1) * c.n_other, 0.0)
    return (math.fsum(weight * c.mean), math.fsum(weight * x2),
            math.fsum(0.5 * (k + d + 1) * weight * c.mean), math.fsum(weight * mx))


def _sshaped_sums(model: AisleModel) -> tuple[float, float, float, float]:
    """The four aisle sums of X = b_I + 2[I odd] A, b_j = j - [j odd], I the
    occupied-aisle count and A the furthest item of the last occupied aisle:
    sums over j of non-negative parts on the event I = j.  Given I = j, the
    occupied set is any j-set alike and independent of A; kplus averages
    j (k+1)/(j+1) over them (sum_{m=j}^{k} m C(m-1, j-1) = j C(k+1, j+1)),
    and E[M 1{I = j}] = (j/k) w[j], as aisle 1 is in j/k of them."""
    k = model.k
    cp = prelim.occupancy_law(model)[0]
    w = prelim.contiguous_count_prime(model)[1:]
    far, far2, mfar = (v[1:] for v in prelim.contiguous_far_moments(model))
    j = np.arange(1, k + 1)
    odd = j % 2
    b = j - odd
    x = b * cp + 2 * odd * far
    x2 = b * b * cp + 4 * odd * (b * far + far2)
    kx = j * (k + 1) / (j + 1) * x
    mx = b * (j / k * w) + 2 * odd * mfar
    return tuple(math.fsum(v.tolist()) for v in (x, x2, kx, mx))


def _assemble(heuristic: str, cfg: WarehouseConfig, model: AisleModel, pick: PickTimeModel,
              sums: tuple[float, float, float, float], u: int, traverse: bool) -> MomentReport:
    """Report for a route whose within-aisle travel is (2l/u) X, plus 2l when it
    traverses the first and last occupied aisles.  ``sums`` are E[X], E[X^2],
    E[kplus X] and E[M X]; the pick-time and cross-aisle terms are common to
    every heuristic, and E[T^2] is the sum of the named terms."""
    ex, ex2, ekx, emx = sums
    # a one-aisle route crosses no aisle, so wa is 0 there: an overflowing
    # wa^2 times the exact 0 of kp_sec - 2 kp_mean + 1 would be NaN
    dist, l, wa, v = model.dist, cfg.l, (cfg.wa if model.k > 1 else 0.0), cfg.v
    em, ep = dist.mean(), pick.mean
    kp_mean, kp_sec, m_kp = prelim.kplus_moments(model)
    unit = 2 * l / (u * v)   # walking time per unit of X
    e_tw = unit * ex + (2 * l / v if traverse else 0.0)
    e_ttr = e_tw + (2 * wa / v) * (kp_mean - 1)
    e_t = em * ep + e_ttr
    terms = {
        "pick2": dist.factorial2() * ep * ep + em * pick.second_moment,
        "within2": unit * unit * ex2,
        "pick_within": 2 * unit * ep * emx,
        "within_cross": 2 * unit * (2 * wa / v) * (ekx - ex),
        "cross2": (4 * wa * wa / (v * v)) * (kp_sec - 2 * kp_mean + 1),
        "pick_cross": (4 * wa / v) * ep * (m_kp - em),
    }
    if traverse:
        terms["traverse2"] = 4 * l * l / (v * v)
        terms["traverse_rest"] = (4 * l / v) * (e_t - 2 * l / v)
    e_t2 = math.fsum(terms.values())
    var = e_t2 - e_t * e_t
    if not (math.isfinite(e_t2) and math.isfinite(var)):
        raise ArithmeticError(f"{heuristic}: E[T^2] and Var(T) must be finite, got {e_t2} and {var}")
    if var < 0:
        if var < -1e-9 * max(e_t2, 1.0):
            raise ArithmeticError(f"{heuristic}: negative variance {var} beyond tolerance")
        var = 0.0
    return MomentReport(e_t, e_t2, var, math.sqrt(var), e_tw, e_ttr, terms)


def compute_moments(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                    pick: PickTimeModel, heuristic: str) -> MomentReport:
    """Moment report for the named heuristic."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
    model = AisleModel(cfg.k, dist)
    if heuristic == "return":
        sums, u, traverse = _return_sums(model), 1, False
    elif heuristic == "midpoint":
        sums, u, traverse = _span_sums(model, 2, prelim.far_half_cond_moments), 2, True
    elif heuristic == "largest-gap":
        sums, u, traverse = _span_sums(model, 1, prelim.gap_cond_moments), 1, True
    else:
        sums, u, traverse = _sshaped_sums(model), 2, False
    return _assemble(heuristic, cfg, model, pick, sums, u, traverse)
