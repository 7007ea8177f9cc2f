"""Building-block expectations for a k-aisle warehouse under random storage.

Everything here is a function of an :class:`AisleModel` (aisle count ``k`` plus
an order-size distribution) and is expressed through the order-size PGF:

* discrete order statistics of the occupied aisles: moments of the furthest
  occupied aisle ``kplus`` and joint event probabilities with the closest one,
* furthest-item location moments per (half-)aisle and their interactions,
* largest-gap moments per aisle (the part of an aisle a picker can skip),
* classical occupancy quantities: law of the number of occupied aisles,
  probability the occupied set is a fixed contiguous set, odd-count indicator.

Alternating binomial sums suffer catastrophic cancellation as ``k`` grows, so
they are evaluated with exact integer binomials and mpmath arithmetic at a
precision scaled to ``k`` (supported regime: k <= 64).  Conditional-event
formulas depend on the aisle span ``d = kplus - kminus`` only, never on the
individual aisle indices, and are computed once per ``d``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import mpmath

from .orderdist import OrderSizeDistribution, Deterministic, Geometric, ShiftedPoisson
from .quadrature import box_kernel, gap_kernel, integrate_1d, integrate_2d, log_kernel

__all__ = [
    "AisleModel",
    "kplus_moments",
    "cond_aisle_pgf",
    "cond_pair_pgf",
    "cond_pair_pgf_prime1",
    "pair_event_prob",
    "far_item_moments",
    "far_item_kplus_cross",
    "m_far_cross",
    "gap_moments",
    "gap_count_cross",
    "FarHalfCond",
    "far_half_cond_moments",
    "GapCond",
    "gap_cond_moments",
    "occupancy_law",
    "iodd_mean",
    "contiguous_pgf",
    "contiguous_far_moments",
]

# Spacing of the boundary layer inside which removable singularities at x = 1
# are replaced by their analytic limit.
_SING_LAYER = 1e-6


@dataclass(frozen=True)
class AisleModel:
    """k storage aisles; items land uniformly on aisles and positions."""

    k: int
    dist: OrderSizeDistribution

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"aisle count must be an integer >= 1, got {self.k!r}")


def _quad(f, a=0.0, b=1.0) -> float:
    value, _ = integrate_1d(f, a, b)
    return value


# ---------------------------------------------------------------------------
# discrete order statistics of occupied aisles
# ---------------------------------------------------------------------------

def kplus_moments(model: AisleModel) -> tuple[float, float, float]:
    """(E[kplus], E[kplus^2], E[M * kplus]) for the furthest occupied aisle."""
    k, P = model.k, model.dist.pgf
    Pp = model.dist.pgf_prime
    mean = k - math.fsum(P(j / k) for j in range(k))
    second = k * k - math.fsum((2 * j + 1) * P(j / k) for j in range(k))
    cross_m = k * model.dist.mean() - math.fsum(j / k * Pp(j / k) for j in range(k))
    return mean, second, cross_m


def cond_aisle_pgf(model: AisleModel, z: float, i: int, j: int) -> float:
    """E[z^{N_i} 1{kplus = j}] by the position of aisle i relative to j."""
    k, P = model.k, model.dist.pgf
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"aisle indices must lie in 1..{k}, got i={i}, j={j}")
    if not 0 <= z <= 1:
        raise ValueError(f"PGF argument must lie in [0, 1], got {z!r}")
    if j < i:
        return P(j / k) - P((j - 1) / k)
    if j == i:
        return P((j - 1 + z) / k) - P((j - 1) / k)
    return P((j - 1 + z) / k) - P((j - 2 + z) / k)


def cond_pair_pgf(model: AisleModel, z: float, y: float, d: int, mode: str) -> float:
    """Joint conditional PGF E[z^X y^Y 1{kplus - kminus = d at fixed aisles}].

    ``mode='half'``: X, Y are item counts in two distinct interior half-aisles
    (same or different interior aisle).  ``mode='full'``: X, Y are counts of
    two distinct interior aisles; the single-aisle version is ``y = 1``.
    Requires d >= 2 so that an interior aisle exists.
    """
    k, P = model.k, model.dist.pgf
    if d < 2:
        raise ValueError(f"interior aisles require a span d >= 2, got {d}")
    if d > k - 1:
        raise ValueError(f"span d must be <= k - 1 = {k - 1}, got {d}")
    if mode == "half":
        h = 2 * k
        return P((2 * d + y + z) / h) - 2 * P((2 * d - 2 + y + z) / h) + P((2 * d - 4 + y + z) / h)
    if mode == "full":
        return P((d - 1 + z + y) / k) - 2 * P((d - 2 + z + y) / k) + P((d - 3 + z + y) / k)
    raise ValueError(f"mode must be 'half' or 'full', got {mode!r}")


def cond_pair_pgf_prime1(model: AisleModel, d: int, mode: str) -> float:
    """d/dz of ``cond_pair_pgf`` at z = 1, y = 1 (= E[X 1{event}] for interior X)."""
    k, Pp = model.k, model.dist.pgf_prime
    if d < 2 or d > k - 1:
        raise ValueError(f"span d must lie in 2..{k - 1}, got {d}")
    if mode == "half":
        h = 2 * k
        return (Pp((2 * d + 2) / h) - 2 * Pp(2 * d / h) + Pp((2 * d - 2) / h)) / h
    if mode == "full":
        return (Pp((d + 1) / k) - 2 * Pp(d / k) + Pp((d - 1) / k)) / k
    raise ValueError(f"mode must be 'half' or 'full', got {mode!r}")


def pair_event_prob(model: AisleModel, d: int) -> float:
    """P(kplus = j, kminus = l) for any fixed pair with j - l = d >= 1."""
    k, P = model.k, model.dist.pgf
    if not 1 <= d <= k - 1:
        raise ValueError(f"span d must lie in 1..{k - 1}, got {d}")
    return P((d + 1) / k) - 2 * P(d / k) + P((d - 1) / k)


# ---------------------------------------------------------------------------
# furthest-item location moments
# ---------------------------------------------------------------------------

def _bins(model: AisleModel, mode: str) -> int:
    if mode == "full":
        return model.k
    if mode == "half":
        return 2 * model.k
    raise ValueError(f"mode must be 'half' or 'full', got {mode!r}")


def far_item_moments(model: AisleModel, mode: str = "full") -> tuple[float, float, float]:
    """(E[A], E[A^2], E[A_i A_j]) for the furthest item in a (half-)aisle.

    ``A`` is the furthest item location as a fraction of the (half-)aisle
    length; the cross moment pairs two distinct (half-)aisles and is NaN when
    no such pair exists (full mode with k = 1).
    """
    P = model.dist.pgf
    h = _bins(model, mode)
    base = 1 - 1 / h
    mean = 1.0 - _quad(lambda x: P(base + x / h))
    second = 1.0 - 2.0 * _quad(lambda x: x * P(base + x / h))
    if h >= 2:
        cross = (1.0 - 2.0 * _quad(lambda x: P(base + x / h))
                 + integrate_2d(lambda s: P(1 - 2 / h + s / h), box_kernel)[0])
    else:
        cross = math.nan
    return mean, second, cross


def _far_kplus_tails(model: AisleModel) -> list[float]:
    """tail_j = P(j/k) - int_0^1 P((j-1+x)/k) dx for j = 1..k-1."""
    k, P = model.k, model.dist.pgf
    return [P(j / k) - _quad(lambda x, j=j: P((j - 1 + x) / k)) for j in range(1, k)]


def far_item_kplus_cross(model: AisleModel, i: int) -> float:
    """E[A_i * kplus] for aisle i (the tail sum genuinely depends on i)."""
    k = model.k
    if not 1 <= i <= k:
        raise ValueError(f"aisle index must lie in 1..{k}, got {i}")
    mean, _, _ = far_item_moments(model, "full")
    tails = _far_kplus_tails(model)
    return k * mean - math.fsum(tails[j - 1] for j in range(i, k))


def sum_far_item_kplus_cross(model: AisleModel) -> float:
    """Sum over aisles of E[A_i * kplus], sharing the tail integrals."""
    k = model.k
    mean, _, _ = far_item_moments(model, "full")
    tails = _far_kplus_tails(model)
    return k * k * mean - math.fsum(j * tails[j - 1] for j in range(1, k))


def m_far_cross(model: AisleModel) -> float:
    """E[M * A_i], the order size against the furthest item in one aisle."""
    k, P = model.k, model.dist.pgf
    em = model.dist.mean()
    return em - k + (k - 1) * P(1 - 1 / k) + _quad(lambda x: P(1 - 1 / k + x / k))


# ---------------------------------------------------------------------------
# largest-gap moments
# ---------------------------------------------------------------------------

def gap_moments(model: AisleModel, conditional: int | None = None) -> tuple[float, float, float]:
    """Moments of (1 - D): mean, second moment and two-aisle cross moment.

    ``D`` is the largest of the N+1 spacings of an aisle (both ends included;
    an empty aisle has D = 1 so 1 - D contributes nothing).  Unconditional by
    default; with ``conditional=d`` the moments are joint with the event that
    the occupied span is d (closest/furthest aisles fixed), per aisle choices
    that only enter through d.  Cross moments need two distinct aisles: NaN
    for k = 1 (unconditional) or d = 2 (conditional).
    """
    if conditional is not None:
        c = gap_cond_moments(model, conditional)
        return c.mean, c.second, c.cross
    k, P = model.k, model.dist.pgf
    pn = lambda x: P(1 - 1 / k + x / k)
    int_log = _quad(lambda x: pn(x) * math.log1p(-x))
    mean = 1.0 + int_log
    second = 1.0 + 2.0 * int_log + _quad(lambda x: x * pn(x) * gap_kernel(x) if x > 0 else 0.0)
    if k >= 2:
        cross = (1.0 + 2.0 * int_log
                 + integrate_2d(lambda s: P(1 - 2 / k + s / k), log_kernel)[0])
    else:
        cross = math.nan
    return mean, second, cross


@dataclass(frozen=True)
class GapCond:
    """Largest-gap conditional moments, all joint with the span-d event."""

    prob: float        # P(kplus = j, kminus = l), j - l = d
    mean: float        # E[(1-D_i) 1{event}], interior aisle i
    second: float      # E[(1-D_i)^2 1{event}]
    cross: float       # E[(1-D_i)(1-D_m) 1{event}], distinct interior aisles (d >= 3)
    n_same: float      # E[N_i (1-D_i) 1{event}]
    n_other: float     # E[N_m (1-D_i) 1{event}], other interior aisle (d >= 3)
    n_endpoint: float  # E[N_m (1-D_i) 1{event}], m the closest or furthest aisle


def gap_cond_moments(model: AisleModel, d: int) -> GapCond:
    """All largest-gap conditional quantities for occupied span d (>= 2)."""
    k, P = model.k, model.dist.pgf
    Pp = model.dist.pgf_prime
    if not 2 <= d <= k - 1:
        raise ValueError(f"span d must lie in 2..{k - 1}, got {d}")

    gam = lambda x: cond_pair_pgf(model, x, 1.0, d, "full")
    prob = gam(1.0)
    dgam1 = cond_pair_pgf_prime1(model, d, "full")

    int_gam = _quad(gam)
    int_gam_log = _quad(lambda x: gam(x) * math.log1p(-x))
    int_gam_kernel = _quad(lambda x: x * gam(x) * gap_kernel(x) if x > 0 else 0.0)

    def ratio(x):
        if 1 - x < _SING_LAYER:
            return dgam1
        return (prob - gam(x)) / (1 - x)

    r = _quad(ratio)

    mean = prob + int_gam_log
    second = prob + 2 * int_gam_log + int_gam_kernel
    n_same = dgam1 - int_gam_log - r - int_gam
    if d >= 3:
        # the pair PGF depends on its two arguments only through their sum
        g = lambda s: cond_pair_pgf(model, s, 0.0, d, "full")
        cross = prob + 2 * int_gam_log + integrate_2d(g, log_kernel)[0]
        n_other = dgam1 - r
    else:
        cross = math.nan
        n_other = math.nan

    # endpoint aisle: the joint PGF with the closest (or furthest) aisle has a
    # different inclusion-exclusion structure than the interior pair
    f_end = lambda x: P((d + x) / k) - P((d - 1 + x) / k)
    f_end1 = f_end(1.0)
    dlam1 = (Pp((d + 1) / k) - Pp(d / k)) / k

    def ratio_end(x):
        if 1 - x < _SING_LAYER:
            return dlam1
        return (f_end1 - f_end(x)) / (1 - x)

    n_endpoint = dlam1 - _quad(ratio_end)
    return GapCond(prob, mean, second, cross, n_same, n_other, n_endpoint)


def gap_count_cross(model: AisleModel, d: int, which: str) -> float:
    """E[N_m (1-D_i) 1{span-d event}] for the selected aisle role of m."""
    c = gap_cond_moments(model, d)
    if which == "same-aisle":
        return c.n_same
    if which == "other-aisle":
        return c.n_other
    if which == "endpoint-aisle":
        return c.n_endpoint
    raise ValueError(f"which must be 'same-aisle', 'other-aisle' or 'endpoint-aisle', got {which!r}")


# ---------------------------------------------------------------------------
# half-aisle furthest-item conditional moments (midpoint machinery)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FarHalfCond:
    """Half-aisle furthest-item conditional moments, joint with the span-d event."""

    prob: float     # P(kplus = j, kminus = l), j - l = d
    mean: float     # E[A^f 1{event}], interior half-aisle
    second: float   # E[(A^f)^2 1{event}]
    cross: float    # E[A^f A^b 1{event}], two distinct interior half-aisles
    n_same: float   # E[N^f A^f 1{event}], count of the same half-aisle
    n_other: float  # E[N^b A^f 1{event}], any other interior half-aisle
    n_endpoint: float  # E[N_m^f A^f 1{event}], m the closest or furthest aisle


def far_half_cond_moments(model: AisleModel, d: int) -> FarHalfCond:
    """All half-aisle furthest-item conditional quantities for span d (>= 2)."""
    k, P = model.k, model.dist.pgf
    Pp = model.dist.pgf_prime
    if not 2 <= d <= k - 1:
        raise ValueError(f"span d must lie in 2..{k - 1}, got {d}")
    h = 2 * k

    phi = lambda z: cond_pair_pgf(model, z, 1.0, d, "half")
    prob = phi(1.0)
    dphi1 = cond_pair_pgf_prime1(model, d, "half")
    int_phi = _quad(phi)

    mean = prob - int_phi
    second = prob - 2 * _quad(lambda z: z * phi(z))
    cross = prob - 2 * int_phi + integrate_2d(lambda s: cond_pair_pgf(model, s, 0.0, d, "half"), box_kernel)[0]
    n_same = dphi1 - prob + int_phi
    n_other = dphi1 - prob + phi(0.0)

    # endpoint aisle halves: distinct joint PGF (the tagged endpoint half may
    # be empty while the endpoint aisle is still occupied through its twin)
    dpsi1 = (Pp((d + 1) / k) - Pp(d / k)) / h
    bracket = P((d + 1) / k) - P(d / k) - P((2 * d + 1) / h) + P((2 * d - 1) / h)
    n_endpoint = dpsi1 - bracket
    return FarHalfCond(prob, mean, second, cross, n_same, n_other, n_endpoint)


# ---------------------------------------------------------------------------
# occupancy problem: number of occupied aisles, contiguous sets, odd indicator
# ---------------------------------------------------------------------------

def _mp_dps(k: int) -> int:
    # binomial cancellation grows like log10 C(k, k/2) ~ 0.3 k
    return 25 + int(0.32 * k)


def _contiguous_probs_mp(model: AisleModel):
    """cp[j] = P(occupied set = {1..j}) for j = 1..k, as mpf (computed stably)."""
    k, dist = model.k, model.dist
    with mpmath.workdps(_mp_dps(k)):
        pvals = [dist.pgf(mpmath.mpf(l) / k) for l in range(k + 1)]
        cp = [None] * (k + 1)
        for j in range(1, k + 1):
            s = mpmath.mpf(0)
            for l in range(j + 1):
                term = comb(j, l) * pvals[l]
                s = s + term if (j - l) % 2 == 0 else s - term
            cp[j] = s
    return cp


def occupancy_law(model: AisleModel):
    """(pmf over j=1..k of the occupied-aisle count, its mean and second moment,
    and the contiguous-set probabilities P(occupied set = {1..j}))."""
    k, P = model.k, model.dist.pgf
    cp = _contiguous_probs_mp(model)
    pmf = [float(comb(k, j) * cp[j]) for j in range(1, k + 1)]
    contiguous = [float(cp[j]) for j in range(1, k + 1)]
    mean = k - k * P(1 - 1 / k)
    second = k * k + k * (1 - 2 * k) * P(1 - 1 / k)
    if k >= 2:
        second += k * (k - 1) * P(1 - 2 / k)
    return pmf, mean, second, contiguous


def iodd_mean(model: AisleModel) -> float:
    """E[1{number of occupied aisles is odd}] (equals its own second moment)."""
    pmf, _, _, _ = occupancy_law(model)
    return math.fsum(pmf[j - 1] for j in range(1, model.k + 1, 2))


def contiguous_pgf(model: AisleModel, z: float, j: int) -> float:
    """E[z^{N_j} 1{occupied set = {1..j}}] via the alternating-sum identity."""
    k, dist = model.k, model.dist
    if not 1 <= j <= k:
        raise ValueError(f"set size must lie in 1..{k}, got {j}")
    if not 0 <= z <= 1:
        raise ValueError(f"PGF argument must lie in [0, 1], got {z!r}")
    with mpmath.workdps(_mp_dps(k)):
        zm = mpmath.mpf(z)
        s = mpmath.mpf(0)
        for l in range(j):
            term = comb(j - 1, l) * (dist.pgf((zm + l) / k) - dist.pgf(mpmath.mpf(l) / k))
            s = s + term if (j - 1 - l) % 2 == 0 else s - term
        return float(s)


# --- primitives for the furthest-item interactions of the contiguous set ----

def _pgf_antiderivatives(dist: OrderSizeDistribution):
    """(Phi, Psi) with Phi' = pgf and Psi' = x * pgf, or None if not elementary."""
    if isinstance(dist, Deterministic):
        m = dist.m
        return (lambda x: x ** (m + 1) / (m + 1), lambda x: x ** (m + 2) / (m + 2))
    if isinstance(dist, ShiftedPoisson):
        lam = dist.lam
        if lam == 0:
            return (lambda x: x * x / 2, lambda x: x ** 3 / 3)

        def phi(x):
            return mpmath.exp(-lam * (1 - x)) * (x / lam - 1 / mpmath.mpf(lam) ** 2)

        def psi(x):
            lam2 = mpmath.mpf(lam) ** 2
            return mpmath.exp(-lam * (1 - x)) * (x * x / lam - 2 * x / lam2 + 2 / (lam2 * lam))

        return phi, psi
    if isinstance(dist, Geometric):
        p = dist.p
        q = 1 - p
        if q == 0:
            return (lambda x: x * x / 2, lambda x: x ** 3 / 3)

        def phi(x):
            return -p * mpmath.log(1 - q * x) / q ** 2 - p * x / q

        def psi(x):
            return p * (-x * x / (2 * q) - x / q ** 2 - mpmath.log(1 - q * x) / q ** 3)

        return phi, psi
    return None


def _unit_integrals_mp(model: AisleModel):
    """I[l], J[l], K[l] for l = 0..k-1 at mp precision, where

    I[l] = int_0^1 pgf((z+l)/k) dz,
    J[l] = int_0^1 z * pgf((z+l)/k) dz,
    K[l] = int_0^1 ((z+l)/k) * pgf'((z+l)/k) dz.
    """
    k, dist = model.k, model.dist
    anti = _pgf_antiderivatives(dist)
    I, J, K = [], [], []
    if anti is not None:
        phi, psi = anti
        for l in range(k):
            a = mpmath.mpf(l) / k
            b = mpmath.mpf(l + 1) / k
            dphi = phi(b) - phi(a)
            I.append(k * dphi)
            J.append(k * k * (psi(b) - psi(a)) - l * k * dphi)
            K.append(k * (b * dist.pgf(b) - a * dist.pgf(a) - dphi))
    else:
        for l in range(k):
            a = mpmath.mpf(l) / k
            b = mpmath.mpf(l + 1) / k
            I.append(k * mpmath.quad(dist.pgf, [a, b]))
            J.append(k * k * mpmath.quad(lambda x: x * dist.pgf(x), [a, b]) - l * k * mpmath.quad(dist.pgf, [a, b]))
            K.append(k * mpmath.quad(lambda x: x * dist.pgf_prime(x), [a, b]))
    return I, J, K


def contiguous_far_moments(model: AisleModel):
    """Furthest-item interactions with the contiguous occupied set {1..j}.

    Returns lists indexed by j = 1..k (index 0 unused):
      far[j]   = E[A_j   1{occupied set = {1..j}}]
      far2[j]  = E[A_j^2 1{occupied set = {1..j}}]
      mfar[j]  = E[M A_j 1{occupied set = {1..j}}]
    where A_j is the furthest item location in the last occupied aisle.
    """
    k, dist = model.k, model.dist
    with mpmath.workdps(_mp_dps(k)):
        I, J, K = _unit_integrals_mp(model)
        pv = [dist.pgf(mpmath.mpf(l + 1) / k) for l in range(k)]
        pd = [dist.pgf_prime(mpmath.mpf(l + 1) / k) for l in range(k)]
        far = [None] * (k + 1)
        far2 = [None] * (k + 1)
        mfar = [None] * (k + 1)
        for j in range(1, k + 1):
            s = s2 = sm = mpmath.mpf(0)
            for l in range(j):
                c = comb(j - 1, l)
                sign = 1 if (j - l) % 2 == 0 else -1
                s += sign * c * (I[l] - pv[l])
                s2 += sign * c * (2 * J[l] - pv[l])
                sm += sign * c * (K[l] - mpmath.mpf(l + 1) / k * pd[l])
            far[j] = float(s)
            far2[j] = float(s2)
            mfar[j] = float(sm)
    return far, far2, mfar


def contiguous_count_prime(model: AisleModel):
    """w[j] = E[N_1 1{occupied set = {1..j}}] * k for j = 1..k (index 0 unused)."""
    k, dist = model.k, model.dist
    with mpmath.workdps(_mp_dps(k)):
        pd = [dist.pgf_prime(mpmath.mpf(1 + l) / k) for l in range(k)]
        w = [None] * (k + 1)
        for j in range(1, k + 1):
            s = mpmath.mpf(0)
            for l in range(j):
                term = comb(j - 1, l) * pd[l]
                s = s + term if (j - 1 - l) % 2 == 0 else s - term
            w[j] = float(s)
    return w
