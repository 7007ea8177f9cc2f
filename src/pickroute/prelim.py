"""Building-block expectations for a k-aisle warehouse under random storage.

Everything here is a function of an :class:`AisleModel` (aisle count ``k`` plus
an order-size distribution) and is expressed through the order-size PGF:

* discrete order statistics of the occupied aisles: moments of the furthest
  occupied aisle ``kplus`` and joint event probabilities with the closest one,
* furthest-item location moments per aisle and their interactions,
* largest-gap moments per aisle (the part of an aisle a picker can skip),
* the same two quantities for one interior unit (half-aisle or aisle), joint
  with the event that the occupied aisles span a fixed distance d,
* classical occupancy quantities: law of the number of occupied aisles, and
  the furthest item of the last occupied aisle joint with it.

Conditional-event formulas depend on the aisle span ``d = kplus - kminus``
only, never on the individual aisle indices.  Return, midpoint and largest
gap read the PGF from one lattice and one table per model: P(j/k) and
P'(j/k) for j = 0..k, and the rows P((j + x)/k) for j < k on the nodes of
the rule in :mod:`pickroute.quadrature`.  A half-aisle is an aisle of the
model with 2k aisles and the same order sizes (items land uniformly on all
2k), whose lattice and table midpoint reads.  Every integral below is of
rows on those nodes, taken by :func:`~pickroute.quadrature.integrate_1d` or
:func:`~pickroute.quadrature.integrate_2d`.  A span-d term is a second
difference of rows in j, taken node by node for all spans 2..k-1 at once
and then integrated against a fixed weight column: differencing first keeps
the digits that cancel between neighbouring rows, which integrating each row
first loses (the largest-gap cross term at k = 64, d = 3, geom:18 went from
7e-14 to 5e-10 relative).  A two-unit cross term, an integral in s = x + y,
is the same second difference one lattice row lower (s < 1) and where it is
(s = 1 + x), against the two halves of its kernel.

A unit's mean, second moment and pair cross moment, joint with an event, are
written once per kind, X = A in :func:`_far_moments` and X = 1 - D in
:func:`_gap_moments`, from the event's probability, the rows
E[x^N 1{event}] and the pair's kernel integral.  A whole aisle is the
certain event, with probability 1 and table rows k - 1 and k - 2; a span d
supplies second differences of rows.

The occupancy quantities are PGF sums with alternating signs, which cancel
like 3^k.  They are instead taken from one table of numbers in [0, 1],

    q_m(j) = C(k, j) j! S(m, j) / k^m = P(m items occupy exactly j aisles),

S the Stirling numbers of the second kind, built by the classical occupancy
chain (Feller, vol. 1, ch. II): q_0 = [j = 0] and
q_{m+1}(j) = (j/k) q_m(j) + ((k-j+1)/k) q_m(j-1), item m+1 landing in one of
the j occupied aisles or in one of the k-j+1 empty ones.  With p_m = P(M = m),
the identities sum_l (-1)^(j-l) C(j, l) l^m = j! S(m, j) and its shifted form
sum_l (-1)^(j-1-l) C(j-1, l) (l+1)^(m-1) = (j-1)! S(m, j) turn each sum into
a sum of non-negative terms.  Each block is C(k, j) times a moment on the
occupied set {1..j} ("set"; A_j is the furthest item of aisle j, N_1 the item
count of aisle 1, I the occupied count, A the furthest item of the last
occupied aisle):

    cp[j]   = C(k, j) P(set)             = P(I = j)  = sum_m p_m q_m(j)
    w[j]    = C(k, j) k E[N_1 1{set}]                = (k/j) sum_m m p_m q_m(j)
    far[j]  = C(k, j) E[A_j 1{set}]      = E[A 1{I = j}]
            = (k/j) sum_m p_m (1 - j/(m+1)) q_{m+1}(j)
    mfar[j] = C(k, j) E[M A_j 1{set}]    = (k/j) sum_m m p_m (1 - j/(m+1)) q_{m+1}(j)
    far2[j] = C(k, j) E[A_j^2 1{set}]    = (k/j) sum_m p_m [q_{m+1}(j)
                                           - 2k (m+2-j) / ((m+1)(m+2)) q_{m+2}(j)]

Sums over sets of j aisles that need another binomial take it as a ratio to
C(k, j), which would overflow a double from k ~ 1,030:
C(k+1, j+1) / C(k, j) = (k+1)/(j+1) and C(k-1, j-1) / C(k, j) = j/k.

The rows run over the order sizes of the truncated pmf, and stop at the
latest at the n past which all k aisles are occupied but for probability
1e-18.  Beyond n only column k gains mass, through the tail sums
sum_{m>n} p_m {1, m, 1/(m+1), 1/((m+1)(m+2))}; they are totals minus head
sums, the totals being 1, E[M], int_0^1 P and int_0^1 (1-x) P.

The rows are built in one loop over blocks of b order sizes, each block's
rows 1..b+1 filled from its row 0 alone.  A step moves mass at most one
column up, so if row 0 is zero outside [lo, hi), the block is zero outside
[lo, hi + b + 1): it is filled, floored, summed and zeroed again on those
columns alone, O(hi - lo + b) a row, not O(k).  Below k = 128 a block is
512 rows, filled by doubling: rows h..2h-1 = rows 0..h-1 times T^h for
h = 1, 2, 4, ..., T the bidiagonal chain matrix and T^2, T^4, ... squared
once per table.  A doubled row costs its band squared in multiply-adds
inside one BLAS call, less than the few numpy calls of a chain step while k
is small.  From k = 128 a block is 128 rows, stepped by the chain one row at
a time.  Late rows are mostly zeros and subnormals: q_m(j) falls like
(j/k)^m in the low columns, and at large k also near column m while m < k.
So the entries of every block not above a floor of 1e-280, far below
anything the sums can see, become exact zeros, and the next block's columns
start where its mass does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orderdist import PMF_TAIL, OrderSizeDistribution, as_count
from .quadrature import BOX_HALVES, LOG_HALVES, NODES, gap_kernel, integrate_1d, integrate_2d

__all__ = [
    "AisleModel",
    "kplus_moments",
    "far_item_moments",
    "sum_far_item_kplus_cross",
    "m_far_cross",
    "gap_moments",
    "SpanCond",
    "far_half_cond_moments",
    "gap_cond_moments",
    "occupancy_law",
    "contiguous_far_moments",
    "contiguous_count_prime",
]


@dataclass(frozen=True)
class AisleModel:
    """k storage aisles; items land uniformly on aisles and positions."""

    k: int
    dist: OrderSizeDistribution

    def __post_init__(self):
        object.__setattr__(self, "k", as_count(self.k, "aisle count"))


# ---------------------------------------------------------------------------
# discrete order statistics of occupied aisles
# ---------------------------------------------------------------------------

def kplus_moments(model: AisleModel) -> tuple[float, float, float]:
    """(E[kplus], E[kplus^2], E[M * kplus]) for the furthest occupied aisle."""
    k = model.k
    grid, slope = _pgf_lattice(model)
    j = np.arange(k)
    p = grid[:-1]   # P(j/k)
    mean = k - math.fsum(p.tolist())
    second = k * k - math.fsum(((2 * j + 1) * p).tolist())
    cross_m = k * model.dist.mean() - math.fsum((j / k * slope[:-1]).tolist())
    return mean, second, cross_m


# Points of the lattice per call of the PGF: under 128, every temporary stays in
# numpy's cache of blocks under 1 KiB.  In one call, midpoint's 129 points at
# k = 64 left malloc blocks inside freed tables, and the heap of wide-aisles
# grew and shrank every pass (~330 more minor faults a pass, 2-vCPU VM).
_LATTICE_POINTS = 64


@lru_cache(maxsize=2)
def _pgf_lattice(model: AisleModel):
    """(P(j/k), P'(j/k)) for j = 0..k, read-only; cached for a model and its half model."""
    k = model.k
    lattice = np.empty(k + 1), np.empty(k + 1)
    for lo in range(0, k + 1, _LATTICE_POINTS):
        x = np.arange(lo, min(lo + _LATTICE_POINTS, k + 1)) / k
        lattice[0][lo:lo + x.size], lattice[1][lo:lo + x.size] = model.dist.pgf(x), model.dist.pgf_prime(x)
    for values in lattice:
        values.flags.writeable = False
    return lattice


# Rows of the PGF table per call of the PGF.  A call on all rows at once
# makes temporaries that malloc hands back to the system and faults in again
# on the next call (64 rows of geom:18 on a 2-vCPU VM: 245 minor faults and
# 0.76 ms, against none and 0.36 ms in blocks of 8).
_TABLE_ROWS = 8


@lru_cache(maxsize=2)
def _pgf_table(model: AisleModel):
    """The rows P((j + x)/k) on the rule's nodes for j = 0..k-1, read-only.
    The return and span blocks below read their PGF values from it and the
    lattice; cached for a model and its half-aisle model, so that return and
    largest gap share one table whatever runs between them."""
    top = np.arange(model.k)[:, None]
    rows = np.empty((model.k, NODES.size))
    for lo in range(0, model.k, _TABLE_ROWS):
        rows[lo:lo + _TABLE_ROWS] = model.dist.pgf((top[lo:lo + _TABLE_ROWS] + NODES) / model.k)
    rows.flags.writeable = False
    return rows


# Weight functions of the integrals on the table's rows; quadrature keeps each
# one's columns.
def _x(x):
    return x


def _log1m(x):
    return np.log1p(-x)


def _slope(x):
    return 1 / (1 - x)


def _x_gap_kernel(x):
    return x * gap_kernel(x)


# ---------------------------------------------------------------------------
# furthest-item location moments
# ---------------------------------------------------------------------------

def _far_moments(prob, g, pair):
    """(int g, E[X 1{event}], E[X^2 1{event}], E[X_i X_m 1{event}]) for X = A
    of one unit, the event of probability ``prob``, ``g`` = E[x^N 1{event}] on
    the nodes and ``pair`` the kernel integral of two units (NaN if none)."""
    int_g = integrate_1d(g)[0]
    return int_g, prob - int_g, prob - 2 * integrate_1d(g, _x)[0], prob - 2 * int_g + pair


def _gap_moments(prob, g, pair):
    """As :func:`_far_moments` for X = 1 - D, int g log(1 - x) first."""
    int_log = integrate_1d(g, _log1m)[0]
    head = prob + 2 * int_log
    return int_log, prob + int_log, head + integrate_1d(g, _x_gap_kernel)[0], head + pair


def far_item_moments(model: AisleModel) -> tuple[float, float, float]:
    """(E[A], E[A^2], E[A_i A_j]) for the furthest item in an aisle.

    ``A`` is the furthest item location as a fraction of the aisle length; the
    cross moment pairs two distinct aisles and is NaN when k = 1.
    """
    rows = _pgf_table(model)
    # the box kernel of the pair's sum s: row k - 2 for s < 1, row k - 1 for s = 1 + x
    pair = integrate_2d(rows[-2], rows[-1], BOX_HALVES)[0] if model.k >= 2 else math.nan
    return _far_moments(1.0, rows[-1], pair)[1:]


def sum_far_item_kplus_cross(model: AisleModel) -> float:
    """Sum over aisles of E[A_i * kplus].

    With tail_j = P(j/k) - int_0^1 P((j-1+x)/k) dx, E[A_i kplus] is
    k E[A] - sum_{j=i}^{k-1} tail_j, and the sum over i weighs tail_j by j;
    E[A] = 1 - int_0^1 P((k-1+x)/k) dx is the row j = k of the same integral.
    """
    k = model.k
    grid, rows = _pgf_lattice(model)[0], _pgf_table(model)
    ints = integrate_1d(rows)[0]
    j = np.arange(1, k)
    return k * k * (1.0 - float(ints[-1])) - math.fsum(j * (grid[1:k] - ints[:-1]))


def m_far_cross(model: AisleModel) -> float:
    """E[M * A_i], the order size against the furthest item in one aisle."""
    k = model.k
    p = float(_pgf_lattice(model)[0][k - 1])
    return model.dist.mean() - k + (k - 1) * p + integrate_1d(_pgf_table(model)[-1])[0]


# ---------------------------------------------------------------------------
# largest-gap moments
# ---------------------------------------------------------------------------

def gap_moments(model: AisleModel) -> tuple[float, float, float]:
    """Moments of (1 - D): mean, second moment and two-aisle cross moment.

    ``D`` is the largest of the N+1 spacings of an aisle (both ends included;
    an empty aisle has D = 1 so 1 - D contributes nothing).  The cross moment
    needs two distinct aisles and is NaN for k = 1.
    """
    rows = _pgf_table(model)
    pair = integrate_2d(rows[-2], rows[-1], LOG_HALVES)[0] if model.k >= 2 else math.nan
    return _gap_moments(1.0, rows[-1], pair)[1:]


# ---------------------------------------------------------------------------
# span-conditional moments of one interior unit (midpoint and largest gap)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanCond:
    """Moments of the within-aisle distance X_i of one interior unit, all joint
    with the event that the closest and furthest occupied aisles are two fixed
    aisles d apart.  A unit is a half-aisle for midpoint (X_i = A^f, the
    furthest item from its cross-aisle) and a whole aisle for largest gap
    (X_i = 1 - D_i); N_m is the item count of unit m.  Each field is an
    array over the spans d = 2..k-1, entry d - 2 for span d (empty for
    k <= 2)."""

    prob: np.ndarray        # P(kplus = j, kminus = l), j - l = d
    mean: np.ndarray        # E[X_i 1{event}]
    second: np.ndarray      # E[X_i^2 1{event}]
    cross: np.ndarray       # E[X_i X_m 1{event}], distinct interior units (NaN if none)
    n_same: np.ndarray      # E[N_i X_i 1{event}]
    n_other: np.ndarray     # E[N_m X_i 1{event}], another interior unit (NaN if none)
    n_endpoint: np.ndarray  # E[N_m X_i 1{event}], m a unit of the closest or furthest aisle


def gap_cond_moments(model: AisleModel) -> SpanCond:
    """Largest-gap span-d moments of X_i = 1 - D_i for an interior aisle, for
    every span d = 2..k-1."""
    k = model.k
    grid, slope = _pgf_lattice(model)
    rows = _pgf_table(model)

    # gam(x) = E[x^N 1{event}] of an interior aisle, rows d-2, d-1, d of the
    # table: spans 2..k-1 down, nodes across
    step = np.diff(rows, axis=0)
    gam = np.diff(step, axis=0)
    prob = np.diff(grid, 2)[1:]
    dgam1 = (slope[3:] - 2 * slope[2:-1] + slope[1:-2]) / k
    # endpoint aisle: the joint PGF with the closest (or furthest) aisle has a
    # different inclusion-exclusion structure than the interior pair
    end1 = grid[3:] - grid[2:-1]
    dlam1 = (slope[3:] - slope[2:-1]) / k

    int_gam = integrate_1d(gam)[0]
    r = integrate_1d(prob[:, None] - gam, _slope)[0]
    r_end = integrate_1d(end1[:, None] - step[1:], _slope)[0]
    # two interior aisles need d >= 3; their pair PGF depends on its two
    # arguments only through their sum s, which the log kernel weighs: the
    # rows of s < 1 are gam one span down, those of s = 1 + x gam itself
    pair = np.full(prob.shape, math.nan)
    pair[1:] = integrate_2d(gam[:-1], gam[1:], LOG_HALVES)[0]
    int_gam_log, mean, second, cross = _gap_moments(prob, gam, pair)
    n_same = dgam1 - int_gam_log - r - int_gam
    n_other = dgam1 - r
    n_other[:1] = math.nan
    n_endpoint = dlam1 - r_end
    return SpanCond(prob, mean, second, cross, n_same, n_other, n_endpoint)


def far_half_cond_moments(model: AisleModel) -> SpanCond:
    """Midpoint span-d moments of X_i = A^f for an interior half-aisle, for
    every span d = 2..k-1."""
    half = AisleModel(2 * model.k, model.dist)
    grid, slope = _pgf_lattice(half)
    even, odd, even_slope = grid[::2], grid[1::2], slope[::2]   # 2j/2k is j/k
    rows = _pgf_table(half)

    # phi(z) = E[z^N 1{event}] of an interior half: odd rows 2d-3, 2d-1, 2d+1
    phi = np.diff(rows[1::2], 2, axis=0)
    prob = np.diff(even, 2)[1:]
    dphi1 = (even_slope[3:] - 2 * even_slope[2:-1] + even_slope[1:-2]) / half.k

    # the box kernel of the pair's sum s: even rows 2d-4, 2d-2, 2d for s < 1,
    # phi for s = 1 + x
    pair = integrate_2d(np.diff(rows[::2], 2, axis=0), phi, BOX_HALVES)[0]
    int_phi, mean, second, cross = _far_moments(prob, phi, pair)
    n_same = dphi1 - prob + int_phi
    n_other = dphi1 - prob + np.diff(odd, 2)

    # endpoint aisle halves: distinct joint PGF (the tagged endpoint half may
    # be empty while the endpoint aisle is still occupied through its twin)
    dpsi1 = (even_slope[3:] - even_slope[2:-1]) / half.k
    bracket = even[3:] - even[2:-1] - odd[2:] + odd[1:-1]
    n_endpoint = dpsi1 - bracket
    return SpanCond(prob, mean, second, cross, n_same, n_other, n_endpoint)


# ---------------------------------------------------------------------------
# occupancy problem: number of occupied aisles and the last aisle's furthest item
# ---------------------------------------------------------------------------

# Order sizes whose rows of the occupancy table are held at a time; bounds
# its memory at large k.  A chained block is shorter, so that the columns it
# is stepped on stay close to the band of its first row.
_ROWS = 512
_CHAIN_ROWS = 128
# From this aisle count the blocks are stepped by the chain, below it doubled
# (see the module docstring).
_CHAIN_FROM = 128
# Entries of the table not above this become exact zeros, once per block.
_FLOOR = 1e-280


def _saturation_rows(k: int) -> int:
    """Order size n past which all k aisles are occupied but for probability
    PMF_TAIL, by the union bound k (1 - 1/k)^n <= PMF_TAIL."""
    if k == 1:
        return 1
    return math.ceil(math.log(k / PMF_TAIL) / -math.log1p(-1 / k))


@lru_cache(maxsize=1)
def _pgf_integrals(dist: OrderSizeDistribution) -> tuple[float, float]:
    """(int_0^1 P, int_0^1 (1 - x) P) = (E[1/(M+1)], E[1/((M+1)(M+2))]);
    cached, as they depend on the law alone."""
    p = dist.pgf(NODES)
    int_p, int_q = integrate_1d(np.stack([p, (1 - NODES) * p]))[0]
    return float(int_p), float(int_q)


def _fill(rows: np.ndarray, powers: list, stay: np.ndarray, move: np.ndarray) -> None:
    """Rows 1.. of ``rows`` from its row 0: doubled when ``powers`` holds
    T, T^2, ..., T^h for the h < len(rows) (rows h..2h-1 = rows 0..h-1 times
    T^h), else stepped by the chain a row at a time.  ``powers``, ``stay``
    and ``move`` are cut to the columns of ``rows``."""
    n = len(rows)
    if powers:
        for i, power in enumerate(powers):
            h = 1 << i
            np.matmul(rows[:min(h, n - h)], power, out=rows[h:min(2 * h, n)])
    else:
        for s in range(1, n):
            np.multiply(rows[s - 1], stay, out=rows[s])
            rows[s, 1:] += rows[s - 1, :-1] * move


@lru_cache(maxsize=1)
def _occupancy(model: AisleModel):
    """(cp, w, far, mfar, far2) as read-only arrays over j = 0..k (j = 0
    unused), from the table q_m(j) of the module docstring; cached because the
    three public blocks below share it and hand out views of it."""
    k, dist = model.k, model.dist
    n = _saturation_rows(k)
    p = dist.pmf(n)
    j = np.arange(k + 1)
    stay, move = j / k, (k + 1 - j[1:]) / k
    chain = k >= _CHAIN_FROM
    size = _CHAIN_ROWS if chain else _ROWS
    # T^h for h = 1, 2, 4, ... below the rows one block fills: q_{m+h} = q_m T^h
    powers = []
    for _ in range(0 if chain else (min(size, len(p)) + 1).bit_length()):
        powers.append(powers[-1] @ powers[-1] if powers else np.diag(stay) + np.diag(move, 1))
    cp, mw, far, mfar, far2 = np.zeros((5, k + 1))
    q = np.zeros((size + 2, k + 1))   # q[i] = q_{start+i}
    q[0, 0] = 1.0
    for start in range(0, len(p), size):
        pm = p[start:start + size]
        b = len(pm)
        # a step moves mass at most one column up, so rows 1..b+1 are zero
        # outside the band from q[0]'s first non-zero column to b + 1 past its last
        nz = np.flatnonzero(q[0])
        band = slice(nz[0], min(nz[-1] + b + 2, k + 1))
        rows = q[:b + 2, band]
        used = powers[:(b + 1).bit_length()]   # T^h for h < b + 2
        _fill(rows, [power[band, band] for power in used], stay[band], move[band.start:band.stop - 1])
        rows[rows <= _FLOOR] = 0.0   # row 0 was floored with the block before
        if pm.any():
            m = np.arange(start, start + b, dtype=float)[:, None]
            jb, q0, q1, q2 = j[band], rows[:b], rows[1:b + 1], rows[2:]
            cp[band] += pm @ q0
            mw[band] += (m[:, 0] * pm) @ q0
            # the sums of the module docstring, each step in place: with fresh
            # temporaries of the block's size the whole build at k = 4096 was
            # 6-8% slower (snbin:50:1e4, geom:1000; one BLAS thread on a
            # 2-vCPU VM), for the same bits
            fw = np.divide(jb, m + 1)
            np.subtract(1, fw, out=fw)
            fw *= pm[:, None]
            fw *= q1
            far[band] += fw.sum(axis=0)
            fw *= m
            mfar[band] += fw.sum(axis=0)
            bracket = np.subtract(m + 2, jb)
            bracket *= 2 * k
            bracket /= (m + 1) * (m + 2)
            bracket *= q2
            np.subtract(q1, bracket, out=bracket)
            bracket *= pm[:, None]
            far2[band] += bracket.sum(axis=0)
        # rows 1..b+1 need no zeroing while every block but the last has the
        # same length b: each fill rewrites them on its band before they are
        # read, and row b, the next row 0, stays zero off the band, as row 0 is
        q[0] = q[b]
    if len(p) == n + 1:
        # order sizes beyond n occupy every aisle: only column k gains
        m = np.arange(n + 1)
        em = dist.mean()
        t0 = 1.0 - math.fsum(p)
        t1 = em - math.fsum(m * p)
        int_p, int_q = _pgf_integrals(dist)
        th = int_p - math.fsum(p / (m + 1))
        tq = int_q - math.fsum(p / ((m + 1) * (m + 2)))
        cp[k] += t0
        mw[k] += t1
        far[k] += t0 - k * th
        mfar[k] += t1 - k * (t0 - th)
        far2[k] += t0 - 2 * k * th + 2 * k * k * tq
    scale = np.divide(k, j, out=np.zeros(k + 1), where=j > 0)
    blocks = cp, scale * mw, scale * far, scale * mfar, scale * far2
    for block in blocks:
        block.flags.writeable = False
    return blocks


def occupancy_law(model: AisleModel):
    """(pmf over j=1..k of the occupied-aisle count, a read-only array, its
    mean and second moment), all from the table: the moments are sums of
    non-negative terms."""
    cp = _occupancy(model)[0]
    j = np.arange(model.k + 1)
    return cp[1:], math.fsum((j * cp).tolist()), math.fsum((j * j * cp).tolist())


def contiguous_far_moments(model: AisleModel):
    """The furthest item A of the last occupied aisle, joint with the occupied
    count I.

    Returns read-only arrays indexed by j = 1..k (index 0 unused), each
    C(k, j) times the same moment on the contiguous occupied set {1..j}:
      far[j]   = E[A   1{I = j}]
      far2[j]  = E[A^2 1{I = j}]
      mfar[j]  = E[M A 1{I = j}]
    """
    _, _, far, mfar, far2 = _occupancy(model)
    return far, far2, mfar


def contiguous_count_prime(model: AisleModel):
    """w[j] = C(k, j) k E[N_1 1{occupied set = {1..j}}] = (k/j) E[M 1{I = j}]
    for j = 1..k (index 0 unused), I the occupied-aisle count, as a read-only
    array."""
    return _occupancy(model)[1]
