"""Independent oracles for the analytic engine.

Exhaustive enumeration over half-aisle assignments for deterministic order
sizes, with exact rational conditional factors for the continuous parts:

  max of n uniforms:          E[A | n] = n/(n+1),  E[A^2 | n] = n/(n+2)
  largest of the n+1 spacings E[D | n] = H(n+1)/(n+1),
  of n uniforms:              E[D^2 | n] = (H(n+1)^2 + H2(n+1)) / ((n+1)(n+2))

These share no code with the package: every expectation is a direct sum over
k^m (or (2k)^m) equally likely assignments.  ``sshaped_det_moments`` sums
over (occupied count, furthest aisle, items in it) instead, which reaches
k = 512, and ``det_gap_moments`` over the binomial count of one aisle and
the multinomial counts of two.  Two exceptions use the PGF: ``far_item_kplus_cross`` is the
per-aisle formula that the package only uses summed over aisles, and
``occupancy_blocks_mp`` is the alternating-sum form of the package's
occupancy blocks, evaluated in mpmath at 40 + 0.6k digits.

``route_time`` evaluates one sampled order's route literally, item by item:
the scalar definition that the vectorized Monte Carlo engine must reproduce.
``route_times_batch`` returns that engine's per-order route times, which the
package only reduces to moments.  ``mg1_sojourn_times`` and
``mgc_sojourn_times`` run them through an FCFS queue, for the lead time.

``pair_event_prob``, ``contiguous_probs`` and ``iodd_mean`` are quantities
the package no longer needs, derived from its PGF and occupancy law for the
tests that check them.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate

from pickroute.heuristics import HEURISTICS, PickTimeModel, WarehouseConfig
from pickroute.orderdist import Deterministic, Geometric, OrderSizeDistribution, ShiftedPoisson
from pickroute.prelim import occupancy_law
from pickroute.simulate import _batches


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def harmonic2(n: int) -> Fraction:
    return sum((Fraction(1, i * i) for i in range(1, n + 1)), Fraction(0))


def e_max(n: int) -> Fraction:
    return Fraction(n, n + 1)


def e_max2(n: int) -> Fraction:
    return Fraction(n, n + 2)


def e_gap(n: int) -> Fraction:
    return harmonic(n + 1) / (n + 1)


def e_gap2(n: int) -> Fraction:
    return (harmonic(n + 1) ** 2 + harmonic2(n + 1)) / ((n + 1) * (n + 2))


def det_gap_moments(k: int, m: int) -> tuple[Fraction, Fraction, Fraction | None]:
    """E[1 - D], E[(1 - D)^2] of one aisle and E[(1 - D_1)(1 - D_2)] of two
    (None for k = 1), D an aisle's largest spacing (1 if empty), for det(m)
    orders: one aisle's count is Bin(m, 1/k), and two aisles' counts are
    multinomial, their spacings independent given the counts."""
    p = Fraction(1, k)
    one = [math.comb(m, n) * p ** n * (1 - p) ** (m - n) for n in range(m + 1)]
    mean = sum(q * (1 - e_gap(n)) for n, q in enumerate(one))
    second = sum(q * (1 - 2 * e_gap(n) + e_gap2(n)) for n, q in enumerate(one))
    if k == 1:
        return mean, second, None
    cross = sum(math.comb(m, a) * math.comb(m - a, b) * p ** (a + b) * (1 - 2 * p) ** (m - a - b)
                * (1 - e_gap(a)) * (1 - e_gap(b))
                for a in range(m + 1) for b in range(m + 1 - a))
    return mean, second, cross


def iter_half_assignments(k: int, m: int):
    """(probability, per-half-aisle counts) over all (2k)^m assignments."""
    merged = Counter()
    for assignment in itertools.product(range(2 * k), repeat=m):
        merged[tuple(sorted(Counter(assignment).items()))] += 1
    total = (2 * k) ** m
    for key, count in merged.items():
        halves = [0] * (2 * k)
        for idx, n in key:
            halves[idx] = n
        yield Fraction(count, total), halves


def iter_aisle_assignments(k: int, m: int):
    """(probability, per-aisle counts) over all k^m assignments."""
    merged = Counter()
    for assignment in itertools.product(range(k), repeat=m):
        merged[tuple(sorted(Counter(assignment).items()))] += 1
    total = k ** m
    for key, count in merged.items():
        counts = [0] * k
        for idx, n in key:
            counts[idx] = n
        yield Fraction(count, total), counts


def occupied(counts):
    return [i + 1 for i, n in enumerate(counts) if n > 0]


def enum_discrete(k: int, m: int) -> dict:
    """Exact discrete quantities: kplus moments, occupancy pmf, odd indicator,
    pair event probabilities and the contiguous-set probabilities."""
    kp_mean = kp_sec = Fraction(0)
    pmf = [Fraction(0)] * (k + 1)
    iodd = Fraction(0)
    pair = {}
    contiguous = [Fraction(0)] * (k + 1)
    for p, counts in iter_aisle_assignments(k, m):
        occ = occupied(counts)
        kp, km = max(occ), min(occ)
        kp_mean += p * kp
        kp_sec += p * kp * kp
        pmf[len(occ)] += p
        if len(occ) % 2 == 1:
            iodd += p
        if kp > km:
            pair[kp - km] = pair.get(kp - km, Fraction(0)) + p
        if occ == list(range(1, len(occ) + 1)):
            contiguous[len(occ)] += p
    # every span-d pair position is equally likely: per-position probability
    pair_prob = {d: pair[d] / (k - d) for d in pair}
    return {
        "kp_mean": kp_mean,
        "kp_sec": kp_sec,
        "m_kp": m * kp_mean,
        "pmf": pmf[1:],
        "iodd": iodd,
        "pair_prob": pair_prob,
        "contiguous": contiguous[1:],
    }


def enum_moment_report(k: int, m: int, l, wa, v, ep, ep2) -> dict:
    """Exact (E[T], E[T^2]) per heuristic for det(m) orders."""
    tl = Fraction(l) / Fraction(v)
    twa = Fraction(wa) / Fraction(v)
    acc = {h: [Fraction(0), Fraction(0)] for h in HEURISTICS}
    for p, halves in iter_half_assignments(k, m):
        counts = [halves[2 * i] + halves[2 * i + 1] for i in range(k)]
        occ = occupied(counts)
        kp, km = max(occ), min(occ)
        cross = 2 * twa * (kp - 1)

        def add(h, mean_parts, sec_parts, scale):
            w1 = scale * sum(mean_parts, Fraction(0))
            e2 = sum(sec_parts, Fraction(0))
            for i, a in enumerate(mean_parts):
                for j, b in enumerate(mean_parts):
                    if i != j:
                        e2 += a * b
            w2 = scale * scale * e2
            base = 2 * tl if h in ("midpoint", "largest-gap") else Fraction(0)
            t1 = w1 + base + cross
            t2 = (w2 + base * base + cross * cross
                  + 2 * w1 * base + 2 * w1 * cross + 2 * base * cross)
            acc[h][0] += p * t1
            acc[h][1] += p * t2

        add("return", [e_max(n) for n in counts], [e_max2(n) for n in counts], 2 * tl)

        mid_means, mid_secs = [], []
        gap_means, gap_secs = [], []
        for aisle in range(km + 1, kp):
            mid_means += [e_max(halves[2 * (aisle - 1)]), e_max(halves[2 * aisle - 1])]
            mid_secs += [e_max2(halves[2 * (aisle - 1)]), e_max2(halves[2 * aisle - 1])]
            n = counts[aisle - 1]
            gap_means.append(1 - e_gap(n))
            gap_secs.append(1 - 2 * e_gap(n) + e_gap2(n))
        add("midpoint", mid_means, mid_secs, tl)
        add("largest-gap", gap_means, gap_secs, 2 * tl)

        si = len(occ)
        odd = si % 2
        n_last = counts[kp - 1]
        am, a2 = e_max(n_last), e_max2(n_last)
        w1 = tl * (si + odd * (2 * am - 1))
        w2 = tl * tl * (si * si + 2 * si * odd * (2 * am - 1) + odd * (4 * a2 - 4 * am + 1))
        acc["s-shaped"][0] += p * (w1 + cross)
        acc["s-shaped"][1] += p * (w2 + 2 * w1 * cross + cross * cross)

    out = {}
    ep, ep2 = Fraction(ep), Fraction(ep2)
    for h in HEURISTICS:
        travel1, travel2 = acc[h]
        e_t = m * ep + travel1
        e_t2 = m * ep2 + m * (m - 1) * ep * ep + 2 * m * ep * travel1 + travel2
        out[h] = (float(e_t), float(e_t2))
    return out


def enum_conditional(k: int, m: int, d: int) -> dict:
    """Exact conditional quantities on the event {kplus = d+1, kminus = 1},
    for the interior aisle 2 (and aisle 3 for cross terms when d >= 3)."""
    acc = {q: Fraction(0) for q in
           ("prob", "af_mean", "af_sec", "af_cross", "af_n_same", "af_n_other",
            "af_n_end", "gap_mean", "gap_sec", "gap_cross", "gap_n_same",
            "gap_n_other", "gap_n_end")}
    for p, halves in iter_half_assignments(k, m):
        counts = [halves[2 * i] + halves[2 * i + 1] for i in range(k)]
        occ = occupied(counts)
        if max(occ) != d + 1 or min(occ) != 1:
            continue
        acc["prob"] += p
        nf, nb = halves[2], halves[3]
        acc["af_mean"] += p * e_max(nf)
        acc["af_sec"] += p * e_max2(nf)
        acc["af_cross"] += p * e_max(nf) * e_max(nb)
        acc["af_n_same"] += p * nf * e_max(nf)
        acc["af_n_other"] += p * nb * e_max(nf)
        acc["af_n_end"] += p * halves[0] * e_max(nf)
        n2 = counts[1]
        g1 = 1 - e_gap(n2)
        acc["gap_mean"] += p * g1
        acc["gap_sec"] += p * (1 - 2 * e_gap(n2) + e_gap2(n2))
        acc["gap_n_same"] += p * n2 * g1
        acc["gap_n_end"] += p * counts[0] * g1
        if d >= 3:
            acc["gap_cross"] += p * g1 * (1 - e_gap(counts[2]))
            acc["gap_n_other"] += p * counts[2] * g1
    return acc


def _integral01(f) -> float:
    return integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)[0]


def far_item_kplus_cross(model, i: int) -> float:
    """E[A_i * kplus] for aisle i: k E[A] - sum_{j=i}^{k-1} tail_j with
    tail_j = P(j/k) - int_0^1 P((j-1+x)/k) dx (the tail sum depends on i)."""
    k, P = model.k, model.dist.pgf
    mean = 1.0 - _integral01(lambda x: P(1 - 1 / k + x / k))
    tails = [P(j / k) - _integral01(lambda x, j=j: P((j - 1 + x) / k)) for j in range(i, k)]
    return k * mean - math.fsum(tails)


def surjections(n: int, b: int) -> int:
    """Maps of n labelled items onto b labelled aisles that leave none empty."""
    return sum((-1) ** i * math.comb(b, i) * (b - i) ** n for i in range(b + 1))


def sshaped_det_moments(k: int, m: int, l, wa, v, ep, ep2) -> tuple[float, float]:
    """Exact S-shaped (E[T], E[T^2]) for det(m) orders in k aisles.

    The route depends on the occupied set only through its size I, its
    maximum K and the count n of items in aisle K: I aisles with maximum K in
    C(K-1, I-1) ways, the n items of aisle K in C(m, n) ways, the rest onto the
    other I - 1 aisles.  T is then the pick time plus
    (l/v)(I + [I odd](2A - 1)) + (2wa/v)(K - 1), A the largest of n uniforms.
    """
    tl, twa = Fraction(l) / Fraction(v), Fraction(wa) / Fraction(v)
    g1 = g2 = Fraction(0)
    for i in range(1, min(k, m) + 1):
        odd = i % 2
        for n in range(1, m - i + 2):
            ways = math.comb(m, n) * surjections(m - n, i - 1)
            for kk in range(i, k + 1):
                p = Fraction(math.comb(kk - 1, i - 1) * ways, k ** m)
                c1 = tl * (i - odd) + 2 * twa * (kk - 1)
                c2 = 2 * tl * odd
                g1 += p * (c1 + c2 * e_max(n))
                g2 += p * (c1 * c1 + 2 * c1 * c2 * e_max(n) + c2 * c2 * e_max2(n))
    ep, ep2 = Fraction(ep), Fraction(ep2)
    e_t = m * ep + g1
    e_t2 = m * ep2 + m * (m - 1) * ep * ep + 2 * m * ep * g1 + g2
    return float(e_t), float(e_t2)


def _mp_law(dist):
    """(pgf, pgf', Phi, Psi) in mpmath with the law's parameters taken as exact;
    Phi' = pgf and Psi' = x pgf, or None where they are not elementary."""
    if isinstance(dist, Deterministic):
        m = dist.m
        return (lambda x: x ** m, lambda x: m * x ** (m - 1),
                lambda x: x ** (m + 1) / (m + 1), lambda x: x ** (m + 2) / (m + 2))
    if isinstance(dist, ShiftedPoisson):
        lam = mpmath.mpf(dist.lam)
        e = lambda x: mpmath.exp(-lam * (1 - x))  # noqa: E731
        if lam == 0:
            return (lambda x: x, lambda x: mpmath.mpf(1), lambda x: x * x / 2, lambda x: x ** 3 / 3)
        return (lambda x: x * e(x), lambda x: e(x) * (1 + lam * x),
                lambda x: e(x) * (x / lam - 1 / lam ** 2),
                lambda x: e(x) * (x * x / lam - 2 * x / lam ** 2 + 2 / lam ** 3))
    if isinstance(dist, Geometric):
        p = mpmath.mpf(dist.p)
        q = 1 - p
        pgf, pgf1 = (lambda x: p * x / (1 - q * x)), (lambda x: p / (1 - q * x) ** 2)
        if q == 0:
            return pgf, pgf1, lambda x: x * x / 2, lambda x: x ** 3 / 3
        return (pgf, pgf1, lambda x: -p * mpmath.log(1 - q * x) / q ** 2 - p * x / q,
                lambda x: p * (-x * x / (2 * q) - x / q ** 2 - mpmath.log(1 - q * x) / q ** 3))
    r, p = dist.r, mpmath.mpf(dist.p)
    q = 1 - p
    return (lambda x: (p * x / (1 - q * x)) ** r,
            lambda x: r * p ** r * x ** (r - 1) / (1 - q * x) ** (r + 1), None, None)


def pair_event_prob(model, d: int) -> float:
    """P(kplus = j, kminus = l) for any fixed pair with j - l = d >= 1."""
    k, P = model.k, model.dist.pgf
    if not 1 <= d <= k - 1:
        raise ValueError(f"span d must lie in 1..{k - 1}, got {d}")
    return P((d + 1) / k) - 2 * P(d / k) + P((d - 1) / k)


def contiguous_probs(pmf) -> list[float]:
    """P(occupied set = {1..j}) for j = 1..k, from the occupied-count pmf:
    pmf[j-1] / C(k, j), divided exactly so that it underflows to 0 rather
    than overflowing at large k (an int over an int is correctly rounded)."""
    k = len(pmf)
    out, comb = [], 1
    for j, p in enumerate(pmf, start=1):
        comb = comb * (k - j + 1) // j
        num, den = p.as_integer_ratio()
        out.append(num / (den * comb))
    return out


def iodd_mean(model) -> float:
    """E[1{number of occupied aisles is odd}] (equals its own second moment)."""
    pmf, _, _ = occupancy_law(model)
    return math.fsum(pmf[j - 1] for j in range(1, model.k + 1, 2))


def occupancy_blocks_mp(model) -> dict:
    """The three occupancy blocks of ``pickroute.prelim`` (same names, same
    return shapes), each C(k, j) times the alternating PGF sum

      cp[j]   = sum_l (-1)^(j-l) C(j, l) P(l/k)
      w[j]    = sum_l (-1)^(j-1-l) C(j-1, l) P'((l+1)/k)
      far[j]  = -sum_l (-1)^(j-1-l) C(j-1, l) (I_l - P((l+1)/k))
      far2[j] = -sum_l (-1)^(j-1-l) C(j-1, l) (2 J_l - P((l+1)/k))
      mfar[j] = -sum_l (-1)^(j-1-l) C(j-1, l) (K_l - (l+1)/k P'((l+1)/k))

    with I_l, J_l, K_l the integrals of P((z+l)/k), z P((z+l)/k) and
    x P'(x) at x = (z+l)/k over z in [0, 1].  The sums cancel like 3^k, so
    they run at 40 + 0.6k digits.
    """
    k = model.k
    with mpmath.workdps(40 + int(0.6 * k)):
        P, Pp, phi, psi = _mp_law(model.dist)
        pv = [P(mpmath.mpf(l) / k) for l in range(k + 1)]
        pd = [Pp(mpmath.mpf(l) / k) for l in range(k + 1)]
        I, J, K = [], [], []
        for l in range(k):
            a, b = mpmath.mpf(l) / k, mpmath.mpf(l + 1) / k
            if phi is None:
                dphi, dpsi = mpmath.quad(P, [a, b]), mpmath.quad(lambda x: x * P(x), [a, b])
            else:
                dphi, dpsi = phi(b) - phi(a), psi(b) - psi(a)
            I.append(k * dphi)
            J.append(k * k * dpsi - l * k * dphi)
            K.append(k * (b * pv[l + 1] - a * pv[l] - dphi))
        cp, w, far, far2, mfar = np.zeros((5, k + 1))
        for j in range(1, k + 1):
            cp[j] = float(math.comb(k, j) * mpmath.fsum((-1) ** (j - l) * math.comb(j, l) * pv[l]
                                                        for l in range(j + 1)))
            sw = s = s2 = sm = mpmath.mpf(0)
            for l in range(j):
                c = math.comb(j - 1, l) * (-1) ** (j - 1 - l)
                sw += c * pd[l + 1]
                s -= c * (I[l] - pv[l + 1])
                s2 -= c * (2 * J[l] - pv[l + 1])
                sm -= c * (K[l] - mpmath.mpf(l + 1) / k * pd[l + 1])
            c = math.comb(k, j)
            w[j], far[j], far2[j], mfar[j] = float(c * sw), float(c * s), float(c * s2), float(c * sm)
        p1, p2 = pv[k - 1], (pv[k - 2] if k >= 2 else 0)
        mean = float(k - k * p1)
        second = float(k * k + k * (1 - 2 * k) * p1 + k * (k - 1) * p2)
    return {
        "occupancy_law": (cp[1:], mean, second),
        "contiguous_far_moments": (far, far2, mfar),
        "contiguous_count_prime": w,
    }


def sshaped_sums_mp(model, dps: int = 40) -> tuple[float, float, float, float]:
    """S-shaped's four aisle sums E[X], E[X^2], E[kplus X] and E[M X] at ``dps``
    digits, by the PGF closed forms for E[I], E[I^2], E[kplus I] and E[M I]
    and sums over odd j of the blocks of :func:`occupancy_blocks_mp`, with
    X = I + [I odd](2A - 1)."""
    k = model.k
    blocks = occupancy_blocks_mp(model)
    with mpmath.workdps(dps):
        P, Pp, _, _ = _mp_law(model.dist)
        cp = [mpmath.mpf(0)] + [mpmath.mpf(v) for v in blocks["occupancy_law"][0]]
        w = [mpmath.mpf(v) for v in blocks["contiguous_count_prime"]]
        far, far2, mfar = ([mpmath.mpf(v) for v in b] for b in blocks["contiguous_far_moments"])
        x1, x2 = 1 - mpmath.mpf(1) / k, 1 - mpmath.mpf(2) / k
        e_i = k - k * P(x1)
        e_i2 = k * k + k * (1 - 2 * k) * P(x1) + k * (k - 1) * P(x2)
        e_ki = k * k - k * (k + 1) * P(x1) + mpmath.fsum(P(mpmath.mpf(i) / k) for i in range(k))
        e_mi = k * Pp(mpmath.mpf(1)) - (k - 1) * Pp(x1)

        def odd_sum(f):
            return mpmath.fsum(f(j) for j in range(1, k + 1, 2))

        kplus = lambda j: mpmath.mpf(j * (k + 1)) / (j + 1)  # noqa: E731  E[kplus | I = j]
        sums = (e_i + odd_sum(lambda j: 2 * far[j] - cp[j]),
                e_i2 + odd_sum(lambda j: 4 * j * far[j] - 2 * j * cp[j] + 4 * far2[j] - 4 * far[j] + cp[j]),
                e_ki + odd_sum(lambda j: kplus(j) * (2 * far[j] - cp[j])),
                e_mi + odd_sum(lambda j: 2 * mfar[j] - mpmath.mpf(j) / k * w[j]))
        return tuple(float(v) for v in sums)


# ---------------------------------------------------------------------------
# span blocks and furthest-item moments, integrated in mpmath
# ---------------------------------------------------------------------------

# Breakpoints at 1 - 10^-i for a steep PGF: one of mean mu climbs to 1 within
# about 1/mu of x = 1, a peak that a rule without them can step over.
DECADES = (0, *(1 - mpmath.mpf(10) ** -i for i in range(1, 13)), 1)


def _mp_integral(f, points):
    """int f over [0, 1], split at ``points``.  A node that rounds onto x = 1
    (its weight is below 10^-dps) is skipped: log(1-x) and the slopes over
    1 - x are not defined there."""
    return mpmath.quad(lambda x: 0 if x == 1 else f(x), list(points))


def _mp_cross(kernel, g, points):
    """int_0^2 kernel(s) g(s) ds, split at the kink s = 1 and at 1 + ``points``."""
    return mpmath.quad(lambda s: kernel(s) * g(s), [*points, *(1 + x for x in points[1:])])


def _mp_box_kernel(s):
    return min(s, 2 - s)


def _mp_gap_kernel(x):
    """g(x) = int_x^1 log^2(1-y) / y^2 dy in closed form (Li2 = polylog(2, .))."""
    return mpmath.pi ** 2 / 3 + (1 - x) * mpmath.log(1 - x) ** 2 / x - 2 * mpmath.polylog(2, x)


def _mp_log_kernel(s):
    """c(s) = int log(1-x) log(1-s+x) dx over the overlap of [0, 1] and [s-1, s].
    With t = 2 - s it is F(t) = t (log^2 t - 2 log t + 2 - pi^2/6) for s >= 1;
    for s < 1 two mirror end pieces t int_0^b (L + log a)(L + log(1-a)) da,
    b = (t-1)/t and L = log t, are cut from F(t); by parts,
    int_0^b log a log(1-a) da = (b-1) log b log(1-b) + (1-b) log(1-b)
    - b log b + 2b - Li2(b)."""
    if not 0 < s < 2:
        return mpmath.mpf(0)
    t = 2 - s
    L = mpmath.log(t)
    c = t * (L * L - 2 * L + 2 - mpmath.pi ** 2 / 6)
    if s >= 1:
        return c
    b = (t - 1) / t
    lb, l1b = mpmath.log(b), mpmath.log(1 - b)
    int_prod = (b - 1) * lb * l1b + (1 - b) * l1b - b * lb + 2 * b - mpmath.polylog(2, b)
    end = L * L * b + L * (b * lb - b) + L * (-(1 - b) * l1b - b) + int_prod
    return c - 2 * t * end


def far_item_moments_mp(model, points=(0, 1), dps: int = 30) -> tuple[float, float, float]:
    """``prelim.far_item_moments`` in mpmath: E[A] = 1 - int P, E[A^2] =
    1 - 2 int x P and E[A_i A_j] = 1 - 2 int P + int min(s, 2-s) P2(s) ds, the
    integrals over [0, 1] split at ``points`` (``DECADES`` for a steep PGF)."""
    k = model.k
    with mpmath.workdps(dps):
        P = _mp_law(model.dist)[0]
        K = mpmath.mpf(k)
        int_p = _mp_integral(lambda x: P((k - 1 + x) / K), points)
        int_xp = _mp_integral(lambda x: x * P((k - 1 + x) / K), points)
        box = _mp_cross(_mp_box_kernel, lambda s: P((k - 2 + s) / K), points)
        return float(1 - int_p), float(1 - 2 * int_xp), float(1 - 2 * int_p + box)


def span_blocks_mp(model, d: int, points=(0, 1), dps: int = 30) -> dict:
    """``prelim.gap_cond_moments`` and ``prelim.far_half_cond_moments`` at span
    d in mpmath, as {"gap": fields, "far_half": fields} in SpanCond order
    (cross and n_other of "gap" are None for d = 2), the integrals over
    [0, 1] split at ``points``."""
    k = model.k
    with mpmath.workdps(dps):
        P, Pp = _mp_law(model.dist)[:2]
        K = mpmath.mpf(k)

        def second_diff(f, o, u, h):
            return lambda x: f((o + x) / h) - 2 * f((o - u + x) / h) + f((o - 2 * u + x) / h)

        # largest gap, whole aisles: gam(x) = E[x^N 1{event}] of an interior aisle
        gam = second_diff(P, d, 1, K)
        prob = gam(1)
        dgam1 = second_diff(Pp, d + 1, 1, K)(0) / K
        int_gam = _mp_integral(gam, points)
        int_log = _mp_integral(lambda x: gam(x) * mpmath.log(1 - x), points)
        int_kernel = _mp_integral(lambda x: x * gam(x) * _mp_gap_kernel(x), points)
        r = _mp_integral(lambda x: (prob - gam(x)) / (1 - x), points)
        end = lambda x: P((d + x) / K) - P((d - 1 + x) / K)  # noqa: E731
        dlam1 = (Pp((d + 1) / K) - Pp(d / K)) / K
        r_end = _mp_integral(lambda x: (end(1) - end(x)) / (1 - x), points)
        cross = n_other = None
        if d >= 3:
            cross = float(prob + 2 * int_log + _mp_cross(_mp_log_kernel, second_diff(P, d - 1, 1, K), points))
            n_other = float(dgam1 - r)
        gap = (float(prob), float(prob + int_log), float(prob + 2 * int_log + int_kernel), cross,
               float(dgam1 - int_log - r - int_gam), n_other, float(dlam1 - r_end))

        # midpoint, half-aisles: phi(z) = E[z^N 1{event}] of an interior half
        H = 2 * K
        phi = second_diff(P, 2 * d + 1, 2, H)
        prob = phi(1)
        dphi1 = second_diff(Pp, 2 * d + 2, 2, H)(0) / H
        int_phi = _mp_integral(phi, points)
        int_zphi = _mp_integral(lambda z: z * phi(z), points)
        box = _mp_cross(_mp_box_kernel, second_diff(P, 2 * d, 2, H), points)
        dpsi1 = (Pp((d + 1) / K) - Pp(d / K)) / H
        bracket = P((d + 1) / K) - P(d / K) - P((2 * d + 1) / H) + P((2 * d - 1) / H)
        far_half = (float(prob), float(prob - int_phi), float(prob - 2 * int_zphi),
                    float(prob - 2 * int_phi + box), float(dphi1 - prob + int_phi),
                    float(dphi1 - prob + phi(0)), float(dpsi1 - bracket))
    return {"gap": gap, "far_half": far_half}


@dataclass(frozen=True)
class SampledOrder:
    m: int
    items: tuple  # ((aisle in 1..k, position in [0,1]), ...)


def sample_order(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                 rng: np.random.Generator) -> SampledOrder:
    """One order: size from the distribution, uniform aisle and position per item."""
    m = int(dist.sample(rng, 1)[0])
    aisles = rng.integers(1, cfg.k + 1, size=m)
    positions = rng.random(m)
    return SampledOrder(m, tuple((int(a), float(p)) for a, p in zip(aisles, positions)))


def route_time(cfg: WarehouseConfig, heuristic: str, order: SampledOrder,
               pick_samples) -> float:
    """Total picking time of one order under the named heuristic.

    ``pick_samples`` holds one pick duration per item.  Largest gaps count the
    spacings to both aisle ends; the midpoint split sends an item exactly at
    the middle to the back half.
    """
    if order.m < 1 or not order.items:
        raise ValueError("route_time requires a nonempty order")
    if len(pick_samples) != order.m:
        raise ValueError("pick_samples length must equal the order size")
    k, l, wa, v = cfg.k, cfg.l, cfg.wa, cfg.v

    per_aisle: dict[int, list[float]] = {}
    for aisle, pos in order.items:
        per_aisle.setdefault(aisle, []).append(pos)
    kplus = max(per_aisle)
    kminus = min(per_aisle)
    t_pick = float(sum(pick_samples))
    t_cross = (2.0 * wa / v) * (kplus - 1)

    if heuristic == "return":
        within = sum(max(ps) for ps in per_aisle.values())
        return t_pick + (2.0 * l / v) * within + t_cross

    if heuristic == "midpoint":
        within = 0.0
        for aisle in range(kminus + 1, kplus):
            ps = per_aisle.get(aisle)
            if not ps:
                continue
            front = [p for p in ps if p < 0.5]
            back = [p for p in ps if p >= 0.5]
            a_f = max(front) / 0.5 if front else 0.0
            a_b = (1.0 - min(back)) / 0.5 if back else 0.0
            within += a_f + a_b
        return t_pick + (l / v) * within + 2.0 * l / v + t_cross

    if heuristic == "largest-gap":
        within = 0.0
        for aisle in range(kminus + 1, kplus):
            ps = per_aisle.get(aisle)
            if not ps:
                continue  # empty aisle: the whole aisle is the gap
            sp = sorted(ps)
            gaps = [sp[0]] + [b - a for a, b in zip(sp, sp[1:])] + [1.0 - sp[-1]]
            within += 1.0 - max(gaps)
        return t_pick + (2.0 * l / v) * within + 2.0 * l / v + t_cross

    if heuristic == "s-shaped":
        occupied = len(per_aisle)
        odd = occupied % 2
        a_last = max(per_aisle[kplus])
        return t_pick + (l / v) * (occupied + odd * (2.0 * a_last - 1.0)) + t_cross

    raise ValueError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")


def route_times_batch(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                      pick: PickTimeModel, n: int, seed: int) -> dict[str, np.ndarray]:
    """Per-order route times of the Monte Carlo engine for all heuristics,
    from the stream of ``run_replications_all`` with the same seed."""
    batches = list(_batches(cfg, dist, pick, n, seed))
    return {h: np.concatenate([times[h] for times in batches]) for h in HEURISTICS}


def mg1_sojourn_times(service: np.ndarray, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Sojourn times of successive orders in an FCFS M/G/1 queue that starts
    empty, with Poisson arrivals at rate ``lam`` and the given service times.

    Lindley's recursion W_{n+1} = max(0, W_n + S_n - A_{n+1}), W_0 = 0, is
    the random walk X_n = sum_{i<n} (S_i - A_{i+1}) minus its running minimum.
    """
    steps = service[:-1] - rng.exponential(1.0 / lam, size=service.size - 1)
    walk = np.concatenate(([0.0], np.cumsum(steps)))
    return walk - np.minimum.accumulate(walk) + service


def mgc_sojourn_times(service: np.ndarray, lam: float, c: int, rng: np.random.Generator) -> np.ndarray:
    """Sojourn times of successive orders in an FCFS M/G/c queue that starts
    empty, with Poisson arrivals at rate ``lam`` and the given service times;
    the arrivals are drawn as ``mg1_sojourn_times`` draws them.

    The Kiefer-Wolfowitz workload vector W_n, the work each server still has
    when order n arrives, sorted, follows W_{n+1} = sort((W_n + S_n e_1 -
    A_{n+1})^+), and order n waits W_n[0].  It is kept here as the times at
    which the servers fall idle, a heap whose least entry is the server that
    order n takes: W_n is (heap - t_n)^+.
    """
    arrivals = np.concatenate(([0.0], np.cumsum(rng.exponential(1.0 / lam, size=service.size - 1))))
    idle = [0.0] * c
    done = []
    for t, s in zip(arrivals.tolist(), service.tolist()):
        end = max(t, idle[0]) + s
        heapq.heapreplace(idle, end)
        done.append(end)
    return np.array(done) - arrivals
