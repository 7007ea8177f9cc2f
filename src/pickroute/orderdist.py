"""Order-size distributions described through their probability generating functions.

Every analytic quantity in this package consumes an order-size distribution
through its PGF ``E[x^M]``, the PGF's first derivative, its first two
factorial moments, its truncated probability mass function and a matching
sampler.  Order sizes are strictly positive, so ``pgf(0) == 0`` for every
supported distribution.

Supported kinds and their CLI/config spec strings:

=====================  =======================  ==========================
kind                   spec string              parameters
=====================  =======================  ==========================
deterministic          ``det:m``                order size m >= 1
shifted Poisson        ``spois:mean``           M = Poisson(mean - 1) + 1
geometric              ``geom:mean``            on {1,2,...}, p = 1/mean
shifted neg. binomial  ``snbin:r:mean``         M = NegBin(r, p) + r
=====================  =======================  ==========================

PGF evaluations accept a ``float`` or a numpy array.

The truncated pmfs come from log-pmfs in numpy that take 0 log 0 = 0.  The
Poisson one does not go through log-gamma: at mean 1000, (m-1) log(lam) - lam
- log (m-1)! falls from terms near 7,000 to a few units, which leaves errors
up to 3e-12 in the probabilities above 1e-30 and 3e-13 in their sum.  It uses Loader's
saddle-point form instead (C. Loader, "Fast and accurate computation of
binomial probabilities", 2000), within 2e-13 of 40-digit mpmath there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrderSizeDistribution",
    "Deterministic",
    "ShiftedPoisson",
    "Geometric",
    "ShiftedNegBinomial",
    "parse_dist_spec",
    "PMF_TAIL",
]

# ``pmf`` stops at the first m past which sum_{i>m} i^2 P(M = i) <= PMF_TAIL.
PMF_TAIL = 1e-18

_LOG_FACTORIAL = np.array([math.log(math.factorial(n)) for n in range(16)])
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
# log n! - (n + 1/2) log n + n - log(2 pi)/2 = sum_k c_k n^(1-2k), c_k = B_2k / (2k (2k-1))
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
# bd0 = (n - lam) v + 2 n sum_{j>=1} v^(2j+1) / (2j+1), v = (n - lam) / (n + lam), |v| < 0.1
_BD0 = tuple(1 / (2 * j + 3) for j in range(8))


def _horner(w, coeffs):
    """sum_i coeffs[i] w^i."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * w + c
    return acc


def _poisson_logpmf(n: np.ndarray, lam: float) -> np.ndarray:
    """log(lam^n e^-lam / n!) for integers n >= 0.  Below n = 16 it is the
    direct sum; from there it is Loader's saddle-point form
    -stirlerr(n) - bd0(n, lam) - log(2 pi n) / 2, with bd0 = n log(n/lam) + lam - n
    summed as a series near n = lam, where the direct form cancels."""
    if lam == 0:
        return np.where(n == 0, 0.0, -math.inf)
    out = np.empty(n.shape)
    small = n < len(_LOG_FACTORIAL)
    out[small] = n[small] * math.log(lam) - lam - _LOG_FACTORIAL[n[small]]
    x = n[~small].astype(float)
    diff = x - lam
    v = diff / (x + lam)
    near = np.abs(v) < 0.1
    bd0 = np.empty(x.shape)
    vn, w = v[near], v[near] ** 2
    bd0[near] = diff[near] * vn + 2.0 * x[near] * vn * w * _horner(w, _BD0)
    far = x[~near]
    bd0[~near] = far * np.log(far / lam) - diff[~near]
    r = 1.0 / x
    out[~small] = -(_horner(r * r, _STIRLING) * r) - bd0 - (0.5 * np.log(x) + _HALF_LOG_2PI)
    return out


def _xlog(n: np.ndarray, log_y: float) -> np.ndarray:
    """n log y for integers n >= 0 given log y, taking 0 log 0 = 0."""
    if log_y == -math.inf:
        return np.where(n == 0, 0.0, -math.inf)
    return n * log_y


def _exp(x):
    """exp() that follows the numeric type of its argument."""
    if isinstance(x, np.ndarray):
        return np.exp(x)
    return math.exp(x)


@dataclass(frozen=True)
class OrderSizeDistribution:
    """Base class; concrete subclasses implement the PGF, its derivative, the
    moments and the sampler."""

    def pgf(self, x):
        raise NotImplementedError

    def pgf_prime(self, x):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def factorial2(self) -> float:
        """E[M(M-1)], the second factorial moment (= pgf''(1))."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def _support_start(self) -> int:
        """The smallest order size with positive probability."""
        raise NotImplementedError

    def _logpmf(self, m: np.ndarray) -> np.ndarray:
        """log P(M = m) for integer m >= ``_support_start()``."""
        raise NotImplementedError

    def pmf(self, n: int) -> np.ndarray:
        """P(M = m) for m = 0..n, cut after the first m whose weighted tail
        sum_{i>m} i^2 P(M = i) is at most ``PMF_TAIL``.

        The tail is bounded without summing it: every supported law has a
        log-concave pmf, hence so has t_i = i^2 P(M = i), and past any m with
        r = t_{m+1} / t_m < 1 the tail is at most t_{m+1} / (1 - r).  A result
        of length n + 1 therefore means the law may have mass beyond n.
        """
        lo = self._support_start()
        m = np.arange(lo, n + 2)
        p = np.exp(self._logpmf(m))
        t = m * m * p
        with np.errstate(divide="ignore", invalid="ignore"):
            r = t[1:] / t[:-1]
            cut = np.flatnonzero((r < 1) & (t[1:] / (1 - r) <= PMF_TAIL))
        end = min(n, lo + int(cut[0])) if cut.size else n
        out = np.zeros(end + 1)
        out[lo:] = p[:end + 1 - lo]
        return out


@dataclass(frozen=True)
class Deterministic(OrderSizeDistribution):
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError(f"deterministic order size must be an integer >= 1, got {self.m!r}")

    def pgf(self, x):
        return x ** self.m

    def pgf_prime(self, x):
        return self.m * x ** (self.m - 1)

    def mean(self):
        return float(self.m)

    def factorial2(self):
        return float(self.m * (self.m - 1))

    def sample(self, rng, size=None):
        if size is None:
            return self.m
        return np.full(size, self.m, dtype=np.int64)

    def spec(self):
        return f"det:{self.m}"

    def _support_start(self):
        return int(self.m)

    def _logpmf(self, m):
        return np.where(m == self.m, 0.0, -np.inf)


@dataclass(frozen=True)
class ShiftedPoisson(OrderSizeDistribution):
    """M = Poisson(lam) + 1; pgf(x) = x * exp(-lam * (1 - x))."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"shifted-Poisson rate must be finite and >= 0, got {self.lam!r}")

    def pgf(self, x):
        return x * _exp(-self.lam * (1 - x))

    def pgf_prime(self, x):
        return _exp(-self.lam * (1 - x)) * (1 + self.lam * x)

    def mean(self):
        return 1.0 + self.lam

    def factorial2(self):
        return self.lam * (2 + self.lam)

    def sample(self, rng, size=None):
        if size is None:
            return 1 + int(rng.poisson(self.lam))
        return (1 + rng.poisson(self.lam, size=size)).astype(np.int64)

    def spec(self):
        return f"spois:{1.0 + self.lam:g}"

    def _support_start(self):
        return 1

    def _logpmf(self, m):
        return _poisson_logpmf(m - 1, self.lam)


@dataclass(frozen=True)
class Geometric(OrderSizeDistribution):
    """Support {1, 2, ...} with P(M = m) = p (1-p)^(m-1); mean 1/p."""

    p: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(f"geometric success probability must be in (0, 1], got {self.p!r}")

    # 1 - (1-p) x is evaluated as p + (1-x)(1-p), exactly p at x = 1: P(1) = 1
    def pgf(self, x):
        return self.p * x / (self.p + (1 - x) * (1 - self.p))

    def pgf_prime(self, x):
        return self.p / (self.p + (1 - x) * (1 - self.p)) ** 2

    def mean(self):
        return 1.0 / self.p

    def factorial2(self):
        q = 1 - self.p
        return 2 * q / self.p ** 2

    def sample(self, rng, size=None):
        if size is None:
            return int(rng.geometric(self.p))
        return rng.geometric(self.p, size=size).astype(np.int64)

    def spec(self):
        return f"geom:{1.0 / self.p:g}"

    def _support_start(self):
        return 1

    def _logpmf(self, m):
        log_q = math.log1p(-self.p) if self.p < 1 else -math.inf
        return math.log(self.p) + _xlog(m - 1, log_q)


@dataclass(frozen=True)
class ShiftedNegBinomial(OrderSizeDistribution):
    """M = NegBin(r, p) + r on {r, r+1, ...}; pgf(x) = (p x / (1 - (1-p) x))^r."""

    r: int
    p: float

    def __post_init__(self):
        if not (isinstance(self.r, (int, np.integer)) and self.r >= 1):
            raise ValueError(f"number of successes must be an integer >= 1, got {self.r!r}")
        if not 0 < self.p <= 1:
            raise ValueError(f"success probability must be in (0, 1], got {self.p!r}")

    def pgf(self, x):
        return (self.p * x / (self.p + (1 - x) * (1 - self.p))) ** self.r

    def pgf_prime(self, x):
        d = self.p + (1 - x) * (1 - self.p)  # as in Geometric
        return self.r * (self.p / d) ** self.r * x ** (self.r - 1) / d

    def mean(self):
        return self.r / self.p

    def factorial2(self):
        q = 1 - self.p
        mu = self.r / self.p
        var = self.r * q / self.p ** 2
        return var + mu * mu - mu

    def sample(self, rng, size=None):
        if size is None:
            return self.r + int(rng.negative_binomial(self.r, self.p))
        return (self.r + rng.negative_binomial(self.r, self.p, size=size)).astype(np.int64)

    def spec(self):
        return f"snbin:{self.r}:{self.r / self.p:g}"

    def _support_start(self):
        return int(self.r)

    def _logpmf(self, m):
        # log C(n+r-1, r-1) as a sum of r-1 logs: the gammaln difference
        # would cancel to ~1e-12 in the tail
        n = m - self.r
        log_binom = sum(np.log1p(n / i) for i in range(1, self.r))
        log_q = math.log1p(-self.p) if self.p < 1 else -math.inf
        return log_binom + self.r * math.log(self.p) + _xlog(n, log_q)


def parse_dist_spec(text: str) -> OrderSizeDistribution:
    """Parse a spec string (``det:m``, ``spois:mean``, ``geom:mean``, ``snbin:r:mean``)."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "det" and len(parts) == 2:
            raw = float(parts[1])
            if raw != int(raw):
                raise ValueError("deterministic size must be an integer")
            return Deterministic(int(raw))
        if kind == "spois" and len(parts) == 2:
            mean = float(parts[1])
            if mean < 1:
                raise ValueError("shifted-Poisson mean must be >= 1")
            return ShiftedPoisson(mean - 1.0)
        if kind == "geom" and len(parts) == 2:
            mean = float(parts[1])
            if mean < 1:
                raise ValueError("geometric mean must be >= 1")
            return Geometric(1.0 / mean)
        if kind == "snbin" and len(parts) == 3:
            r = float(parts[1])
            if r != int(r) or r < 1:
                raise ValueError("number of successes must be an integer >= 1")
            mean = float(parts[2])
            if mean < r:
                raise ValueError("shifted negative binomial mean must be >= r")
            return ShiftedNegBinomial(int(r), r / mean)
    except ValueError as exc:
        raise ValueError(f"invalid distribution spec {text!r}: {exc}") from None
    raise ValueError(f"invalid distribution spec {text!r}")
