"""Order-size distributions described through their probability generating functions.

Every analytic quantity in this package consumes an order-size distribution
only through its PGF ``E[x^M]``, the PGF's first two derivatives and a
matching sampler.  Order sizes are strictly positive, so ``pgf(0) == 0`` for
every supported distribution.

Supported kinds and their CLI/config spec strings:

=====================  =======================  ==========================
kind                   spec string              parameters
=====================  =======================  ==========================
deterministic          ``det:m``                order size m >= 1
shifted Poisson        ``spois:mean``           M = Poisson(mean - 1) + 1
geometric              ``geom:mean``            on {1,2,...}, p = 1/mean
shifted neg. binomial  ``snbin:r:mean``         M = NegBin(r, p) + r
=====================  =======================  ==========================

PGF evaluations accept either ``float`` or ``mpmath.mpf`` arguments; the
latter is used by the numerically delicate alternating sums elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

__all__ = [
    "OrderSizeDistribution",
    "Deterministic",
    "ShiftedPoisson",
    "Geometric",
    "ShiftedNegBinomial",
    "parse_dist_spec",
    "pgf_eval",
    "pgf_prime",
    "moments",
    "sample",
]


def _exp(x):
    """exp() that follows the numeric type of its argument."""
    if isinstance(x, mpmath.mpf):
        return mpmath.exp(x)
    if isinstance(x, np.ndarray):
        return np.exp(x)
    return math.exp(x)


def _check_unit_interval(x) -> None:
    if not 0 <= x <= 1:
        raise ValueError(f"PGF argument must lie in [0, 1], got {x!r}")


@dataclass(frozen=True)
class OrderSizeDistribution:
    """Base class; concrete subclasses implement the PGF triple and sampler."""

    def pgf(self, x):
        raise NotImplementedError

    def pgf_prime(self, x):
        raise NotImplementedError

    def pgf_double_prime(self, x):
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

    def pgf_double_prime(self, x):
        if self.m == 1:
            return 0.0 * x
        return self.m * (self.m - 1) * x ** (self.m - 2)

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

    def pgf_double_prime(self, x):
        return _exp(-self.lam * (1 - x)) * self.lam * (2 + self.lam * x)

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


@dataclass(frozen=True)
class Geometric(OrderSizeDistribution):
    """Support {1, 2, ...} with P(M = m) = p (1-p)^(m-1); mean 1/p."""

    p: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(f"geometric success probability must be in (0, 1], got {self.p!r}")

    def pgf(self, x):
        return self.p * x / (1 - (1 - self.p) * x)

    def pgf_prime(self, x):
        return self.p / (1 - (1 - self.p) * x) ** 2

    def pgf_double_prime(self, x):
        q = 1 - self.p
        return 2 * self.p * q / (1 - q * x) ** 3

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
        return (self.p * x / (1 - (1 - self.p) * x)) ** self.r

    def pgf_prime(self, x):
        q = 1 - self.p
        return self.r * self.p ** self.r * x ** (self.r - 1) / (1 - q * x) ** (self.r + 1)

    def pgf_double_prime(self, x):
        # differentiate pgf_prime: d/dx [r p^r x^(r-1) (1-qx)^-(r+1)]
        q = 1 - self.p
        a = (self.r - 1) * x ** (self.r - 2) if self.r >= 2 else 0.0 * x
        b = x ** (self.r - 1) * (self.r + 1) * q / (1 - q * x)
        return self.r * self.p ** self.r / (1 - q * x) ** (self.r + 1) * (a + b)

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


# Module-level operation wrappers with domain validation.

def pgf_eval(dist: OrderSizeDistribution, x: float) -> float:
    """E[x^M] for x in [0, 1]."""
    _check_unit_interval(x)
    return dist.pgf(x)


def pgf_prime(dist: OrderSizeDistribution, x: float) -> float:
    """d/dx E[x^M] for x in [0, 1]."""
    _check_unit_interval(x)
    return dist.pgf_prime(x)


def moments(dist: OrderSizeDistribution) -> tuple[float, float]:
    """(E[M], E[M(M-1)])."""
    return dist.mean(), dist.factorial2()


def sample(dist: OrderSizeDistribution, rng: np.random.Generator, size=None):
    """Draw order sizes (scalar int, or int64 array when ``size`` is given)."""
    return dist.sample(rng, size=size)
