"""Adaptive integration at fixed tolerances, plus closed-form kernels.

Thin wrappers around scipy's QUADPACK returning ``(value, err_est)`` pairs;
logarithmic endpoint singularities (``log(1-x)``, ``log^2(1-x)``) are within
its extrapolation reach.  Every double integral of the moment formulas is
``∬ w(x) w(y) g(x+y)`` over the unit square with w = 1 or w = log(1-x), so it
is taken as one integral in s = x + y against the kernel ``∫ w(x) w(s-x) dx``.
"""
from __future__ import annotations

import math

from scipy import integrate
from scipy.special import spence

__all__ = ["IntegrationError", "integrate_1d", "integrate_2d", "integrate_pgf", "gap_kernel", "box_kernel",
           "log_kernel"]

ABS_TOL = 1e-10
REL_TOL = 1e-9
# The double integrals enter cross moments that are small differences of
# O(event probability) terms, so their single integral is taken 100x tighter.
CROSS_ABS_TOL = 1e-12
CROSS_REL_TOL = 1e-11
# PGF integrals that stand in for order-size tail sums are multiplied by up to
# 2k^2 in the occupancy sums, so they are taken near machine precision.
PGF_ABS_TOL = 1e-17
PGF_REL_TOL = 1e-13
MAX_SUBDIVISIONS = 2000

_PI2_3 = math.pi ** 2 / 3
_PI2_6 = math.pi ** 2 / 6


class IntegrationError(RuntimeError):
    """Raised when the quadrature did not converge; carries the partial result."""

    def __init__(self, message: str, partial_value: float, err_est: float):
        super().__init__(message)
        self.partial_value = partial_value
        self.err_est = err_est


def _quad(f, a: float, b: float, abs_tol: float, rel_tol: float, points=None):
    res = integrate.quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=MAX_SUBDIVISIONS,
                         points=points, full_output=1)
    value, err = res[0], res[1]
    if len(res) > 3:
        raise IntegrationError(f"integration failed: {res[3]}", value, err)
    return value, err


def integrate_1d(f, a: float, b: float):
    """Adaptive integral of ``f`` over [a, b]; integrable endpoint singularities allowed."""
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    return _quad(f, a, b, ABS_TOL, REL_TOL)


def integrate_2d(g, kernel):
    """∬_{[0,1]^2} w(x) w(y) g(x+y) dx dy as ∫_0^2 kernel(s) g(s) ds, split at the
    kink s = 1 of the kernel of w (:func:`box_kernel` or :func:`log_kernel`)."""
    f = lambda s: kernel(s) * g(s)
    lo, lo_err = _quad(f, 0.0, 1.0, CROSS_ABS_TOL, CROSS_REL_TOL)
    hi, hi_err = _quad(f, 1.0, 2.0, CROSS_ABS_TOL, CROSS_REL_TOL)
    return lo + hi, lo_err + hi_err


def integrate_pgf(f, mean: float) -> float:
    """∫_0^1 f, where f is an order-size PGF of the given mean times a bounded
    factor.  Such a PGF climbs to 1 within about 1/mean of x = 1, a peak that
    the adaptive rule's first sweep misses when the mean is large, so [0, 1]
    is split at 1 - 10^i / mean for every 10^i < mean."""
    points = [1.0 - 10.0 ** i / mean for i in range(math.ceil(math.log10(mean)))] if mean > 1 else None
    return _quad(f, 0.0, 1.0, PGF_ABS_TOL, PGF_REL_TOL, points)[0]


def box_kernel(s: float) -> float:
    """Length of the overlap of [0, 1] and [s-1, s]: min(s, 2-s), 0 outside [0, 2]."""
    return max(0.0, min(s, 2.0 - s))


def log_kernel(s: float) -> float:
    """c(s) = ∫ log(1-x) log(1-s+x) dx over the overlap of [0, 1] and [s-1, s].

    In u = 1-x the integrand is log(u) log(t-u) with t = 2-s.  For s >= 1 u runs
    over [0, t], giving F(t) = t (log^2 t - 2 log t + 2 - pi^2/6).  For s < 1 it
    runs over [t-1, 1], which leaves out two mirror-image end pieces of [0, t],
    each t * ∫_0^b (L + log a)(L + log(1-a)) da with b = (t-1)/t and L = log t;
    the bracket below is that integral in closed form, Li2(1-b) = spence(b).
    c vanishes at s = 0 and s = 2.
    """
    if not 0.0 < s < 2.0:
        return 0.0
    t = 2.0 - s
    lt = math.log(t)
    c = t * (lt * lt - 2.0 * lt + 2.0 - _PI2_6)
    if s >= 1.0:
        return c
    b = (1.0 - s) / t
    blb = b * math.log(b)
    l1b = math.log1p(-b)
    bracket = (lt * lt * b + lt * (blb - b) - lt * ((1.0 - b) * l1b + b)
               + (blb - b + 1.0) * l1b - blb + 2.0 * b + spence(b) - _PI2_6)
    return c - 2.0 * t * bracket


def gap_kernel(x: float) -> float:
    """g(x) = integral over [x, 1] of log^2(1-y) / y^2 dy, for x in (0, 1].

    Evaluated in closed form via the dilogarithm:
        g(x) = pi^2/3 + (1-x) * log^2(1-x) / x - 2 * Li2(x),
    with Li2(x) = spence(1-x).  g(1) = 0 and g decreases to pi^2/3 at 0+.
    """
    if x <= 0:
        raise ValueError(f"gap kernel requires x > 0, got {x!r}")
    if x >= 1.0:
        return 0.0
    return _PI2_3 + (1.0 - x) * math.log1p(-x) ** 2 / x - 2.0 * spence(1.0 - x)
