"""One fixed quadrature rule on a node array, plus closed-form kernels.

Every integral of the moment formulas runs over [0, 1] against an order-size
PGF, which climbs to 1 within about 1/mean of x = 1.  The rule is tanh-sinh
(Takahasi & Mori 1974) with step h = 1/8 on 13 decade panels [0, 0.9],
[0.9, 0.99], ..., [1 - 1e-12, 1]: the nodes of each panel cluster at both its
ends, which absorbs log(1-x) endpoint singularities, and the panels resolve a
peak down to width 1e-12.  Each node x is a float whose 1 - x is exact for
x >= 1/2, so log(1 - x) and ratios over 1 - x keep full precision next to
x = 1.  An integral is one evaluation of the integrand on the node array,
with any leading shape (one row per aisle span, say), and one weighted sum.
The error estimate is |I_h - I_2h|, I_2h taking every other node, so it
costs no evaluation.

Every double integral of the moment formulas is ``∬ w(x) w(y) g(x+y)`` over
the unit square with w = 1 or w = log(1-x), so it is taken as one integral in
s = x + y against the kernel ``∫ w(x) w(s-x) dx``.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import spence

__all__ = ["IntegrationError", "integrate_1d", "integrate_2d", "gap_kernel", "box_kernel", "log_kernel"]

# |I_h - I_2h| is the error of the coarser rule; where the rule has converged
# the error of I_h is about its square.  On integrands the panels resolve it
# stays below 1e-5 |I| while I_h agrees with a rule four times denser to
# 1e-13; a peak narrower than the last panel, or a non-integrable
# singularity, overshoots REL_TOL by orders of magnitude.
ABS_TOL = 1e-10
REL_TOL = 1e-4

_PI2_3 = math.pi ** 2 / 3
_PI2_6 = math.pi ** 2 / 6
_BELOW_1 = np.nextafter(1.0, 0.0)


def _rule(h: float = 1 / 8, n: int = 28, decades: int = 12):
    """(nodes, weights, weights of the step-2h rule) of the tanh-sinh rule with
    nodes at t = -n h..n h on each decade panel.  Nodes within 2^-54 of 1 would
    round to x = 1, where log(1-x) has no value; they are put on the largest
    float below 1 instead, so that the mass of a bounded integrand there is
    kept."""
    t = np.arange(-n, n + 1) * h
    u = math.pi / 2 * np.sinh(t)
    to_top = 1 / (1 + np.exp(2 * u))        # (b - x) / (b - a) on a panel [a, b]
    to_bottom = 1 / (1 + np.exp(-2 * u))    # (x - a) / (b - a)
    weight = h * math.pi / 4 * np.cosh(t) / np.cosh(u) ** 2
    coarse = np.where(np.arange(-n, n + 1) % 2 == 0, 2 * weight, 0.0)
    gaps = [1.0] + [10.0 ** -i for i in range(1, decades + 1)] + [0.0]   # 1 - panel edges
    nodes, weights, weights_2h = [], [], []
    for top, bottom in zip(gaps[:-1], gaps[1:]):
        width = top - bottom
        x = width * to_bottom if top == 1.0 else 1 - (bottom + width * to_top)
        nodes.append(np.minimum(x, _BELOW_1))
        weights.append(width * weight)
        weights_2h.append(width * coarse)
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(weights_2h)


NODES, WEIGHTS, _WEIGHTS_2H = _rule()
_ERR_WEIGHTS = WEIGHTS - _WEIGHTS_2H


class IntegrationError(RuntimeError):
    """Raised when the rule's error estimate is above tolerance; carries the
    partial result and the estimate (arrays for several integrands)."""

    def __init__(self, message: str, partial_value, err_est):
        super().__init__(message)
        self.partial_value = partial_value
        self.err_est = err_est


def _apply(values, weights, err_weights):
    """(value, err) of the weighted sums over the last axis, floats for one
    integrand; raises :class:`IntegrationError` where the estimate is above
    tolerance or not finite."""
    values = np.asarray(values, dtype=float)
    value = np.vecdot(values, weights)
    err = np.abs(np.vecdot(values, err_weights))
    if value.ndim == 0:
        value, err = float(value), float(err)
    if not np.all(err <= np.maximum(ABS_TOL, REL_TOL * np.abs(value))):
        raise IntegrationError(f"integration failed: error estimate {np.max(err):.3g} above tolerance",
                               value, err)
    return value, err


def integrate_1d(f, a: float = 0.0, b: float = 1.0):
    """∫_a^b f from one evaluation of ``f`` on the node array mapped to [a, b];
    integrable endpoint singularities allowed.  ``f`` returns an array whose
    last axis runs over the nodes, and the result has its leading shape."""
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    width = b - a
    x = a + width * NODES
    inside = (x > a) & (x < b)   # nodes that round onto an end of [a, b] are dropped
    return _apply(f(x[inside]), width * WEIGHTS[inside], width * _ERR_WEIGHTS[inside])


_S = np.concatenate([NODES, 1.0 + NODES])
_S_WEIGHTS = np.concatenate([WEIGHTS, WEIGHTS])
_S_ERR_WEIGHTS = np.concatenate([_ERR_WEIGHTS, _ERR_WEIGHTS])


def integrate_2d(g, kernel):
    """∬_{[0,1]^2} w(x) w(y) g(x+y) dx dy as ∫_0^2 kernel(s) g(s) ds, taken as
    the rule on [0, 1] and on [1, 2] (s = 1 + x, nodes clustering at s = 2),
    split at the kink s = 1 of the kernel of w (:func:`box_kernel` or
    :func:`log_kernel`)."""
    return _apply(kernel(_S) * g(_S), _S_WEIGHTS, _S_ERR_WEIGHTS)


def box_kernel(s):
    """Length of the overlap of [0, 1] and [s-1, s]: min(s, 2-s), 0 outside [0, 2]."""
    s = np.asarray(s, dtype=float)
    return np.maximum(0.0, np.minimum(s, 2.0 - s))[()]


def log_kernel(s):
    """c(s) = ∫ log(1-x) log(1-s+x) dx over the overlap of [0, 1] and [s-1, s].

    In u = 1-x the integrand is log(u) log(t-u) with t = 2-s.  For s >= 1 u runs
    over [0, t], giving F(t) = t (log^2 t - 2 log t + 2 - pi^2/6).  For s < 1 it
    runs over [t-1, 1], which leaves out two mirror-image end pieces of [0, t],
    each t * ∫_0^b (L + log a)(L + log(1-a)) da with b = (t-1)/t and L = log t;
    the bracket below is that integral in closed form, Li2(1-b) = spence(b).
    c vanishes at s = 0 and s = 2.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = 2.0 - s
        lt = np.log(t)
        c = t * (lt * lt - 2.0 * lt + 2.0 - _PI2_6)
        b = (1.0 - s) / t
        blb = b * np.log(b)
        l1b = np.log1p(-b)
        bracket = (lt * lt * b + lt * (blb - b) - lt * ((1.0 - b) * l1b + b)
                   + (blb - b + 1.0) * l1b - blb + 2.0 * b + spence(b) - _PI2_6)
        c = np.where(s >= 1.0, c, c - 2.0 * t * bracket)
    return np.where((s > 0.0) & (s < 2.0), c, 0.0)[()]


def gap_kernel(x):
    """g(x) = integral over [x, 1] of log^2(1-y) / y^2 dy, for x in (0, 1].

    Evaluated in closed form via the dilogarithm:
        g(x) = pi^2/3 + (1-x) * log^2(1-x) / x - 2 * Li2(x),
    with Li2(x) = spence(1-x).  g(1) = 0 and g decreases to pi^2/3 at 0+.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError(f"gap kernel requires x > 0, got {x!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        g = _PI2_3 + (1.0 - x) * np.log1p(-x) ** 2 / x - 2.0 * spence(1.0 - x)
    return np.where(x < 1.0, g, 0.0)[()]
