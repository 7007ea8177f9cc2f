"""One fixed quadrature rule on a node array, plus the kernels it integrates.

Every integral of the moment formulas runs over [0, 1] against an order-size
PGF, which climbs to 1 within about 1/mean of x = 1.  The rule is tanh-sinh
(Takahasi & Mori 1974) with step h = 1/8 on 13 decade panels [0, 0.9],
[0.9, 0.99], ..., [1 - 1e-12, 1]: the nodes of each panel cluster at both its
ends, which absorbs log(1-x) endpoint singularities, and the panels resolve a
peak down to width 1e-12.  Each node x is a float whose 1 - x is exact for
x >= 1/2, so log(1 - x) and ratios over 1 - x keep full precision next to
x = 1.  The error estimate is |I_h - I_2h|, I_2h taking every other node,
so it costs no evaluation.

Every integrand of the moment formulas is rows of values on the nodes, with
any leading shape (one row per aisle span, say), times a fixed weight
function f of x (1, log(1-x), 1/(1-x), a kernel); the callers evaluate the
rows, mostly by reading a table of PGF values.  There are two entry points,
and both dot the rows with two fixed columns, the value column w f and the
error column (w - w_2h) f, built on first use of f and kept:
:func:`integrate_1d` takes one weight, and :func:`integrate_2d` the two halves
of a kernel.

Every double integral of the moment formulas is ``∬ w(x) w(y) g(x+y)`` over
the unit square with w = 1 or w = log(1-x), so it is taken as one integral in
s = x + y against the kernel ``∫ w(x) w(s-x) dx``, split at its kink s = 1.
A kernel is held as the pair of weight functions the two halves integrate
against (:data:`BOX_HALVES`, :data:`LOG_HALVES`): its near half at s = x and
its far half at s = 1 + x, the latter written in t = 1 - x, which is exact
for x >= 1/2.  :func:`integrate_2d` takes g on both; a caller that holds a
lattice of PGF rows P((j + x)/h) passes two of them as they are, g at
s = 1 + x being the row one step above g at s = x.

The kernels :func:`gap_kernel` and the near half of the log kernel are taken
by the rule itself, one inner integral of a positive function per argument,
where a closed form in the dilogarithm would cancel.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["IntegrationError", "integrate_1d", "integrate_2d", "gap_kernel", "BOX_HALVES", "LOG_HALVES"]

# |I_h - I_2h| is the error of the coarser rule; where the rule has converged
# the error of I_h is about its square.  On integrands the panels resolve it
# stays below 1e-5 |I| while I_h agrees with a rule four times denser to
# 1e-13; a peak narrower than the last panel, or a non-integrable
# singularity, overshoots REL_TOL by orders of magnitude.
ABS_TOL = 1e-10
REL_TOL = 1e-4

_BELOW_1 = np.nextafter(1.0, 0.0)
# The kernels take their inner integrals this many outer values at a time: all
# nodes x nodes at once made 4.4 MB temporaries (+40% peak RSS on a layout
# sweep); blocks of 12 keep it flat and ran fastest (gap kernel 2.4x slower at 16).
_BLOCK = 12


# The rule's step h, its nodes t = -n h..n h on each panel, and the decades
# that the panels below [1 - 10^-_DECADES, 1] span
_H = 1 / 8
_N = 28
_DECADES = 12


def _rule():
    """(nodes, weights, weights of the step-2h rule) of the tanh-sinh rule on
    every panel.  Nodes within 2^-54 of 1 would round to x = 1, where log(1-x)
    has no value; they are put on the largest float below 1 instead, so that
    the mass of a bounded integrand there is kept."""
    h, n = _H, _N
    t = np.arange(-n, n + 1) * h
    u = math.pi / 2 * np.sinh(t)
    to_top = 1 / (1 + np.exp(2 * u))        # (b - x) / (b - a) on a panel [a, b]
    to_bottom = 1 / (1 + np.exp(-2 * u))    # (x - a) / (b - a)
    weight = h * math.pi / 4 * np.cosh(t) / np.cosh(u) ** 2
    coarse = np.where(np.arange(-n, n + 1) % 2 == 0, 2 * weight, 0.0)
    gaps = [1.0] + [10.0 ** -i for i in range(1, _DECADES + 1)] + [0.0]   # 1 - panel edges
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


class IntegrationError(ArithmeticError):
    """Raised when the rule's error estimate is above tolerance; carries the
    partial result and the estimate (arrays for several integrands)."""

    def __init__(self, message: str, partial_value, err_est):
        super().__init__(message)
        self.partial_value = partial_value
        self.err_est = err_est


def _checked(value, err):
    """(value, err), floats for one integrand, once err passes the tolerance."""
    if value.ndim == 0:
        value, err = float(value), float(err)
    if not (err <= np.maximum(ABS_TOL, REL_TOL * np.abs(value))).all():
        raise IntegrationError(f"integration failed: error estimate {np.max(err):.3g} above tolerance",
                               value, err)
    return value, err


@cache
def _columns(f):
    """The value and error columns WEIGHTS f(NODES) and _ERR_WEIGHTS f(NODES),
    read-only, evaluated once per weight function f."""
    values = f(NODES)
    columns = np.stack([WEIGHTS * values, _ERR_WEIGHTS * values])
    columns.flags.writeable = False
    return columns


def integrate_1d(rows, weight=np.ones_like):
    """∫_0^1 rows(x) weight(x) dx, ``rows`` already evaluated on :data:`NODES`
    (last axis, any leading shape) and ``weight`` a function that lives as
    long as the module; integrable endpoint singularities allowed.  Raises
    :class:`IntegrationError` where the error estimate is above tolerance or
    not finite."""
    column, err_column = _columns(weight)
    return _checked(np.vecdot(rows, column), np.abs(np.vecdot(rows, err_column)))


def integrate_2d(below, above, kernel):
    """∬_{[0,1]^2} w(x) w(y) g(x+y) dx dy as ∫_0^2 c(s) g(s) ds, split at the
    kink s = 1 of the kernel c of w, given as its pair of halves ``kernel``
    (:data:`BOX_HALVES` or :data:`LOG_HALVES`): ``below`` is g on
    s = :data:`NODES`, ``above`` g on s = 1 + NODES (nodes clustering at
    s = 2), broadcasting together.  The error estimate is checked on the sum
    of the two halves."""
    near, far = kernel
    (column, err_column), (far_column, far_err) = _columns(near), _columns(far)
    return _checked(np.vecdot(below, column) + np.vecdot(above, far_column),
                    np.abs(np.vecdot(below, err_column) + np.vecdot(above, far_err)))


def _inner(f, x):
    """∫_0^1 f(x, y) dy for each x of a 1-d array, by the rule in y, _BLOCK
    values of x at a time; the error estimate is checked as for any row."""
    out = np.empty(x.shape)
    for i in range(0, x.size, _BLOCK):
        out[i:i + _BLOCK] = integrate_1d(f(x[i:i + _BLOCK, None], NODES))[0]
    return out


def _log_product(s, t):
    """log(1 - s a) log(1 - s b), a, b = (1 ± t)/2.  Where log1p(-s a) keeps only
    absolute digits (s a near 1), the other factor is about -s b, near 0."""
    return np.log1p(-s * ((1.0 + t) / 2)) * np.log1p(-s * ((1.0 - t) / 2))


def _log_near(x):
    """c(x) = ∫_0^x log(1-y) log(1-x+y) dy, the log kernel at s = x < 1.  In
    y = x u the integrand is positive and symmetric about u = 1/2: c(x) is 2x
    times its integral over u in [1/2, 1], taken by the rule in t = 2u - 1 so
    that the near-singularity at u = 1/x lies next to t = 1, where the rule's
    panels cluster (:func:`_log_product`).  c ~ x^3/6 near 0."""
    return x * _inner(_log_product, x)


def _log_far(x):
    """The log kernel at s = 1 + x: in u = 1-y the integrand is
    log(u) log(t-u) over u in [0, t], t = 2 - s = 1 - x, giving
    t (log^2 t - 2 log t + 2 - pi^2/6)."""
    log_t = np.log1p(-x)
    return (1 - x) * (log_t * log_t - 2.0 * log_t + 2.0 - math.pi ** 2 / 6)


# (near half, far half) of the kernels of w = 1, min(s, 2 - s), and of
# w = log(1-x), as weight functions on the nodes.
BOX_HALVES = (lambda x: x, lambda x: 1 - x)
LOG_HALVES = (_log_near, _log_far)


def _gap_integrand(x, y):
    """log^2(w) w (1 + z) / z^2 at z = x + (1-x) y, w = 1 - z = (1-x)(1-y)."""
    z, w = x + (1.0 - x) * y, (1.0 - x) * (1.0 - y)
    log_w = np.log1p(-x) + np.log1p(-y)
    return log_w * log_w * w * (1.0 + z) / (z * z)


def gap_kernel(x):
    """g(x) = ∫_x^1 log^2(1-y) / y^2 dy for x in (0, 1]; ValueError outside.

    As 1/y^2 = 1 + (1-y)(1+y)/y^2, g(x) = u (log^2 u - 2 log u + 2), u = 1-x,
    plus u ∫_0^1 :func:`_gap_integrand` dy, which has the log^2 singularity
    split off.  Every term is positive, so nothing cancels next to x = 1.
    g(1) = 0 and g decreases to pi^2/3 at 0+.
    """
    x = np.asarray(x, dtype=float)
    if not ((x > 0.0) & (x <= 1.0)).all():
        raise ValueError(f"gap kernel requires x in (0, 1], got {x!r}")
    g = np.zeros(x.shape)
    below = x < 1.0
    log_u = np.log1p(-x[below])
    g[below] = (1.0 - x[below]) * (log_u * log_u - 2.0 * log_u + 2.0 + _inner(_gap_integrand, x[below]))
    return g[()]
