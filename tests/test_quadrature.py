import math

import mpmath
import numpy as np
import pytest

from scipy import integrate
from scipy.special import exp1

from pickroute.quadrature import (
    BOX_HALVES,
    LOG_HALVES,
    NODES,
    IntegrationError,
    gap_kernel,
    integrate_1d,
    integrate_2d,
)

from oracles import _mp_gap_kernel, _mp_log_kernel


def kernel_at(halves, s: float) -> float:
    """The kernel given by its ``halves`` at one s in [0, 2): the near half at
    x = s below 1, the far half at x = s - 1 from 1."""
    near, far = halves
    return float(near(np.array([s]))[0] if s < 1 else far(np.array([s - 1]))[0])


def gauss_legendre_gap_kernel(x: float, n: int = 200) -> float:
    """Independent evaluation with the substitution y = 1 - exp(-t)."""
    lo = -math.log1p(-x)
    hi = 60.0
    nodes, weights = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = t * t * np.exp(-t) / (1.0 - np.exp(-t)) ** 2
    return float(0.5 * (hi - lo) * np.dot(weights, vals))


def test_integrate_1d_polynomial():
    value, err = integrate_1d(NODES * NODES)
    assert value == pytest.approx(1 / 3, abs=1e-12)
    assert err < 1e-10


def test_integrate_1d_log_square_singularity():
    value, _ = integrate_1d(np.log1p(-NODES) ** 2)
    assert value == pytest.approx(2.0, rel=1e-9)


def test_integrate_1d_x_log():
    value, _ = integrate_1d(-np.log1p(-NODES) * NODES)
    assert value == pytest.approx(0.75, rel=1e-10)


@pytest.mark.parametrize("f, exact", [
    (lambda x: x * x, 1 / 3),
    (lambda x: np.log1p(-x) ** 2, 2.0),
    (lambda x: x * np.log1p(-x), -0.75),
])
def test_integrate_1d_error_estimate_bounds_error(f, exact):
    value, err = integrate_1d(f(NODES))
    assert abs(value - exact) <= err


def test_integrate_1d_failure_states_the_error_estimate():
    # 1/x diverges at 0; the rule never evaluates the endpoint itself
    with pytest.raises(IntegrationError, match=r"^integration failed: error estimate \S+ above tolerance$") as info:
        integrate_1d(1.0 / NODES)
    assert info.value.args == (str(info.value),)


def test_integrate_2d_examples():
    one = np.ones_like(NODES)
    assert integrate_2d(one, one, BOX_HALVES)[0] == pytest.approx(1.0, abs=1e-10)
    # (x + y)^2 over the unit square: 2/3 + 2 * 1/4 = 7/6
    assert integrate_2d(NODES ** 2, (1 + NODES) ** 2, BOX_HALVES)[0] == pytest.approx(7 / 6, abs=1e-10)
    value, _ = integrate_2d(one, one, LOG_HALVES)
    assert value == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("halves, w", [
    (BOX_HALVES, lambda u: mpmath.mpf(1)),
    (LOG_HALVES, lambda u: mpmath.log(u)),
], ids=lambda v: {BOX_HALVES: "box_kernel", LOG_HALVES: "log_kernel"}.get(v))
def test_kernels_against_direct_convolution(halves, w):
    # the reference is the convolution integral of w(1 - x) w(1 - (s - x)) over
    # the overlap [lo, hi] = [max(0, s-1), min(1, s)], taken by mpmath at 30
    # digits; w is the weight as a function of 1 - x.  Each half of [lo, hi]
    # runs in its distance t from its end, so that a factor singular there
    # is w(t) and no node rounds onto the singularity
    for s in (1e-6, 0.5, 1 - 1e-9, 1.0, 1.5, 2 - 1e-6):
        with mpmath.workdps(30):
            s_mp = mpmath.mpf(s)
            lo, hi = max(0, s_mp - 1), min(1, s_mp)
            mid = (lo + hi) / 2
            direct = float(mpmath.quad(lambda t: w(1 - lo - t) * w((1 - s_mp + lo) + t), [0, mid - lo])
                           + mpmath.quad(lambda t: w((1 - hi) + t) * w((1 - s_mp + hi) - t), [0, hi - mid]))
        assert kernel_at(halves, s) == pytest.approx(direct, rel=1e-9, abs=1e-13)
    assert kernel_at(halves, 0.0) == 0.0


@pytest.mark.parametrize("s", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.49, 0.5, 0.7,
                               0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 2.0 ** -53])
def test_log_kernel_small_s_against_mpmath(s):
    # c(s) ~ s^3/6 near 0; for s < 1 the overlap is [0, s].  Below s = 1/2 the
    # integrand is smooth there; from s = 1/2 log(1 - s + x) nears its
    # singularity at x = s, so the reference is the closed form at 40 digits
    if s < 0.5:
        with mpmath.workdps(30):
            s_mp = mpmath.mpf(s)
            direct = mpmath.quad(lambda x: mpmath.log(1 - x) * mpmath.log(1 - s_mp + x), [0, s_mp])
    else:
        with mpmath.workdps(40):
            direct = _mp_log_kernel(mpmath.mpf(s))
    assert kernel_at(LOG_HALVES, s) == pytest.approx(float(direct), rel=1e-13, abs=0.0)


def test_log_kernel_far_half_near_two_against_mpmath():
    # the far half at s = 1 + x is t (log^2 t - 2 log t + 2 - pi^2/6) in
    # t = 1 - x, exact from x = 1/2, where 2 - (1 + x) would keep the rounding
    # of 1 + x; every 4th node from 0.9 and the last 8
    near = NODES[NODES >= 0.9]
    x = np.concatenate([near[::4], NODES[-8:]])
    with mpmath.workdps(40):
        want = np.array([float(_mp_log_kernel(1 + mpmath.mpf(v))) for v in x])
    assert np.max(np.abs(LOG_HALVES[1](x) / want - 1)) <= 1e-14


def test_integrate_2d_against_dblquad():
    # the reference is the full 2-D integral of w(x) w(y) e^(x+y) by nested QUADPACK
    for halves, w in ((BOX_HALVES, lambda x: 1.0), (LOG_HALVES, lambda x: math.log1p(-x))):
        ref, _ = integrate.dblquad(lambda y, x: w(x) * w(y) * math.exp(x + y), 0.0, 1.0, 0.0, 1.0,
                                   epsabs=1e-13, epsrel=1e-13)
        value, err = integrate_2d(np.exp(NODES), np.exp(1 + NODES), halves)
        assert value == pytest.approx(ref, rel=1e-9)
        assert err < 1e-9
    value, _ = integrate_2d(np.exp(NODES), np.exp(1 + NODES), BOX_HALVES)
    assert value == pytest.approx((math.e - 1) ** 2, rel=1e-12)


def test_integrate_2d_error_estimate_bounds_error():
    # e^(x+y) against w(x) w(y): the square of int_0^1 w(x) e^x dx, which is
    # e - 1 for w = 1 and -e (gamma + E1(1)) for w = log(1-x)
    for halves, one in ((BOX_HALVES, math.e - 1), (LOG_HALVES, -math.e * (np.euler_gamma + exp1(1.0)))):
        value, err = integrate_2d(np.exp(NODES), np.exp(1 + NODES), halves)
        assert abs(value - one ** 2) <= err


def test_gap_kernel_endpoints_and_domain():
    assert gap_kernel(1.0) == 0.0
    with pytest.raises(ValueError):
        gap_kernel(0.0)
    for x in (-0.5, 1.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            gap_kernel(x)
    with pytest.raises(ValueError):
        gap_kernel(np.array([0.5, np.nan]))


def test_gap_kernel_against_independent_quadrature():
    for x in (1e-4, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        assert gap_kernel(x) == pytest.approx(gauss_legendre_gap_kernel(x), rel=1e-9)
    assert gap_kernel(0.5) == pytest.approx(2.605840094684627, rel=1e-12)


def test_gap_kernel_near_one_against_mpmath():
    # g is tiny next to x = 1, where a closed form in Li2 cancels to nothing;
    # every 4th node from 0.9 and the last 8 (all at the largest float below 1)
    near = NODES[NODES >= 0.9]
    x = np.concatenate([near[::4], NODES[-8:]])
    with mpmath.workdps(40):
        want = np.array([float(_mp_gap_kernel(mpmath.mpf(v))) for v in x])
    assert np.max(np.abs(gap_kernel(x) / want - 1)) <= 1e-14


def test_gap_kernel_monotone_decreasing():
    xs = np.linspace(1e-3, 1.0, 100)
    vals = [gap_kernel(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gap_kernel_bounded_near_zero():
    # finite limit pi^2/3 at 0+: nearby evaluations agree within 10%
    assert gap_kernel(1e-4) == pytest.approx(gap_kernel(1e-6), rel=0.1)
    assert gap_kernel(1e-6) == pytest.approx(math.pi ** 2 / 3, rel=1e-4)


def test_gap_kernel_weighted_integral():
    # E[D^2] for a single uniform point: int_0^1 x^2 g(x) dx = 7/12
    value, _ = integrate_1d(NODES * NODES * gap_kernel(NODES))
    assert value == pytest.approx(7 / 12, rel=1e-9)
