import math

import mpmath
import numpy as np
import pytest

from scipy import integrate
from scipy.special import exp1

from pickroute.quadrature import (
    NODES,
    IntegrationError,
    _S,
    box_kernel,
    gap_kernel,
    integrate_1d,
    integrate_2d,
    log_kernel,
    spence,
)


def gauss_legendre_gap_kernel(x: float, n: int = 200) -> float:
    """Independent evaluation with the substitution y = 1 - exp(-t)."""
    lo = -math.log1p(-x)
    hi = 60.0
    nodes, weights = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = t * t * np.exp(-t) / (1.0 - np.exp(-t)) ** 2
    return float(0.5 * (hi - lo) * np.dot(weights, vals))


def test_integrate_1d_polynomial():
    value, err = integrate_1d(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1 / 3, abs=1e-12)
    assert err < 1e-10


def test_integrate_1d_log_square_singularity():
    value, _ = integrate_1d(lambda x: np.log1p(-x) ** 2, 0.0, 1.0)
    assert value == pytest.approx(2.0, rel=1e-9)


def test_integrate_1d_x_log():
    value, _ = integrate_1d(lambda x: -np.log1p(-x) * x, 0.0, 1.0)
    assert value == pytest.approx(0.75, rel=1e-10)


@pytest.mark.parametrize("f, exact", [
    (lambda x: x * x, 1 / 3),
    (lambda x: np.log1p(-x) ** 2, 2.0),
    (lambda x: x * np.log1p(-x), -0.75),
])
def test_integrate_1d_error_estimate_bounds_error(f, exact):
    value, err = integrate_1d(f, 0.0, 1.0)
    assert abs(value - exact) <= err


def test_integrate_1d_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 0.0)


def test_integrate_1d_failure_carries_partial_value():
    # 1/x diverges at 0; the rule never evaluates the endpoint itself
    with pytest.raises(IntegrationError) as info:
        integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)
    assert math.isfinite(info.value.partial_value)


def test_integrate_2d_examples():
    assert integrate_2d(np.ones_like, box_kernel)[0] == pytest.approx(1.0, abs=1e-10)
    # (x + y)^2 over the unit square: 2/3 + 2 * 1/4 = 7/6
    assert integrate_2d(lambda s: s * s, box_kernel)[0] == pytest.approx(7 / 6, abs=1e-10)
    value, _ = integrate_2d(np.ones_like, log_kernel)
    assert value == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("kernel, w", [
    (box_kernel, lambda u: np.ones_like(u)),
    (log_kernel, lambda u: np.log(u)),
])
def test_kernels_against_direct_convolution(kernel, w):
    # w is the weight as a function of 1 - x; the second factor's 1 - (s - x)
    # is taken as (1 - s) + x, which keeps its digits at nodes next to x = s - 1
    for s in (1e-6, 0.5, 1 - 1e-9, 1.0, 1.5, 2 - 1e-6):
        direct, _ = integrate_1d(lambda x: w(1 - x) * w((1 - s) + x), max(0.0, s - 1.0), min(1.0, s))
        assert kernel(s) == pytest.approx(direct, rel=1e-9, abs=1e-13)
    assert kernel(0.0) == 0.0
    assert kernel(2.0) == 0.0


def test_integrate_2d_against_dblquad():
    # the reference is the full 2-D integral of w(x) w(y) e^(x+y) by nested QUADPACK
    for kernel, w in ((box_kernel, lambda x: 1.0), (log_kernel, lambda x: math.log1p(-x))):
        ref, _ = integrate.dblquad(lambda y, x: w(x) * w(y) * math.exp(x + y), 0.0, 1.0, 0.0, 1.0,
                                   epsabs=1e-13, epsrel=1e-13)
        value, err = integrate_2d(np.exp, kernel)
        assert value == pytest.approx(ref, rel=1e-9)
        assert err < 1e-9
    assert integrate_2d(np.exp, box_kernel)[0] == pytest.approx((math.e - 1) ** 2, rel=1e-12)


def test_integrate_2d_error_estimate_bounds_error():
    # e^(x+y) against w(x) w(y): the square of int_0^1 w(x) e^x dx, which is
    # e - 1 for w = 1 and -e (gamma + E1(1)) for w = log(1-x)
    for kernel, one in ((box_kernel, math.e - 1), (log_kernel, -math.e * (np.euler_gamma + exp1(1.0)))):
        value, err = integrate_2d(np.exp, kernel)
        assert abs(value - one ** 2) <= err


def test_gap_kernel_endpoints_and_domain():
    assert gap_kernel(1.0) == 0.0
    with pytest.raises(ValueError):
        gap_kernel(0.0)
    with pytest.raises(ValueError):
        gap_kernel(-0.5)


def test_gap_kernel_against_independent_quadrature():
    for x in (1e-4, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        assert gap_kernel(x) == pytest.approx(gauss_legendre_gap_kernel(x), rel=1e-9)
    assert gap_kernel(0.5) == pytest.approx(2.605840094684627, rel=1e-12)


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
    value, _ = integrate_1d(lambda x: x * x * gap_kernel(x), 0.0, 1.0)
    assert value == pytest.approx(7 / 12, rel=1e-9)


def _dilog_arguments():
    """NODES, 1 - NODES, the arguments b = (1-s)/(2-s) that log_kernel keeps on
    its node array (s < 1), and 2,000 seeded points of (0, 1)."""
    s = _S[_S < 1.0]
    rng = np.random.default_rng(20240)
    return np.concatenate([NODES, 1.0 - NODES, (1.0 - s) / (2.0 - s), rng.random(2000)])


def test_spence_matches_high_precision_dilogarithm():
    z = _dilog_arguments()
    with mpmath.workdps(30):
        want = np.array([float(mpmath.polylog(2, 1 - mpmath.mpf(float(v)))) for v in z])
    got = spence(z)
    zero = want == 0.0   # z = 1, where 1 - NODES rounds up
    assert np.all(got[zero] == 0.0)
    assert np.max(np.abs(got - want)[~zero] / want[~zero]) <= 1e-15


def test_spence_endpoints_and_domain():
    assert spence(0.0) == math.pi ** 2 / 6
    assert spence(1.0) == 0.0
    # log_kernel discards the NaN it forms for s >= 1, where b <= 0
    assert np.all(np.isnan(spence(np.array([-1e-300, -0.5, 1.0 + 2e-16, 2.0, np.inf, np.nan]))))
    assert spence(np.array([0.0, 0.5, 1.0])).shape == (3,)
