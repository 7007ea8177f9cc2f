import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from pickroute.orderdist import (
    PMF_TAIL,
    Deterministic,
    Geometric,
    ShiftedNegBinomial,
    ShiftedPoisson,
    parse_dist_spec,
)

ALL_DISTS = [
    Deterministic(3),
    ShiftedPoisson(2.0),
    Geometric(1 / 8),
    ShiftedNegBinomial(7, 7 / 31),
]


def test_pgf_examples():
    assert Geometric(1 / 32).pgf(1.0) == pytest.approx(1.0, abs=1e-12)
    assert ShiftedPoisson(2.0).pgf(0.5) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12, abs=0)
    assert Deterministic(3).pgf(0.5) == pytest.approx(0.125, rel=1e-12, abs=0)


def test_pgf_prime_examples():
    assert Deterministic(3).pgf_prime(1.0) == pytest.approx(3.0)
    assert ShiftedPoisson(2.0).pgf_prime(1.0) == pytest.approx(3.0)
    # d/dx [0.5x / (1 - 0.5x)] at x = 0.5, checked by central difference
    assert Geometric(0.5).pgf_prime(0.5) == pytest.approx(8 / 9, rel=1e-12, abs=0)
    h = 1e-6
    fd = (Geometric(0.5).pgf(0.5 + h) - Geometric(0.5).pgf(0.5 - h)) / (2 * h)
    assert Geometric(0.5).pgf_prime(0.5) == pytest.approx(fd, rel=1e-8)


def test_moments_deterministic():
    dist = Deterministic(4)
    assert (dist.mean(), dist.factorial2()) == (4.0, 12.0)


def test_moments_geometric_brute_force():
    p = 1 / 32
    q = 1 - p
    mean = sum(m * p * q ** (m - 1) for m in range(1, 10**6))
    fact2 = sum(m * (m - 1) * p * q ** (m - 1) for m in range(1, 10**6))
    got_mean, got_fact2 = Geometric(p).mean(), Geometric(p).factorial2()
    assert got_mean == pytest.approx(mean, rel=1e-9)
    assert got_fact2 == pytest.approx(fact2, rel=1e-9)


def test_moments_shifted_poisson_finite_difference():
    dist = ShiftedPoisson(2.0)
    mean, fact2 = dist.mean(), dist.factorial2()
    assert mean == pytest.approx(3.0)
    h = 1e-6
    fd = (dist.pgf_prime(1.0) - dist.pgf_prime(1.0 - h)) / h
    assert fact2 == pytest.approx(fd, abs=1e-4)


def test_moments_snbin_matches_sampler():
    dist = ShiftedNegBinomial(7, 7 / 31)
    mean, fact2 = dist.mean(), dist.factorial2()
    assert mean == pytest.approx(31.0, rel=1e-12)
    rng = np.random.default_rng(5)
    draws = dist.sample(rng, size=400_000).astype(float)
    assert draws.min() >= 7
    assert mean == pytest.approx(draws.mean(), abs=4 * draws.std() / math.sqrt(len(draws)))
    f2 = draws * (draws - 1)
    assert fact2 == pytest.approx(f2.mean(), abs=4 * f2.std() / math.sqrt(len(draws)))


def test_no_mass_at_zero():
    for dist in ALL_DISTS:
        assert dist.pgf(0.0) == 0.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_pgf_shape_invariants(dist):
    xs = np.linspace(0.0, 1.0, 101)
    vals = np.array([dist.pgf(x) for x in xs])
    assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
    assert np.all(np.diff(vals) >= -1e-9)
    assert np.all(np.diff(vals, 2) >= -1e-9)  # convexity
    assert dist.pgf(1.0) == pytest.approx(1.0, abs=1e-12)
    assert dist.pgf_prime(1.0) == pytest.approx(dist.mean(), rel=1e-12)


@pytest.mark.parametrize("p", [1e-6, 1e-9])
def test_pgf_exact_at_one_for_small_p(p):
    # a rounded q = 1 - p in the denominator put P(1) off 1 by 2.8e-8 at p = 1e-9
    for dist, r in ((Geometric(p), 1), (ShiftedNegBinomial(3, p), 3)):
        assert dist.pgf(1.0) == 1.0
        assert abs(p * dist.pgf_prime(1.0) / r - 1.0) <= math.ulp(1.0)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_pgf_prime_matches_finite_difference(dist):
    h = 1e-7
    for x in np.linspace(0.01, 0.99, 23):
        fd = (dist.pgf(x + h) - dist.pgf(x - h)) / (2 * h)
        assert dist.pgf_prime(x) == pytest.approx(fd, rel=1e-6, abs=1e-10)


def _scipy_law(dist):
    """The same law as a frozen scipy.stats distribution."""
    if isinstance(dist, Deterministic):
        return stats.randint(dist.m, dist.m + 1)
    if isinstance(dist, ShiftedPoisson):
        return stats.poisson(dist.lam, loc=1)
    if isinstance(dist, Geometric):
        return stats.geom(dist.p)
    return stats.nbinom(dist.r, dist.p, loc=dist.r)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_factorial2_matches_pmf_sum(dist):
    # E[M(M-1)] = sum m(m-1) pmf(m), summed until the tail mass is below 1e-15
    law = _scipy_law(dist)
    top = int(law.support()[0])
    while law.sf(top) >= 1e-15:
        top += 1
    m = np.arange(law.support()[0], top + 1, dtype=float)
    pmf = law.pmf(m)
    assert math.fsum(m * pmf) == pytest.approx(dist.mean(), rel=1e-12)
    assert math.fsum(m * (m - 1) * pmf) == pytest.approx(dist.factorial2(), rel=1e-10)


# lam = 0 and p = 1 take 0 log 0 = 0 without a log(0) warning
PMF_LAWS = ALL_DISTS + [Geometric(1 / 40), ShiftedNegBinomial(3, 3 / 40),
                       ShiftedPoisson(0.0), Geometric(1.0), ShiftedNegBinomial(2, 1.0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dist", PMF_LAWS, ids=lambda d: repr(d))
def test_pmf_matches_scipy_stats(dist):
    law = _scipy_law(dist)
    p = dist.pmf(100_000)
    m = np.arange(len(p))
    np.testing.assert_allclose(p, law.pmf(m), rtol=1e-12, atol=0.0)
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-14)
    # the cut leaves at most PMF_TAIL of i^2-weighted mass behind it
    rest = np.arange(len(p), len(p) + 100_000)
    assert math.fsum(rest ** 2 * law.pmf(rest)) <= PMF_TAIL
    # a shorter request is a prefix of the same array
    short = dist.pmf(3)
    np.testing.assert_array_equal(short, p[:len(short)])
    assert len(short) == min(4, len(p))


def _pmf_in_one_block(dist, n):
    """``pmf(n)`` with the log-pmf evaluated on all of m = lo..n+1 at once."""
    lo = dist._support_start()
    m = np.arange(lo, n + 2)
    p = np.exp(dist._logpmf(m))
    t = m * m * p
    with np.errstate(divide="ignore", invalid="ignore"):
        r = t[1:] / t[:-1]
        cut = np.flatnonzero((r < 1) & (t[1:] / (1 - r) <= PMF_TAIL))
    end = min(n, lo + int(cut[0])) if cut.size else n
    out = np.zeros(end + 1)
    out[lo:] = p[:end + 1 - lo]
    return out


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("dist", PMF_LAWS + [ShiftedPoisson(999.0)], ids=lambda d: repr(d))
def test_pmf_blocks_match_one_block(dist, block, monkeypatch):
    # blocks end at m = lo + B - 1, lo + 4B - 1, ...: requests and cuts on
    # either side of those ends give the same array as one block; small B
    # puts block ends next to the cuts
    import pickroute.orderdist as od
    if block is not None:
        monkeypatch.setattr(od, "_PMF_BLOCK", block)
    for n in (0, 1, 3, 510, 511, 512, 2046, 2047, 2048, 2896, 100_000):
        np.testing.assert_array_equal(dist.pmf(n), _pmf_in_one_block(dist, n))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mean", [1000.0, 10_001.0])
def test_poisson_pmf_at_large_mean_matches_high_precision(mean):
    # (m-1) log(lam) - lam - log (m-1)! cancels from ~7,000 to a few units at
    # mean 1000: scipy.stats.poisson is off by 1.6e-12 near the mode there and
    # sums to 1 + 3.2e-13 (1 + 1.4e-11 at mean 10,001), so the reference is
    # 40-digit mpmath
    dist = ShiftedPoisson(mean - 1.0)
    p = dist.pmf(100_000)
    lam = mpmath.mpf(dist.lam)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp((i - 1) * mpmath.log(lam) - lam - mpmath.loggamma(i)))
                         for i in range(1, len(p))])
    np.testing.assert_allclose(p[1:], want, rtol=1e-12, atol=0.0)
    assert p[0] == 0.0
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-14)
    rest = np.arange(len(p), len(p) + 100_000)
    assert math.fsum(rest ** 2 * _scipy_law(dist).pmf(rest)) <= PMF_TAIL


def test_geometric_pgf_dominates_poisson_at_equal_mean():
    # convex ordering at equal means: the more variable geometric size has the
    # pointwise larger PGF, which is what makes its furthest-item mean smaller
    for mean in (4.0, 16.0):
        pois = ShiftedPoisson(mean - 1)
        geom = Geometric(1 / mean)
        for x in np.linspace(0, 1, 101):
            assert geom.pgf(x) >= pois.pgf(x) - 1e-12


def test_sampler_examples():
    rng = np.random.default_rng(0)
    assert Deterministic(5).sample(rng, 3).tolist() == [5, 5, 5]
    assert ShiftedPoisson(0.0).sample(rng, 3).tolist() == [1, 1, 1]
    draws = Geometric(0.5).sample(np.random.default_rng(1), size=10**6).astype(float)
    se = draws.std() / math.sqrt(len(draws))
    assert draws.mean() == pytest.approx(2.0, abs=4 * se)


@pytest.mark.parametrize("dist,draw", [
    (ShiftedPoisson(2.0), lambda rng, n: 1 + rng.poisson(2.0, size=n)),
    (Geometric(1 / 8), lambda rng, n: rng.geometric(1 / 8, size=n)),
    (ShiftedNegBinomial(7, 7 / 31), lambda rng, n: 7 + rng.negative_binomial(7, 7 / 31, size=n)),
], ids=lambda d: d.spec() if hasattr(d, "spec") else "")
def test_sampler_is_the_shifted_int64_draw(dist, draw):
    # the shift is added in place to numpy's own draw: same values and
    # stream as the shifted copy, as one writable int64 array
    got = dist.sample(np.random.default_rng(3), size=1_001)
    want = draw(np.random.default_rng(3), 1_001)
    assert got.dtype == np.int64 and got.flags.writeable and got.flags.owndata
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_empirical_pgf_matches_analytic(dist):
    n = 10**6
    draws = dist.sample(np.random.default_rng(42), size=n).astype(float)
    for x in (0.3, 0.6, 0.9):
        vals = x ** draws
        se = vals.std() / math.sqrt(n)
        assert dist.pgf(x) == pytest.approx(vals.mean(), abs=4 * se + 1e-12)


def test_parse_dist_spec_round_trips():
    for text, kind in [("det:3", Deterministic), ("spois:4", ShiftedPoisson),
                       ("geom:32", Geometric), ("snbin:7:31", ShiftedNegBinomial)]:
        dist = parse_dist_spec(text)
        assert isinstance(dist, kind)
        assert parse_dist_spec(dist.spec()) == dist


def test_parse_dist_spec_rejects_invalid():
    for bad in ("geom:0.5", "det:0", "det:2.5", "spois:0.5", "snbin:7:5",
                "snbin:7", "unknown:3", "geom", "", "det:inf", "det:1e400", "snbin:inf:5"):
        with pytest.raises(ValueError):
            parse_dist_spec(bad)


@pytest.mark.parametrize("make", [lambda: Geometric(0.0), lambda: Geometric(1.5),
                                  lambda: ShiftedNegBinomial(3, 0.0)], ids=["geom-0", "geom-1.5", "snbin-0"])
def test_success_probability_outside_unit_interval_is_rejected(make):
    # specs give means, which parse_dist_spec checks first; a direct
    # construction reaches the laws' own checks
    with pytest.raises(ValueError, match=r"success probability must be in \(0, 1\]"):
        make()


@pytest.mark.parametrize("spec", ["spois:1e160", "geom:1e160", "snbin:3:1e160", "geom:1e200",
                                  "snbin:3:1e200", "det:1e160", "geom:1e154"])
def test_factorial2_beyond_a_double_is_rejected(spec):
    # E[T^2] came out inf with no error from order-size means near 1.3e154,
    # and p ** 2 underflowing to 0 raised a bare ZeroDivisionError
    with pytest.raises(ValueError, match=r"E\[M\(M-1\)\] of .* overflows a double"):
        parse_dist_spec(spec)


def test_factorial2_near_the_limit_is_accepted():
    for spec in ("spois:1.3e154", "geom:9e153", "snbin:3:9e153", "det:1e150"):
        assert math.isfinite(parse_dist_spec(spec).factorial2()), spec


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_array_arguments_match_scalar(dist):
    # numpy's exp may differ from math.exp in the last bit, hence a few ulps
    x = np.linspace(0.0, 1.0, 9)
    for f in (dist.pgf, dist.pgf_prime):
        values = f(x)
        assert isinstance(values, np.ndarray) and values.shape == x.shape
        np.testing.assert_allclose(values, [f(float(t)) for t in x],
                                   rtol=4 * np.finfo(float).eps, atol=0.0)
