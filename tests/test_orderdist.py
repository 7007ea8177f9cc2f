import math

import numpy as np
import pytest

from pickroute.orderdist import (
    Deterministic,
    Geometric,
    ShiftedNegBinomial,
    ShiftedPoisson,
    moments,
    parse_dist_spec,
    pgf_eval,
    pgf_prime,
    sample,
)

ALL_DISTS = [
    Deterministic(3),
    ShiftedPoisson(2.0),
    Geometric(1 / 8),
    ShiftedNegBinomial(7, 7 / 31),
]


def test_pgf_examples():
    assert pgf_eval(Geometric(1 / 32), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pgf_eval(ShiftedPoisson(2.0), 0.5) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
    assert pgf_eval(Deterministic(3), 0.5) == pytest.approx(0.125, rel=1e-12)


def test_pgf_prime_examples():
    assert pgf_prime(Deterministic(3), 1.0) == pytest.approx(3.0)
    assert pgf_prime(ShiftedPoisson(2.0), 1.0) == pytest.approx(3.0)
    # d/dx [0.5x / (1 - 0.5x)] at x = 0.5, checked by central difference
    assert pgf_prime(Geometric(0.5), 0.5) == pytest.approx(8 / 9, rel=1e-12)
    h = 1e-6
    fd = (pgf_eval(Geometric(0.5), 0.5 + h) - pgf_eval(Geometric(0.5), 0.5 - h)) / (2 * h)
    assert pgf_prime(Geometric(0.5), 0.5) == pytest.approx(fd, rel=1e-8)


def test_moments_deterministic():
    assert moments(Deterministic(4)) == (4.0, 12.0)


def test_moments_geometric_brute_force():
    p = 1 / 32
    q = 1 - p
    mean = sum(m * p * q ** (m - 1) for m in range(1, 10**6))
    fact2 = sum(m * (m - 1) * p * q ** (m - 1) for m in range(1, 10**6))
    got_mean, got_fact2 = moments(Geometric(p))
    assert got_mean == pytest.approx(mean, rel=1e-9)
    assert got_fact2 == pytest.approx(fact2, rel=1e-9)


def test_moments_shifted_poisson_finite_difference():
    dist = ShiftedPoisson(2.0)
    mean, fact2 = moments(dist)
    assert mean == pytest.approx(3.0)
    h = 1e-6
    fd = (dist.pgf_prime(1.0) - dist.pgf_prime(1.0 - h)) / h
    assert fact2 == pytest.approx(fd, abs=1e-4)


def test_moments_snbin_matches_sampler():
    dist = ShiftedNegBinomial(7, 7 / 31)
    mean, fact2 = moments(dist)
    assert mean == pytest.approx(31.0, rel=1e-12)
    rng = np.random.default_rng(5)
    draws = sample(dist, rng, size=400_000).astype(float)
    assert draws.min() >= 7
    assert mean == pytest.approx(draws.mean(), abs=4 * draws.std() / math.sqrt(len(draws)))
    f2 = draws * (draws - 1)
    assert fact2 == pytest.approx(f2.mean(), abs=4 * f2.std() / math.sqrt(len(draws)))


def test_pgf_domain_error():
    for x in (-0.1, 1.1):
        with pytest.raises(ValueError):
            pgf_eval(Deterministic(2), x)
        with pytest.raises(ValueError):
            pgf_prime(Deterministic(2), x)


def test_no_mass_at_zero():
    for dist in ALL_DISTS:
        assert pgf_eval(dist, 0.0) == 0.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_pgf_shape_invariants(dist):
    xs = np.linspace(0.0, 1.0, 101)
    vals = np.array([pgf_eval(dist, x) for x in xs])
    assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
    assert np.all(np.diff(vals) >= -1e-9)
    assert np.all(np.diff(vals, 2) >= -1e-9)  # convexity
    assert pgf_eval(dist, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pgf_prime(dist, 1.0) == pytest.approx(dist.mean(), rel=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_pgf_prime_matches_finite_difference(dist):
    h = 1e-7
    for x in np.linspace(0.01, 0.99, 23):
        fd = (pgf_eval(dist, x + h) - pgf_eval(dist, x - h)) / (2 * h)
        assert pgf_prime(dist, x) == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_pgf_double_prime_matches_finite_difference(dist):
    h = 1e-6
    for x in (0.2, 0.5, 0.8):
        fd = (dist.pgf_prime(x + h) - dist.pgf_prime(x - h)) / (2 * h)
        assert dist.pgf_double_prime(x) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_geometric_pgf_dominates_poisson_at_equal_mean():
    # convex ordering at equal means: the more variable geometric size has the
    # pointwise larger PGF, which is what makes its furthest-item mean smaller
    for mean in (4.0, 16.0):
        pois = ShiftedPoisson(mean - 1)
        geom = Geometric(1 / mean)
        for x in np.linspace(0, 1, 101):
            assert pgf_eval(geom, x) >= pgf_eval(pois, x) - 1e-12


def test_sampler_examples():
    rng = np.random.default_rng(0)
    assert sample(Deterministic(5), rng) == 5
    assert sample(ShiftedPoisson(0.0), rng) == 1
    draws = sample(Geometric(0.5), np.random.default_rng(1), size=10**6).astype(float)
    se = draws.std() / math.sqrt(len(draws))
    assert draws.mean() == pytest.approx(2.0, abs=4 * se)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_empirical_pgf_matches_analytic(dist):
    n = 10**6
    draws = sample(dist, np.random.default_rng(42), size=n).astype(float)
    for x in (0.3, 0.6, 0.9):
        vals = x ** draws
        se = vals.std() / math.sqrt(n)
        assert pgf_eval(dist, x) == pytest.approx(vals.mean(), abs=4 * se + 1e-12)


def test_parse_dist_spec_round_trips():
    for text, kind in [("det:3", Deterministic), ("spois:4", ShiftedPoisson),
                       ("geom:32", Geometric), ("snbin:7:31", ShiftedNegBinomial)]:
        dist = parse_dist_spec(text)
        assert isinstance(dist, kind)
        assert parse_dist_spec(dist.spec()) == dist


def test_parse_dist_spec_rejects_invalid():
    for bad in ("geom:0.5", "det:0", "det:2.5", "spois:0.5", "snbin:7:5",
                "snbin:7", "unknown:3", "geom", ""):
        with pytest.raises(ValueError):
            parse_dist_spec(bad)


def test_mpf_arguments_supported():
    import mpmath
    with mpmath.workdps(40):
        for dist in ALL_DISTS:
            x = mpmath.mpf(1) / 3
            assert isinstance(dist.pgf(x), mpmath.mpf)
            assert float(dist.pgf(x)) == pytest.approx(dist.pgf(1 / 3), rel=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec())
def test_array_arguments_match_scalar(dist):
    # numpy's exp may differ from math.exp in the last bit, hence a few ulps
    x = np.linspace(0.0, 1.0, 9)
    for f in (dist.pgf, dist.pgf_prime, dist.pgf_double_prime):
        values = f(x)
        assert isinstance(values, np.ndarray) and values.shape == x.shape
        np.testing.assert_allclose(values, [f(float(t)) for t in x],
                                   rtol=4 * np.finfo(float).eps, atol=0.0)
