import math
import sys
import time
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import mg1_sojourn_times, mgc_sojourn_times, route_times_batch
from pickroute import (
    HEURISTICS,
    Geometric,
    PickTimeModel,
    QueueScenario,
    UnstableQueueError,
    WarehouseConfig,
    compute_moments,
    erlang_c_wait_prob,
    lead_time_estimate,
)
from pickroute.cli import _model, parse_config
from pickroute.heuristics import MomentReport


def make_report(e_t: float, scv: float) -> MomentReport:
    var = scv * e_t * e_t
    return MomentReport(e_t, var + e_t * e_t, var, math.sqrt(var), 0.0, 0.0)


def test_erlang_c_known_values():
    assert erlang_c_wait_prob(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert erlang_c_wait_prob(2, 0.5) == pytest.approx(1 / 3, abs=1e-12)
    assert erlang_c_wait_prob(2, 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_erlang_c_against_direct_formula():
    for c in (1, 2, 3, 5, 10, 50):
        for rho in (0.1, 0.5, 0.85, 0.99):
            a = c * rho
            summation = sum(a ** n / math.factorial(n) for n in range(c))
            tail = a ** c / (math.factorial(c) * (1 - rho))
            expect = tail / (summation + tail)
            assert erlang_c_wait_prob(c, rho) == pytest.approx(expect, rel=1e-12, abs=0)


def test_erlang_c_at_zero_load_is_zero():
    assert erlang_c_wait_prob(5, 0.0) == 0.0
    assert erlang_c_wait_prob(10 ** 9, 0.0) == 0.0


@pytest.mark.parametrize("e_t", [0.0, -1.0, math.nan])
def test_lead_time_needs_a_positive_mean(e_t):
    with pytest.raises(ValueError, match="mean picking time must be positive"):
        lead_time_estimate(MomentReport(e_t, 1.0, 1.0, 1.0, 0.0, 0.0), QueueScenario(c=2, lam=0.01))


def test_lead_time_refuses_a_mean_whose_square_underflows():
    # Var_T / E[T]^2 divided by zero
    with pytest.raises(ValueError, match=r"E\[T\] = 1e-200 s .* its square underflows to 0"):
        lead_time_estimate(MomentReport(1e-200, 0.0, 0.0, 0.0, 0.0, 0.0), QueueScenario(c=5, lam=0.01))
    assert lead_time_estimate(make_report(1e-150, 1.0), QueueScenario(c=5, lam=0.01)).e_r > 0


def test_erlang_c_large_c_stable():
    q = erlang_c_wait_prob(2000, 0.95)
    assert 0.0 <= q <= 1.0 and math.isfinite(q)


def test_erlang_c_below_normal_floats():
    # exact values 1.8e-2464 and 1.7e-564: the subnormal recurrence stuck at
    # 1.5e-323 and 9.9e-322
    assert erlang_c_wait_prob(10 ** 5, 0.7) == 0.0
    assert erlang_c_wait_prob(10 ** 6, 0.95) == 0.0
    # a normal value next to the threshold keeps its digits
    with mpmath.workdps(50):
        rho = mpmath.mpf(0.1)
        a, b = 500 * rho, mpmath.mpf(1)
        for n in range(1, 501):
            b = a * b / (n + a * b)
        expect = float(b / (1 - rho * (1 - b)))
    assert expect == pytest.approx(5.3657e-307, rel=1e-4, abs=0)
    assert erlang_c_wait_prob(500, 0.1) == pytest.approx(expect, rel=1e-12, abs=0)


def test_picker_count_bound():
    # the Halfin-Whitt limit at beta = sqrt(c) (1 - rho) = 1 is
    # 1 / (1 + Phi(1)/phi(1)) = 0.22336
    assert erlang_c_wait_prob(10 ** 6, 0.999) == pytest.approx(0.22336, abs=1e-3)


def erlang_c_mp(c: int, rho: float) -> mpmath.mpf:
    """Q at 40 digits from B = pi_c / F_c, a = c rho with the float rho:
    pi_c = e^-a a^c / c! and F_c = P(N <= c) for N ~ Poisson(a), the
    regularized upper incomplete gamma function at (c + 1, a).  Where Q is
    below 1/DBL_MAX an upper bound of it may be returned instead."""
    with mpmath.workdps(40):
        rho = mpmath.mpf(rho)
        a = c * rho
        pi_c = mpmath.exp(c * mpmath.log(a) - a - mpmath.loggamma(c + 1))
        # since E[N] = a < c + 1, Markov's bound gives F_c >= (c + 1 - a) / (c + 1),
        # so this bounds Q from above; below 1/DBL_MAX skip the costly F_c
        bound = pi_c * (c + 1) / ((c + 1 - a) * (1 - rho))
        if bound < mpmath.mpf(1) / sys.float_info.max:
            return bound
        b = pi_c / mpmath.gammainc(c + 1, a, mpmath.inf, regularized=True)
        return b / (1 - rho * (1 - b))


def test_erlang_c_against_high_precision_grid():
    for c in (1, 2, 3, 5, 16, 50, 500, 5000, 10 ** 5, 10 ** 6):
        for rho in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999):
            expect = erlang_c_mp(c, rho)
            if expect >= sys.float_info.min:
                assert erlang_c_wait_prob(c, rho) == pytest.approx(float(expect), rel=1e-12, abs=0), (c, rho)
            else:
                assert expect < 1 / sys.float_info.max, (c, rho)
                assert erlang_c_wait_prob(c, rho) == 0.0, (c, rho)


@pytest.mark.parametrize("beta", [38.0, 1e4, 3e4], ids=["peak-below-overflow", "rho-0.68", "rho-0.05"])
def test_erlang_c_cost_at_a_billion_servers(beta):
    # rho = 1 - beta / sqrt(c).  At beta = 38 the sum's peak lies just below
    # overflow, the costliest load: about 45 sqrt(c) steps.  Below it the
    # terms overflow on the way up, which ends the sum long before n = a.
    c = 10 ** 9
    start = time.perf_counter()
    q = erlang_c_wait_prob(c, 1 - beta / math.sqrt(c))
    assert time.perf_counter() - start < 1.0
    assert 0.0 <= q < sys.float_info.min


def test_erlang_c_monotonicity():
    rhos = np.linspace(0.01, 0.99, 50)
    vals = [erlang_c_wait_prob(3, r) for r in rhos]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # at fixed offered load a = c * rho, pooling more servers shortens queues
    a = 1.8
    vals = [erlang_c_wait_prob(c, a / c) for c in (2, 3, 5, 10, 20)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_erlang_c_domain():
    with pytest.raises(UnstableQueueError):
        erlang_c_wait_prob(2, 1.0)
    with pytest.raises(ValueError):
        erlang_c_wait_prob(0, 0.5)
    with pytest.raises(ValueError):
        erlang_c_wait_prob(2, -0.1)
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            erlang_c_wait_prob(5, rho)


def test_lead_time_single_server_examples():
    report = make_report(1.0, 1.0)
    lead = lead_time_estimate(report, QueueScenario(1, 0.5))
    assert lead.rho == pytest.approx(0.5)
    assert lead.e_r == pytest.approx(2.0, rel=1e-12)


def test_lead_time_matches_pollaczek_khinchine_at_c1():
    rng = np.random.default_rng(123)
    for _ in range(20):
        rho = float(rng.uniform(0.05, 0.95))
        scv = float(rng.uniform(0.0, 3.0))
        e_t = float(rng.uniform(0.5, 200.0))
        lam = rho / e_t
        report = make_report(e_t, scv)
        lead = lead_time_estimate(report, QueueScenario(1, lam))
        pk = e_t + lam * report.e_t2 / (2 * (1 - rho))
        assert lead.e_r == pytest.approx(pk, rel=1e-12)


def test_lead_time_unstable_marker():
    report = make_report(100.0, 1.0)
    lead = lead_time_estimate(report, QueueScenario(2, 0.0204))  # rho = 1.02
    assert lead.rho == pytest.approx(1.02)
    assert lead.e_r is None and not lead.stable


def test_lead_time_monotone_in_arrival_rate():
    report = make_report(10.0, 0.8)
    lams = np.linspace(0.001, 0.29, 30)  # c = 3 -> stable up to 0.3
    vals = [lead_time_estimate(report, QueueScenario(3, float(lam))).e_r for lam in lams]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    tiny = lead_time_estimate(report, QueueScenario(3, 1e-9)).e_r
    assert tiny == pytest.approx(10.0, rel=1e-6)


def test_lead_time_increasing_in_scv():
    for scv1, scv2 in ((0.0, 0.5), (0.5, 2.0)):
        r1 = lead_time_estimate(make_report(10.0, scv1), QueueScenario(2, 0.15))
        r2 = lead_time_estimate(make_report(10.0, scv2), QueueScenario(2, 0.15))
        assert r1.e_r < r2.e_r


def test_lead_time_from_real_report():
    cfg = WarehouseConfig(5, 20.0, 2.5, 5 / 6)
    rep = compute_moments(cfg, Geometric(1 / 32), PickTimeModel.from_scv(5.0, 1.0), "largest-gap")
    lead = lead_time_estimate(rep, QueueScenario(5, 51 / 3600))
    assert lead.stable
    assert lead.e_r >= rep.e_t


BASELINE = Path(__file__).parent / "golden" / "baseline.cfg"


@lru_cache(maxsize=None)
def baseline_route_times() -> dict[str, np.ndarray]:
    """Route times of 2^20 orders at the baseline config's geometry and seed;
    the first 2^18 are the orders of a 2^18-order run."""
    baseline = parse_config(BASELINE.read_text())
    return route_times_batch(*_model(baseline), 1 << 20, baseline.seed)


def batch_means(sojourn: np.ndarray) -> tuple[float, float]:
    """Mean of 64 batch means of consecutive orders, and its standard error."""
    means = sojourn.reshape(64, -1).mean(axis=1)
    return means.mean(), means.std(ddof=1) / math.sqrt(means.size)


def test_lead_time_against_queue_simulation_at_c1():
    # the baseline geometry served by one picker at rho = 0.5: the route times
    # of the Monte Carlo engine fed through an FCFS queue (Lindley's
    # recursion), against E[R] from the analytic E_T and Var_T; at c = 1 the
    # formula is the exact M/G/1 mean, so route times -> moments -> E[R] are
    # checked end to end.  64 batch means of 4,096 consecutive orders, each
    # far longer than the queue's memory at this load.
    baseline = parse_config(BASELINE.read_text())
    cfg, dist, pick = _model(baseline)
    times = baseline_route_times()
    for h in HEURISTICS:
        rep = compute_moments(cfg, dist, pick, h)
        scenario = QueueScenario(1, 0.5 / rep.e_t)
        want = lead_time_estimate(rep, scenario).e_r
        sojourn = mg1_sojourn_times(times[h][:1 << 18], scenario.lam, np.random.default_rng(baseline.seed))
        mean, se = batch_means(sojourn)
        assert abs(mean - want) <= 4.0 * se, (h, (mean - want) / se)


def test_mgc_queue_oracle_against_mmc():
    # with exponential service the two-moment formula is the exact M/M/c mean
    # sojourn time, so the Kiefer-Wolfowitz oracle and erlang_c_wait_prob are
    # checked against each other at c = 5, rho = 0.85: 64 batch means of 4,096
    # orders, each over ten times the queue's relaxation time
    rng = np.random.default_rng(17)
    c, rho = 5, 0.85
    want = lead_time_estimate(make_report(1.0, 1.0), QueueScenario(c, c * rho)).e_r
    mean, se = batch_means(mgc_sojourn_times(rng.exponential(1.0, 1 << 18), c * rho, c, rng))
    assert abs(mean - want) <= 4.0 * se, (mean - want) / se
    # one server: the workload vector is Lindley's recursion
    service = rng.exponential(1.0, 1000)
    np.testing.assert_allclose(mgc_sojourn_times(service, 0.5, 1, np.random.default_rng(1)),
                               mg1_sojourn_times(service, 0.5, np.random.default_rng(1)), rtol=0, atol=1e-9)


def test_two_moment_lead_time_error_at_published_scenario():
    # at c > 1 the two-moment E[R] is an approximation (Whitt, "Approximations
    # for the GI/G/m queue", 1993), so its error is measured here, not gated:
    # the engine's route times at the published scenario (baseline geometry,
    # 5 pickers, 51 orders/h) run through the M/G/c oracle, 2^20 orders in 64
    # batch means.  README states the result (run with -s to print it).  What
    # is checked is that the measurement resolves it: below rho = 0.9 its
    # standard error is under 1% of E[R].  Return runs at rho = 0.997, where
    # the queue relaxes over tens of thousands of orders and 2^20 of them do
    # not pin E[R] to 1%.
    baseline = parse_config(BASELINE.read_text())
    cfg, dist, pick = _model(baseline)
    times = baseline_route_times()
    scenario = QueueScenario(5, 51 / 3600)
    for h in HEURISTICS:
        rep = compute_moments(cfg, dist, pick, h)
        lead = lead_time_estimate(rep, scenario)
        sojourn = mgc_sojourn_times(times[h], scenario.lam, scenario.c, np.random.default_rng(baseline.seed))
        mean, se = batch_means(sojourn)
        print(f"{h}: rho {lead.rho:.4f}, E_R {lead.e_r:.1f} s against {mean:.1f} s simulated,"
              f" relative error {lead.e_r / mean - 1:+.2%} (standard error {se / mean:.2%})")
        assert mean > rep.e_t
        if lead.rho < 0.9:
            assert se < 0.01 * mean, (h, se / mean)


def test_scenario_validation():
    with pytest.raises(ValueError):
        QueueScenario(0, 1.0)
    with pytest.raises(ValueError):
        QueueScenario(2, 0.0)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            QueueScenario(5, lam)
