import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import mg1_sojourn_times, route_times_batch
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
from pickroute.queueing import MAX_PICKERS


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
            assert erlang_c_wait_prob(c, rho) == pytest.approx(expect, rel=1e-12)


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
    assert expect == pytest.approx(5.3657e-307, rel=1e-4)
    assert erlang_c_wait_prob(500, 0.1) == pytest.approx(expect, rel=1e-12)


def test_picker_count_bound():
    # the recurrence takes one step per server: 10^9 of them ran for minutes
    assert MAX_PICKERS == 10 ** 6
    for build in (lambda c: QueueScenario(c, 1.0), lambda c: erlang_c_wait_prob(c, 0.5)):
        with pytest.raises(ValueError, match="at most 1000000, got 1000001"):
            build(MAX_PICKERS + 1)
        with pytest.raises(ValueError, match="at most 1000000"):
            build(10 ** 9)
    # the bound itself still answers: the Halfin-Whitt limit at beta = 1,
    # sqrt(c) (1 - rho), is 1 / (1 + Phi(1)/phi(1)) = 0.22336
    assert QueueScenario(MAX_PICKERS, 1.0).c == MAX_PICKERS
    assert erlang_c_wait_prob(MAX_PICKERS, 0.999) == pytest.approx(0.22336, abs=1e-3)


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


def test_lead_time_against_queue_simulation_at_c1():
    # the baseline geometry served by one picker at rho = 0.5: the route times
    # of the Monte Carlo engine fed through an FCFS queue (Lindley's
    # recursion), against E[R] from the analytic E_T and Var_T; at c = 1 the
    # formula is the exact M/G/1 mean, so route times -> moments -> E[R] are
    # checked end to end.  64 batch means of 4,096 consecutive orders, each
    # far longer than the queue's memory at this load.
    baseline = parse_config((Path(__file__).parent / "golden" / "baseline.cfg").read_text())
    cfg, dist, pick = _model(baseline)
    times = route_times_batch(cfg, dist, pick, 1 << 18, baseline.seed)
    for h in HEURISTICS:
        rep = compute_moments(cfg, dist, pick, h)
        scenario = QueueScenario(1, 0.5 / rep.e_t)
        want = lead_time_estimate(rep, scenario).e_r
        sojourn = mg1_sojourn_times(times[h], scenario.lam, np.random.default_rng(baseline.seed))
        means = sojourn.reshape(64, -1).mean(axis=1)
        z = (means.mean() - want) / (means.std(ddof=1) / math.sqrt(means.size))
        assert abs(z) <= 4.0, (h, z)


def test_scenario_validation():
    with pytest.raises(ValueError):
        QueueScenario(0, 1.0)
    with pytest.raises(ValueError):
        QueueScenario(2, 0.0)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            QueueScenario(5, lam)
