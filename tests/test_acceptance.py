"""Acceptance suite: one test (or parametrized group) per criterion, each at
its stated tolerance, printing a PASS/FAIL line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import math
import time

import numpy as np
import pytest

from pickroute import (
    Deterministic,
    Geometric,
    HEURISTICS,
    PickTimeModel,
    QueueScenario,
    ShiftedPoisson,
    WarehouseConfig,
    compute_moments,
    erlang_c_wait_prob,
    layout_sweep,
    lead_time_estimate,
    parse_dist_spec,
    run_replications_all,
)
from pickroute.heuristics import MomentReport
from pickroute.prelim import AisleModel, gap_moments, kplus_moments, occupancy_law
from pickroute.cli import main as cli_main

from oracles import contiguous_probs, enum_discrete, iodd_mean, pair_event_prob, route_times_batch

V3KMH = 3000.0 / 3600.0
MC_N = 1_000_000
MC_SEED = 20260810


def note(criterion: str, status: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence, analytic vs 1e6-replication Monte Carlo
# ---------------------------------------------------------------------------

C1_DISTS = ["det:1", "det:3", "spois:4", "geom:8", "geom:32"]
C1_KS = [1, 2, 3, 5]


@pytest.mark.parametrize("spec", C1_DISTS)
@pytest.mark.parametrize("k", C1_KS)
def test_criterion_1_oracle_equivalence(spec, k):
    dist = parse_dist_spec(spec)
    cfg = WarehouseConfig(k, 20.0, 2.5, V3KMH)
    pick = PickTimeModel.from_scv(10.0, 1.0)
    estimates = run_replications_all(cfg, dist, pick, MC_N, seed=MC_SEED)
    worst = 0.0
    for h in HEURISTICS:
        rep = compute_moments(cfg, dist, pick, h)
        est = estimates[h]
        z1 = (rep.e_t - est.mean_t) / est.se_mean
        z2 = (rep.e_t2 - est.mean_t2) / est.se_t2
        worst = max(worst, abs(z1), abs(z2))
        assert abs(z1) <= 4.0, f"{h} {spec} k={k}: E[T] z={z1:.2f}"
        assert abs(z2) <= 4.0, f"{h} {spec} k={k}: E[T^2] z={z2:.2f}"
    note("1", "PASS", f"dist={spec} k={k} max|z|={worst:.2f} (n={MC_N})")


# ---------------------------------------------------------------------------
# criterion 2: enumeration equivalence for small discrete cases
# ---------------------------------------------------------------------------

def test_criterion_2_enumeration_equivalence():
    tol = 1e-12
    for k in (1, 2, 3):
        for m in (1, 2, 3, 4):
            oracle = enum_discrete(k, m)
            model = AisleModel(k, Deterministic(m))
            mean, second, cross = kplus_moments(model)
            assert abs(mean - float(oracle["kp_mean"])) < tol
            assert abs(second - float(oracle["kp_sec"])) < tol
            assert abs(cross - float(oracle["m_kp"])) < tol
            pmf, _, _ = occupancy_law(model)
            contiguous = contiguous_probs(pmf)
            for j in range(k):
                assert abs(pmf[j] - float(oracle["pmf"][j])) < tol
                assert abs(contiguous[j] - float(oracle["contiguous"][j])) < tol
            assert abs(iodd_mean(model) - float(oracle["iodd"])) < tol
            for d, prob in oracle["pair_prob"].items():
                assert abs(pair_event_prob(model, d) - float(prob)) < tol
    note("2", "PASS", "k <= 3, det m <= 4, all discrete quantities at 1e-12")


# ---------------------------------------------------------------------------
# criterion 3: shifted-Poisson closed-form cross-checks
# ---------------------------------------------------------------------------

def test_criterion_3_shifted_poisson_closed_forms():
    for lam in (1.0, 5.0, 20.0):
        for k in (3, 5, 10):
            model = AisleModel(k, ShiftedPoisson(lam))
            e = math.exp(lam / k)
            closed_kplus = k - ((k - 1) * e - k + math.exp(-lam + lam / k)) / (k * (1 - e) ** 2)
            mean, _, _ = kplus_moments(model)
            assert mean == pytest.approx(closed_kplus, rel=1e-9)

            pmf, _, _ = occupancy_law(model)
            p = 1 - math.exp(-lam / k)
            for j in range(1, k + 1):
                closed_pmf = math.comb(k - 1, j - 1) * p ** (j - 1) * (1 - p) ** (k - j)
                assert pmf[j - 1] == pytest.approx(closed_pmf, rel=1e-9, abs=1e-15)

            closed_iodd = 0.5 * math.exp(-lam + lam / k) * (2 - e) ** (k - 1) + 0.5
            assert iodd_mean(model) == pytest.approx(closed_iodd, rel=1e-9)
    note("3", "PASS", "E[kplus], occupancy pmf, odd-count mean at 1e-9 relative")


# ---------------------------------------------------------------------------
# criterion 4: published picking-time differences (geom 32 / geom 31, k = 5)
# ---------------------------------------------------------------------------

DIFF_CASES = [
    ("table1", 32.0, "return", "midpoint", 43.15),
    ("table1", 32.0, "midpoint", "largest-gap", 7.84),
    ("table1", 32.0, "s-shaped", "largest-gap", 0.46),
    ("table2", 31.0, "return", "midpoint", 42.89),
    ("table2", 31.0, "midpoint", "largest-gap", 7.74),
    ("table2", 31.0, "s-shaped", "largest-gap", 0.82),
]

_travel_cache = {}


def travel_means(mean_order_size: float) -> dict:
    if mean_order_size not in _travel_cache:
        cfg = WarehouseConfig(5, 20.0, 2.5, V3KMH)
        pick = PickTimeModel(0.0, 0.0)
        dist = Geometric(1.0 / mean_order_size)
        _travel_cache[mean_order_size] = {
            h: compute_moments(cfg, dist, pick, h).e_t for h in HEURISTICS}
    return _travel_cache[mean_order_size]


@pytest.mark.parametrize("table,mean,hi,lo,published", DIFF_CASES,
                         ids=[f"{t}-{hi}-minus-{lo}" for t, _, hi, lo, _ in DIFF_CASES])
def test_criterion_4_published_differences(table, mean, hi, lo, published):
    ets = travel_means(mean)
    got = ets[hi] - ets[lo]
    rel = abs(got - published) / published
    line = f"{table} {hi}-{lo}: got {got:.4f} vs published {published} ({rel:.2%})"
    if rel > 0.02:
        note("4", "FAIL", line + "  [known infeasible: the reference table was computed "
             "at a rounded speed of 0.83 m/s and the 0.46 s entry is itself rounded "
             "beyond the 2% gate; every absolute table value is reproduced to 0.006 s "
             "in test_table_reproduction_with_rounded_speed — see README]")
    else:
        note("4", "PASS", line)
    assert rel <= 0.02, line


def test_table_reproduction_with_rounded_speed():
    """Supporting evidence: with v = 0.83 m/s and E[P] = 5 s the engine
    reproduces every published absolute value to the tables' 0.01 rounding."""
    published = {
        32.0: {"return": 352.53, "midpoint": 309.38, "largest-gap": 301.54, "s-shaped": 302.00},
        31.0: {"return": 346.20, "midpoint": 303.31, "largest-gap": 295.57, "s-shaped": 296.39},
    }
    cfg = WarehouseConfig(5, 20.0, 2.5, 0.83)
    for mean, row in published.items():
        dist = Geometric(1.0 / mean)
        for h, value in row.items():
            e_t = compute_moments(cfg, dist, PickTimeModel(0.0, 0.0), h).e_t + mean * 5.0
            assert e_t == pytest.approx(value, abs=0.006), (mean, h)


# ---------------------------------------------------------------------------
# criterion 5: largest-gap moment exactness for a single item
# ---------------------------------------------------------------------------

def test_criterion_5_gap_moment_exactness():
    mean_1md, second_1md, _ = gap_moments(AisleModel(1, Deterministic(1)))
    assert mean_1md == pytest.approx(0.25, abs=1e-8)
    e_d2 = second_1md - 1 + 2 * (1 - mean_1md)
    assert e_d2 == pytest.approx(7 / 12, abs=1e-8)
    note("5", "PASS", f"E[1-D|N=1]={mean_1md:.10f}, E[D^2|N=1]={e_d2:.10f}")


# ---------------------------------------------------------------------------
# criterion 6: queueing reductions
# ---------------------------------------------------------------------------

def test_criterion_6_queueing_reduction():
    assert erlang_c_wait_prob(2, 0.5) == pytest.approx(1 / 3, abs=1e-12)
    rng = np.random.default_rng(606)
    for _ in range(20):
        rho = float(rng.uniform(0.02, 0.98))
        scv = float(rng.uniform(0.0, 4.0))
        e_t = float(rng.uniform(1.0, 500.0))
        var = scv * e_t * e_t
        report = MomentReport(e_t, var + e_t * e_t, var, math.sqrt(var), 0.0, 0.0)
        lam = rho / e_t
        lead = lead_time_estimate(report, QueueScenario(1, lam))
        pk = e_t + lam * report.e_t2 / (2 * (1 - rho))
        assert lead.e_r == pytest.approx(pk, rel=1e-12)
    note("6", "PASS", "M/G/1 Pollaczek-Khinchine reduction at 1e-12 relative")


# ---------------------------------------------------------------------------
# criterion 7: layout structure under the published layout-table demand shape
# ---------------------------------------------------------------------------

def test_criterion_7_layout_structure():
    dist = Geometric(1.0 / 18.0)
    ks = range(2, 25)
    rows0 = layout_sweep(100.0, ks, 2.5, V3KMH, dist, PickTimeModel(0.0, 0.0))
    rows7 = layout_sweep(100.0, ks, 2.5, V3KMH, dist, PickTimeModel(7.0, 49.0 * 1.5))
    et0 = {h: {r.k: r.cells[h].e_t for r in rows0} for h in HEURISTICS}
    et7 = {h: {r.k: r.cells[h].e_t for r in rows7} for h in HEURISTICS}
    for h in HEURISTICS:
        for k in et0[h]:
            d0 = et0[h][k] - et0[h][2]
            d7 = et7[h][k] - et7[h][2]
            assert abs(d0 - d7) < 1e-9, (h, k)

    published = 209.76 - 216.19
    got = et0["largest-gap"][8] - et0["largest-gap"][2]
    assert abs(got - published) / abs(published) < 0.02, got
    assert et0["s-shaped"][4] < et0["s-shaped"][3]
    assert et0["s-shaped"][4] < et0["s-shaped"][5]
    note("7", "PASS", f"pick-time-invariant differences; largest-gap ET(8)-ET(2)={got:.3f} "
         f"vs published {published:.2f}; s-shaped prefers even k")


# ---------------------------------------------------------------------------
# criterion 8: pathwise dominance of largest-gap over midpoint
# ---------------------------------------------------------------------------

def test_criterion_8_pathwise_dominance():
    cfg = WarehouseConfig(5, 20.0, 2.5, V3KMH)
    times = route_times_batch(cfg, Geometric(1.0 / 16.0), PickTimeModel.from_scv(5.0, 1.0),
                              100_000, seed=808)
    gap = times["largest-gap"]
    mid = times["midpoint"]
    assert gap.shape == (100_000,)
    assert np.all(gap <= mid + 1e-9)
    note("8", "PASS", f"largest-gap <= midpoint on all 100000 sampled orders "
         f"(max excess {float(np.max(gap - mid)):.2e})")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical validation runs
# ---------------------------------------------------------------------------

def test_criterion_9_validate_determinism(tmp_path):
    args = ["validate", "--k", "3", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
            "--dist", "geom:4", "--pick-mean", "5", "--pick-scv", "1",
            "--samples", "10000", "--seed", "99"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    note("9", "PASS", "identical seed twice -> byte-identical validate CSV")


# ---------------------------------------------------------------------------
# supporting: the validate harness covers heuristics x built-in distributions
# at k in {1, 2, 3, 5} in under five minutes at n = 1e5
# ---------------------------------------------------------------------------

def test_validate_grid_under_time_budget(tmp_path):
    start = time.time()
    for spec in ("det:3", "spois:4", "geom:8", "snbin:3:9"):
        for k in (1, 2, 3, 5):
            out = tmp_path / f"{spec.replace(':', '_')}_{k}.csv"
            status = cli_main(["validate", "--k", str(k), "--l", "20", "--wa", "2.5",
                               "--v", "3 km/h", "--dist", spec, "--pick-mean", "5",
                               "--pick-scv", "1", "--samples", "100000",
                               "--seed", "17", "--out", str(out)])
            assert status == 0, (spec, k)
    elapsed = time.time() - start
    assert elapsed < 300.0
    note("validate-grid", "PASS", f"16 cells at n=1e5 in {elapsed:.1f}s")
