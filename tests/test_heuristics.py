import math

import pytest

from pickroute import (
    Deterministic,
    Geometric,
    HEURISTICS,
    PickTimeModel,
    ShiftedPoisson,
    WarehouseConfig,
    compute_moments,
    largest_gap_moments,
    midpoint_moments,
    return_moments,
    run_replications_all,
    sshaped_moments,
)
from pickroute.prelim import AisleModel, kplus_moments

from oracles import enum_moment_report

STANDARD = WarehouseConfig(5, 20.0, 2.5, 3000.0 / 3600.0)


def test_return_trivial_examples():
    cfg = WarehouseConfig(1, 20.0, 0.0, 1.0)
    rep = return_moments(cfg, Deterministic(1), PickTimeModel(10.0, 100.0))
    assert rep.e_t == pytest.approx(30.0, abs=1e-9)
    assert rep.e_t2 == pytest.approx(100 + 400 + 1600 / 3, abs=1e-6)


def test_midpoint_single_aisle_convention():
    cfg = WarehouseConfig(1, 20.0, 1.0, 1.0)
    for dist in (Deterministic(3), Geometric(1 / 4)):
        rep = midpoint_moments(cfg, dist, PickTimeModel(2.0, 6.0))
        assert rep.e_t == pytest.approx(dist.mean() * 2.0 + 40.0, abs=1e-9)


def test_midpoint_empty_interior_example():
    cfg = WarehouseConfig(3, 20.0, 0.0, 1.0)
    rep = midpoint_moments(cfg, Deterministic(2), PickTimeModel(0.0, 0.0))
    assert rep.e_t == pytest.approx(40.0, abs=1e-9)


def test_largest_gap_small_k_matches_midpoint():
    for k in (1, 2):
        cfg = WarehouseConfig(k, 15.0, 2.0, 1.2)
        for dist in (Deterministic(3), Geometric(1 / 6), ShiftedPoisson(2.5)):
            pick = PickTimeModel.from_scv(4.0, 0.8)
            mid = midpoint_moments(cfg, dist, pick)
            gap = largest_gap_moments(cfg, dist, pick)
            assert gap.e_t == pytest.approx(mid.e_t, rel=1e-12)
            assert gap.e_t2 == pytest.approx(mid.e_t2, rel=1e-12)


def test_sshaped_trivial_examples():
    cfg = WarehouseConfig(1, 20.0, 0.0, 1.0)
    rep = sshaped_moments(cfg, Deterministic(1), PickTimeModel(0.0, 0.0))
    assert rep.e_t == pytest.approx(20.0, abs=1e-9)
    cfg = WarehouseConfig(2, 20.0, 0.0, 1.0)
    rep = sshaped_moments(cfg, Deterministic(2), PickTimeModel(0.0, 0.0))
    assert rep.e_t == pytest.approx(0.5 * 40 * 2 / 3 + 0.5 * 40, abs=1e-9)


@pytest.mark.parametrize("k,m", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4)])
def test_reports_match_exhaustive_enumeration(k, m):
    cfg = WarehouseConfig(k, 20.0, 2.5, 1.25)
    pick = PickTimeModel.from_scv(7.0, 0.5)
    oracle = enum_moment_report(k, m, 20, 2.5, 1.25, 7.0, 7.0 ** 2 * 1.5)
    for h in HEURISTICS:
        rep = compute_moments(cfg, Deterministic(m), pick, h)
        e_t, e_t2 = oracle[h]
        assert rep.e_t == pytest.approx(e_t, rel=1e-11), h
        assert rep.e_t2 == pytest.approx(e_t2, rel=1e-10), h


def test_report_invariants():
    for dist in (Geometric(1 / 8), ShiftedPoisson(3.0)):
        for h in HEURISTICS:
            rep = compute_moments(STANDARD, dist, PickTimeModel.from_scv(5.0, 1.0), h)
            assert rep.var_t >= 0
            assert rep.sd_t == pytest.approx(math.sqrt(rep.var_t))
            assert rep.e_t2 == pytest.approx(rep.var_t + rep.e_t ** 2, rel=1e-12)
            assert 0 <= rep.e_tw <= rep.e_ttr <= rep.e_t + 1e-12


def test_pick_time_separability():
    # travel terms are unchanged when the pick time is removed
    for h in HEURISTICS:
        with_pick = compute_moments(STANDARD, Geometric(1 / 8), PickTimeModel.from_scv(5.0, 1.0), h)
        no_pick = compute_moments(STANDARD, Geometric(1 / 8), PickTimeModel(0.0, 0.0), h)
        assert no_pick.e_tw == pytest.approx(with_pick.e_tw, rel=1e-12)
        assert no_pick.e_ttr == pytest.approx(with_pick.e_ttr, rel=1e-12)
        assert no_pick.e_t == pytest.approx(with_pick.e_t - 8 * 5.0, rel=1e-12)


def test_largest_gap_beats_midpoint_mean():
    for dist in (Deterministic(6), Geometric(1 / 8), ShiftedPoisson(7.0)):
        for k in (3, 5, 8):
            cfg = WarehouseConfig(k, 20.0, 2.5, 5 / 6)
            pick = PickTimeModel(0.0, 0.0)
            mid = midpoint_moments(cfg, dist, pick)
            gap = largest_gap_moments(cfg, dist, pick)
            assert gap.e_t <= mid.e_t + 1e-12


def test_return_is_worst_within_aisle():
    pick = PickTimeModel(0.0, 0.0)
    reps = {h: compute_moments(STANDARD, Geometric(1 / 32), pick, h) for h in HEURISTICS}
    assert reps["return"].e_tw > reps["largest-gap"].e_tw
    assert reps["return"].e_tw > reps["midpoint"].e_tw


def test_geometric_vs_poisson_tradeoff():
    # equal means: geometric travels less on average but with a larger spread
    pick = PickTimeModel(0.0, 0.0)
    for mean in (16.0, 32.0):
        for h in HEURISTICS:
            geom = compute_moments(STANDARD, Geometric(1 / mean), pick, h)
            pois = compute_moments(STANDARD, ShiftedPoisson(mean - 1), pick, h)
            assert geom.e_ttr < pois.e_ttr
            assert geom.sd_t > pois.sd_t


def test_travel_decomposition():
    dist = Geometric(1 / 8)
    pick = PickTimeModel.from_scv(5.0, 1.0)
    kp_mean, _, _ = kplus_moments(AisleModel(STANDARD.k, dist))
    for h in HEURISTICS:
        rep = compute_moments(STANDARD, dist, pick, h)
        assert rep.e_t - rep.e_ttr == pytest.approx(dist.mean() * pick.mean, rel=1e-12)
        cross_aisle = (2 * STANDARD.wa / STANDARD.v) * (kp_mean - 1)
        assert rep.e_ttr - rep.e_tw == pytest.approx(cross_aisle, rel=1e-12)
    cfg = WarehouseConfig(1, 20.0, 2.5, 1.0)
    rep = return_moments(cfg, Deterministic(1), PickTimeModel(0.0, 0.0))
    assert rep.e_tw == pytest.approx(20.0, abs=1e-9)
    assert rep.e_ttr == pytest.approx(20.0, abs=1e-9)


def test_moderate_monte_carlo_agreement():
    # a fast smoke version of the full oracle-equivalence acceptance criterion
    cfg = WarehouseConfig(3, 20.0, 2.5, 5 / 6)
    pick = PickTimeModel.from_scv(10.0, 1.0)
    dist = Geometric(1 / 4)
    estimates = run_replications_all(cfg, dist, pick, 150_000, seed=11)
    for h in HEURISTICS:
        rep = compute_moments(cfg, dist, pick, h)
        est = estimates[h]
        assert abs(rep.e_t - est.mean_t) < 4 * est.se_mean, h
        assert abs(rep.e_t2 - est.mean_t2) < 4 * est.se_t2, h


def test_unknown_heuristic_rejected():
    with pytest.raises(ValueError):
        compute_moments(STANDARD, Deterministic(2), PickTimeModel(0.0, 0.0), "optimal")


def test_pick_time_model_validation():
    with pytest.raises(ValueError):
        PickTimeModel(-1.0, 1.0)
    with pytest.raises(ValueError):
        PickTimeModel(2.0, 1.0)  # variance would be negative
    with pytest.raises(ValueError):
        PickTimeModel.from_scv(2.0, -0.5)
    assert PickTimeModel.from_scv(2.0, 0.25).second_moment == pytest.approx(5.0)
    assert PickTimeModel.from_scv(2.0, 0.25).scv == pytest.approx(0.25)


def test_warehouse_config_validation():
    with pytest.raises(ValueError):
        WarehouseConfig(0, 20.0, 2.5, 1.0)
    with pytest.raises(ValueError):
        WarehouseConfig(5, -1.0, 2.5, 1.0)
    with pytest.raises(ValueError):
        WarehouseConfig(5, 20.0, -2.5, 1.0)
    with pytest.raises(ValueError):
        WarehouseConfig(5, 20.0, 2.5, 0.0)


@pytest.mark.parametrize("build", [
    lambda: PickTimeModel(math.nan, 1.0),
    lambda: PickTimeModel(5.0, math.inf),
    lambda: PickTimeModel.from_scv(5.0, math.nan),
    lambda: WarehouseConfig(5, math.inf, 2.5, 1.0),
    lambda: WarehouseConfig(5, 20.0, math.inf, 1.0),
    lambda: WarehouseConfig(5, 20.0, 2.5, math.nan),
    lambda: ShiftedPoisson(math.inf),
    lambda: ShiftedPoisson(math.nan),
], ids=["pick-mean-nan", "pick-second-inf", "scv-nan", "l-inf", "wa-inf", "v-nan", "spois-inf", "spois-nan"])
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()
