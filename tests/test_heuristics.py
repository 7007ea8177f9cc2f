import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickroute import (
    Deterministic,
    Geometric,
    HEURISTICS,
    PickTimeModel,
    QueueScenario,
    ShiftedNegBinomial,
    ShiftedPoisson,
    WarehouseConfig,
    compute_moments,
    erlang_c_wait_prob,
    heuristics,
    layout_sweep,
    parse_dist_spec,
    prelim,
    run_replications_all,
)
from pickroute.prelim import AisleModel, kplus_moments

from oracles import enum_moment_report, occupancy_blocks_mp, sshaped_det_moments, sshaped_sums_mp

STANDARD = WarehouseConfig(5, 20.0, 2.5, 3000.0 / 3600.0)


def test_return_trivial_examples():
    cfg = WarehouseConfig(1, 20.0, 0.0, 1.0)
    rep = compute_moments(cfg, Deterministic(1), PickTimeModel(10.0, 100.0), "return")
    assert rep.e_t == pytest.approx(30.0, abs=1e-9)
    assert rep.e_t2 == pytest.approx(100 + 400 + 1600 / 3, abs=1e-6)


def test_midpoint_single_aisle_convention():
    cfg = WarehouseConfig(1, 20.0, 1.0, 1.0)
    for dist in (Deterministic(3), Geometric(1 / 4)):
        rep = compute_moments(cfg, dist, PickTimeModel(2.0, 6.0), "midpoint")
        assert rep.e_t == pytest.approx(dist.mean() * 2.0 + 40.0, abs=1e-9)


def test_midpoint_empty_interior_example():
    cfg = WarehouseConfig(3, 20.0, 0.0, 1.0)
    rep = compute_moments(cfg, Deterministic(2), PickTimeModel(0.0, 0.0), "midpoint")
    assert rep.e_t == pytest.approx(40.0, abs=1e-9)


def test_largest_gap_small_k_matches_midpoint():
    for k in (1, 2):
        cfg = WarehouseConfig(k, 15.0, 2.0, 1.2)
        for dist in (Deterministic(3), Geometric(1 / 6), ShiftedPoisson(2.5)):
            pick = PickTimeModel.from_scv(4.0, 0.8)
            mid = compute_moments(cfg, dist, pick, "midpoint")
            gap = compute_moments(cfg, dist, pick, "largest-gap")
            assert gap.e_t == pytest.approx(mid.e_t, rel=1e-12)
            assert gap.e_t2 == pytest.approx(mid.e_t2, rel=1e-12)


def test_sshaped_trivial_examples():
    cfg = WarehouseConfig(1, 20.0, 0.0, 1.0)
    rep = compute_moments(cfg, Deterministic(1), PickTimeModel(0.0, 0.0), "s-shaped")
    assert rep.e_t == pytest.approx(20.0, abs=1e-9)
    cfg = WarehouseConfig(2, 20.0, 0.0, 1.0)
    rep = compute_moments(cfg, Deterministic(2), PickTimeModel(0.0, 0.0), "s-shaped")
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


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 5), m=st.integers(1, 4),
       l=st.floats(1.0, 50.0), wa=st.floats(0.0, 5.0), v=st.floats(0.5, 2.0),
       ep=st.floats(0.0, 10.0), scv=st.floats(0.0, 2.0))
def test_sshaped_matches_enumeration_property(k, m, l, wa, v, ep, scv):
    pick = PickTimeModel.from_scv(ep, scv)
    rep = compute_moments(WarehouseConfig(k, l, wa, v), Deterministic(m), pick, "s-shaped")
    e_t, e_t2 = enum_moment_report(k, m, l, wa, v, pick.mean, pick.second_moment)["s-shaped"]
    assert rep.e_t == pytest.approx(e_t, rel=1e-12)
    assert rep.e_t2 == pytest.approx(e_t2, rel=1e-12)


LARGE_K_CFG = dict(l=20.0, wa=2.5, v=3000.0 / 3600.0)
LARGE_K_PICK = PickTimeModel.from_scv(5.0, 1.0)


def _fields(rep):
    return (rep.e_t, rep.e_t2, rep.var_t, rep.sd_t, rep.e_tw, rep.e_ttr)


@pytest.mark.parametrize("k", [96, 128, 256, 512, 2048])
def test_sshaped_finite_at_large_k(k):
    # past k ~ 1,030 C(k, j) overflows a double: S-shaped raised OverflowError
    # while its occupancy table was weighted by binomials
    cfg = WarehouseConfig(k, **LARGE_K_CFG)
    for spec in ("det:3", "spois:4", "geom:8", "geom:18", "geom:40", "snbin:3:9", "snbin:3:40"):
        rep = compute_moments(cfg, parse_dist_spec(spec), LARGE_K_PICK, "s-shaped")
        assert all(math.isfinite(x) for x in _fields(rep)), spec
        assert 0.0 < rep.sd_t < rep.e_t, spec


@pytest.mark.parametrize("spec", ["geom:40", "spois:4", "det:3"])
def test_sshaped_matches_high_precision_oracle_at_k256(spec, monkeypatch):
    cfg, dist = WarehouseConfig(256, **LARGE_K_CFG), parse_dist_spec(spec)
    got = compute_moments(cfg, dist, LARGE_K_PICK, "s-shaped")
    for name, value in occupancy_blocks_mp(AisleModel(256, dist)).items():
        monkeypatch.setattr(prelim, name, lambda model, value=value: value)
    want = compute_moments(cfg, dist, LARGE_K_PICK, "s-shaped")
    assert _fields(got) == pytest.approx(_fields(want), rel=1e-10)


@pytest.mark.parametrize("spec", ["spois:4", "snbin:3:9"])
def test_sshaped_sums_match_high_precision_oracle_at_k128(spec):
    # the PGF closed forms for E[I^2] and the like lost up to 1.3e-13 of
    # E[X^2] here; the sums over the table lose nothing that cancels
    model = AisleModel(128, parse_dist_spec(spec))
    got = heuristics._sshaped_sums(model)
    assert got == pytest.approx(sshaped_sums_mp(model), rel=1e-14, abs=0.0)


def test_sshaped_reads_only_the_occupancy_table():
    # once the table and the PGF lattice of kplus are built, S-shaped's sums
    # and the occupancy law evaluate neither the PGF nor its derivative
    calls = []

    class CountedPoisson(ShiftedPoisson):
        def pgf(self, x):
            calls.append("pgf")
            return super().pgf(x)

        def pgf_prime(self, x):
            calls.append("pgf_prime")
            return super().pgf_prime(x)

    for k in (1, 2, 7, 64):
        model = AisleModel(k, CountedPoisson(3.0))
        prelim._occupancy(model)
        prelim._pgf_lattice(model)
        calls.clear()
        heuristics._sshaped_sums(model)
        prelim.occupancy_law(model)
        assert calls == [], k
        compute_moments(WarehouseConfig(k, 20.0, 2.5, 1.0), model.dist, PickTimeModel(5.0, 50.0), "s-shaped")
        assert calls == [], k


def test_sshaped_det3_at_k512_regression():
    # the alternating sums returned SD_T = 5.9e29 here, with no error
    l, wa, v = (Fraction(x) for x in LARGE_K_CFG.values())
    ep, ep2 = Fraction(LARGE_K_PICK.mean), Fraction(LARGE_K_PICK.second_moment)
    for k in (1, 2, 3, 5):   # the oracle itself against full enumeration
        assert sshaped_det_moments(k, 3, l, wa, v, ep, ep2) == pytest.approx(
            enum_moment_report(k, 3, l, wa, v, ep, ep2)["s-shaped"], rel=1e-14, abs=0)
    for k in (512, 2048):   # and past the overflow of C(k, j) near k = 1,030
        rep = compute_moments(WarehouseConfig(k, **LARGE_K_CFG), Deterministic(3), LARGE_K_PICK, "s-shaped")
        e_t, e_t2 = sshaped_det_moments(k, 3, l, wa, v, ep, ep2)
        assert rep.e_t == pytest.approx(e_t, rel=1e-12), k
        assert rep.e_t2 == pytest.approx(e_t2, rel=1e-12), k
        assert rep.sd_t == pytest.approx(math.sqrt(e_t2 - e_t * e_t), rel=1e-8), k


@pytest.mark.parametrize("spec,e_t,e_t2", [
    ("geom:1e6", 5122473.13673563, 51243742991244.78),
    ("spois:1e5", 622873.999999799, 387977019850.7495),
    ("snbin:50:1e4", 163818.24172374082, 26937912522.365673),
])
def test_sshaped_at_k4096(spec, e_t, e_t2):
    # computed once from the occupancy table at full width, without a floor
    # (60-75 s for the three on one thread); the banded table takes about 2 s
    rep = compute_moments(WarehouseConfig(4096, **LARGE_K_CFG), parse_dist_spec(spec), LARGE_K_PICK, "s-shaped")
    assert (rep.e_t, rep.e_t2) == pytest.approx((e_t, e_t2), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("spec", ["geom:18", "spois:4", "snbin:3:40", "det:3", "geom:40"])
def test_sshaped_monte_carlo_at_k2048(spec):
    cfg, dist = WarehouseConfig(2048, **LARGE_K_CFG), parse_dist_spec(spec)
    est = run_replications_all(cfg, dist, LARGE_K_PICK, 200_000, seed=2048)["s-shaped"]
    rep = compute_moments(cfg, dist, LARGE_K_PICK, "s-shaped")
    assert abs(rep.e_t - est.mean_t) <= 4 * est.se_mean
    assert abs(rep.e_t2 - est.mean_t2) <= 4 * est.se_t2


def test_report_invariants():
    for dist in (Geometric(1 / 8), ShiftedPoisson(3.0)):
        for h in HEURISTICS:
            rep = compute_moments(STANDARD, dist, PickTimeModel.from_scv(5.0, 1.0), h)
            assert rep.var_t >= 0
            assert rep.sd_t == pytest.approx(math.sqrt(rep.var_t))
            assert rep.e_t2 == pytest.approx(rep.var_t + rep.e_t ** 2, rel=1e-12)
            assert 0 <= rep.e_tw <= rep.e_ttr <= rep.e_t + 1e-12


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_terms_share_names_across_heuristics(heuristic):
    # one assembly for all four: E[T^2] rows line up term by term
    shared = ["pick2", "within2", "pick_within", "within_cross", "cross2", "pick_cross"]
    traverse = ["traverse2", "traverse_rest"] if heuristic in ("midpoint", "largest-gap") else []
    rep = compute_moments(STANDARD, Geometric(1 / 8), PickTimeModel.from_scv(5.0, 1.0), heuristic)
    assert list(rep.terms) == shared + traverse
    assert math.fsum(rep.terms.values()) == rep.e_t2


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
            mid = compute_moments(cfg, dist, pick, "midpoint")
            gap = compute_moments(cfg, dist, pick, "largest-gap")
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
    rep = compute_moments(cfg, Deterministic(1), PickTimeModel(0.0, 0.0), "return")
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


@pytest.mark.parametrize("k", [3, 8])
def test_largest_gap_with_steep_pgf(k):
    # geom:1e9 climbs within k/1e9 of x = 1; an adaptive rule without the decade
    # panels raised a spurious IntegrationError here
    cfg = WarehouseConfig(k, 20.0, 2.5, 1.0)
    rep = compute_moments(cfg, parse_dist_spec("geom:1e9"), PickTimeModel.from_scv(5.0, 1.0), "largest-gap")
    assert math.isfinite(rep.e_t) and math.isfinite(rep.var_t)
    assert rep.var_t >= 0.0


def test_pgf_table_built_once_per_model():
    # return and largest gap read the model's table and midpoint the table of
    # its half-aisle model, the one with 2k aisles; a layout cell runs them in
    # that order, and the model's table outlives midpoint's, so one model
    # builds two tables, not three
    cfg, pick = WarehouseConfig(12, 20.0, 2.5, 1.0), PickTimeModel.from_scv(5.0, 1.0)
    dist = parse_dist_spec("geom:17.25")   # a model no other test builds
    before = prelim._pgf_table.cache_info().misses
    for heuristic in ("return", "midpoint", "largest-gap"):
        compute_moments(cfg, dist, pick, heuristic)
    assert prelim._pgf_table.cache_info().misses - before == 2


def test_negative_variance_guard(monkeypatch, capsys):
    # with no pick time and no cross-aisle walk, T = (2l/v) X: a variance of X
    # a hair below 0 is rounding and reads 0, one far below it fails
    from pickroute.cli import EXIT_CONFIG, main

    cfg, dist, pick = WarehouseConfig(5, 20.0, 0.0, 1.0), Geometric(1 / 8), PickTimeModel(0.0, 0.0)
    ex, _, ekx, emx = heuristics._return_sums(AisleModel(5, dist))

    def shrink_second_moment(by):
        monkeypatch.setattr(heuristics, "_return_sums", lambda model: (ex, ex * ex * (1 - by), ekx, emx))

    shrink_second_moment(1e-12)
    rep = compute_moments(cfg, dist, pick, "return")
    assert rep.e_t2 < rep.e_t ** 2
    assert (rep.var_t, rep.sd_t) == (0.0, 0.0)
    assert (rep.e_t, rep.e_t2) == pytest.approx((40 * ex, 1600 * ex * ex * (1 - 1e-12)), rel=1e-15, abs=0)

    shrink_second_moment(0.5)
    with pytest.raises(ArithmeticError, match="return: negative variance .* beyond tolerance"):
        compute_moments(cfg, dist, pick, "return")
    status = main(["moments", "--k", "5", "--l", "20", "--wa", "0", "--v", "1 m/s",
                   "--dist", "geom:8", "--heuristic", "return"])
    assert status == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: numerical failure: return: negative variance")


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_overflowing_report_is_refused(heuristic):
    # l = 1e200 m: E[T^2] overflows to inf and Var_T = inf - inf is NaN, which
    # the negative-variance guard let through
    cfg = WarehouseConfig(3, 1e200, 2.5, 0.8)
    with pytest.raises(ArithmeticError, match=rf"^{heuristic}: E\[T\^2\] and Var\(T\) must be finite, got inf and nan$"):
        compute_moments(cfg, Deterministic(3), PickTimeModel(0.0, 0.0), heuristic)


@pytest.mark.parametrize("spec", ["det:3", "geom:3", "spois:4", "snbin:3:9"])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_one_aisle_report_does_not_depend_on_wa(heuristic, spec):
    # a one-aisle route crosses no aisle; wa = 1e200 was refused as NaN,
    # from an overflowing wa^2 times the exact 0 of its cross-aisle factor
    dist, pick = parse_dist_spec(spec), PickTimeModel(5.0, 30.0)
    ref = compute_moments(WarehouseConfig(1, 20.0, 0.0, 1.0), dist, pick, heuristic)
    for wa in (2.5, 1e200):
        rep = compute_moments(WarehouseConfig(1, 20.0, wa, 1.0), dist, pick, heuristic)
        assert (rep.e_t, rep.e_t2, rep.var_t, rep.sd_t, rep.e_tw, rep.e_ttr) == \
            (ref.e_t, ref.e_t2, ref.var_t, ref.sd_t, ref.e_tw, ref.e_ttr)
        assert rep.terms == ref.terms


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
    lambda n: WarehouseConfig(n, 20.0, 2.5, 1.0).k,
    lambda n: AisleModel(n, Deterministic(2)).k,
    lambda n: QueueScenario(n, 0.01).c,
    lambda n: erlang_c_wait_prob(n, 0.5),
    lambda n: Deterministic(n).m,
    lambda n: ShiftedNegBinomial(n, 0.5).r,
    lambda n: layout_sweep(100.0, [n], 2.5, 1.0, Deterministic(2), PickTimeModel(0.0, 0.0),
                           heuristics=("return",))[0].k,
], ids=["warehouse-k", "aisle-model-k", "scenario-c", "erlang-c", "det-m", "snbin-r", "layout-k"])
def test_integer_fields_take_any_integral_value_but_bool(build):
    # one rule for every count: numpy integers are stored as int, bools and
    # integral floats are refused
    want = build(5)
    for value in (np.int64(5), np.uint8(5)):
        got = build(value)
        assert got == want and type(got) is type(want)
    for bad in (True, np.bool_(True), 5.0, 0, np.int64(0), "5"):
        with pytest.raises(ValueError, match=r"must be an integer >= 1, got"):
            build(bad)


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


@pytest.mark.parametrize("build,message", [
    (lambda: WarehouseConfig(5, -1.0, 2.5, 1.0), "aisle length must be finite and positive, got -1.0"),
    (lambda: WarehouseConfig(5, 20.0, -2.5, 1.0), "aisle spacing must be finite and >= 0, got -2.5"),
    (lambda: WarehouseConfig(5, 20.0, 2.5, 0.0), "walking speed must be finite and positive, got 0.0"),
    (lambda: PickTimeModel(math.nan, 1.0), "pick-time mean must be finite and >= 0, got nan"),
    (lambda: PickTimeModel.from_scv(2.0, -0.5),
     "squared coefficient of variation must be finite and >= 0, got -0.5"),
    (lambda: QueueScenario(5, 0.0), "arrival rate must be finite and positive, got 0.0"),
    (lambda: erlang_c_wait_prob(5, -0.1), "utilization must be finite and >= 0, got -0.1"),
    (lambda: layout_sweep(math.inf, [2], 2.5, 1.0, Deterministic(2), PickTimeModel(0.0, 0.0)),
     "total aisle length must be finite and positive, got inf"),
    (lambda: ShiftedPoisson(-1.0), "shifted-Poisson rate must be finite and >= 0, got -1.0"),
], ids=["l", "wa", "v", "pick-mean", "scv", "arrival-rate", "utilization", "total-length", "spois-rate"])
def test_real_parameter_messages(build, message):
    # one rule for every real parameter: finite, and > 0 or >= 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("mean", [128.468, 8366.378111848124, 2.759])
def test_deterministic_pick_time_has_zero_scv(mean):
    # mean ** 2 is one ulp off mean * mean for these: the first two were
    # refused, the last had an scv of 2.2e-16
    assert PickTimeModel.from_scv(mean, 0.0).scv == 0.0


def test_overflowing_pick_second_moment_is_a_value_error():
    with pytest.raises(ValueError, match="second moment"):
        PickTimeModel(1e155, 1e300)


@pytest.mark.parametrize("v", [1e155, 1e300])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_huge_speed_leaves_pick_time_only(heuristic, v):
    # v ** 2 overflowed; the walking terms round to 0 instead
    rep = compute_moments(WarehouseConfig(3, 20.0, 2.5, v), Geometric(1 / 3),
                          PickTimeModel.from_scv(5.0, 1.0), heuristic)
    assert rep.e_t == 15.0
    assert all(math.isfinite(x) for x in (rep.e_t2, rep.var_t, rep.sd_t, rep.e_tw, rep.e_ttr))
