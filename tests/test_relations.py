"""Exact relations between reports: they need no oracle, so they check the
numbers wherever the reports run.

Each relation holds in exact arithmetic.  In floating point the two sides may
differ by roundings of their own, so every check is relative, with a
tolerance a few times the largest difference measured (pick mean 5 s, SCV 1):
E_T and E_T2 agree within 1e-15.  Var_T = E_T2 - E_T^2 carries E_T2's
rounding, so it is also allowed 1e-15 of E_T2, and where its own relative
difference was measured, a few times that.
"""
import pytest

from pickroute import HEURISTICS, PickTimeModel, WarehouseConfig, compute_moments, parse_dist_spec

L, WA, V = 20.0, 2.5, 3.0 * (1000.0 / 3600.0)   # 20 m, 2.5 m, 3 km/h
PICK_MEAN, PICK_SCV = 5.0, 1.0
TOL = 1e-15
LAWS = ["det:3", "geom:32", "spois:1e5", "snbin:3:9"]


def report(k: int, spec: str, heuristic: str, scale: float = 1.0, wa: float = WA, v: float = V,
           pick_mean: float = PICK_MEAN):
    """The report with the aisle length, the aisle spacing and the pick mean
    all multiplied by ``scale``."""
    cfg = WarehouseConfig(k, scale * L, scale * wa, v)
    pick = PickTimeModel.from_scv(scale * pick_mean, PICK_SCV)
    return compute_moments(cfg, parse_dist_spec(spec), pick, heuristic)


def assert_agree(got, e_t: float, e_t2: float, var_t: float, var_rel: float = 0.0):
    assert got.e_t == pytest.approx(e_t, rel=TOL, abs=0)
    assert got.e_t2 == pytest.approx(e_t2, rel=TOL, abs=0)
    assert got.var_t == pytest.approx(var_t, rel=var_rel, abs=TOL * e_t2)


@pytest.mark.parametrize("spec", LAWS)
def test_one_aisle_return_is_sshaped(spec):
    # k = 1: both walk into the one aisle to its furthest item and back
    want = report(1, spec, "return")
    assert_agree(report(1, spec, "s-shaped"), want.e_t, want.e_t2, want.var_t)


@pytest.mark.parametrize("spec", LAWS)
def test_two_aisles_midpoint_is_largest_gap(spec):
    # k = 2: no interior aisle; both traverse the two occupied aisles
    want = report(2, spec, "midpoint")
    assert_agree(report(2, spec, "largest-gap"), want.e_t, want.e_t2, want.var_t)


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("k", [1, 2, 5, 24, 200])
def test_one_item_laws_agree(k, heuristic):
    # every order is one item under each of these laws
    want = report(k, "det:1", heuristic)
    for spec in ("geom:1", "spois:1", "snbin:1:1"):
        assert_agree(report(k, spec, heuristic), want.e_t, want.e_t2, want.var_t)


@pytest.mark.parametrize("k", [1, 2, 5, 24])
@pytest.mark.parametrize("mean", ["1.5", "2.5", "18", "32"])
def test_one_success_negative_binomial_is_geometric(mean, k):
    # measured: Var_T up to 2.2e-15 apart (mean 2.5, k = 24)
    for h in HEURISTICS:
        want = report(k, f"geom:{mean}", h)
        assert_agree(report(k, f"snbin:1:{mean}", h), want.e_t, want.e_t2, want.var_t, var_rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 7, 24])
@pytest.mark.parametrize("spec", ["det:3", "geom:32", "snbin:3:9"])
def test_lengths_and_pick_mean_times_3_scale_the_moments(spec, k):
    # T is a sum of lengths over v and pick times, so T scales by 3; measured:
    # E_T within 3.5e-16 of 3 E_T and Var_T within 1.2e-14 of 9 Var_T
    for h in HEURISTICS:
        base = report(k, spec, h)
        assert_agree(report(k, spec, h, scale=3.0), 3 * base.e_t, 9 * base.e_t2, 9 * base.var_t,
                     var_rel=5e-14)


@pytest.mark.parametrize("k", [1, 2, 7, 24])
@pytest.mark.parametrize("spec", LAWS)
def test_no_aisle_spacing_leaves_all_travel_within_aisles(spec, k):
    # wa = 0: the cross-aisle walk adds an exact 0, so E_TTr is E_TW bit for bit
    for h in HEURISTICS:
        rep = report(k, spec, h, wa=0.0)
        assert rep.e_ttr == rep.e_tw, h


@pytest.mark.parametrize("k", [1, 2, 7, 24])
@pytest.mark.parametrize("spec", LAWS)
def test_a_third_of_the_speed_scales_the_travel_moments(spec, k):
    # with no pick time T is a sum of lengths over v, so T scales by 3;
    # measured: E_T, E_TW and E_T2 within 2.2e-16 of 3 E_T, 3 E_TW and 9 E_T2,
    # and Var_T within 4.3e-16 E_T2 of 9 Var_T
    for h in HEURISTICS:
        base = report(k, spec, h, pick_mean=0.0)
        slow = report(k, spec, h, v=V / 3, pick_mean=0.0)
        assert_agree(slow, 3 * base.e_t, 9 * base.e_t2, 9 * base.var_t)
        assert slow.e_tw == pytest.approx(3 * base.e_tw, rel=TOL, abs=0)
