import math

import pytest

from pickroute.orderdist import Deterministic, Geometric, ShiftedPoisson
from pickroute import prelim
from pickroute.prelim import AisleModel

from oracles import enum_conditional, enum_discrete

SMALL_CASES = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3, 4)]


# ---------------------------------------------------------------------------
# discrete order statistics
# ---------------------------------------------------------------------------

def test_kplus_examples():
    mean, _, _ = prelim.kplus_moments(AisleModel(5, Deterministic(1)))
    assert mean == pytest.approx(3.0, abs=1e-12)
    mean, second, cross = prelim.kplus_moments(AisleModel(5, Deterministic(2)))
    assert mean == pytest.approx(3.8, abs=1e-12)
    assert second == pytest.approx(15.8, abs=1e-12)
    assert cross == pytest.approx(7.6, abs=1e-12)


def test_kplus_shifted_poisson_geometric_sum_closed_form():
    for lam in (1.0, 5.0, 20.0):
        for k in (3, 5, 10):
            mean, _, _ = prelim.kplus_moments(AisleModel(k, ShiftedPoisson(lam)))
            e = math.exp(lam / k)
            closed = k - ((k - 1) * e - k + math.exp(-lam + lam / k)) / (k * (1 - e) ** 2)
            assert mean == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("k,m", SMALL_CASES)
def test_kplus_matches_enumeration(k, m):
    oracle = enum_discrete(k, m)
    mean, second, cross = prelim.kplus_moments(AisleModel(k, Deterministic(m)))
    assert mean == pytest.approx(float(oracle["kp_mean"]), abs=1e-12)
    assert second == pytest.approx(float(oracle["kp_sec"]), abs=1e-12)
    assert cross == pytest.approx(float(oracle["m_kp"]), abs=1e-12)


def test_cond_aisle_pgf_marginalization():
    model = AisleModel(4, Geometric(1 / 3))
    P = model.dist.pgf
    for j in (1, 2, 3):
        expect = P(j / 4) - P((j - 1) / 4)
        assert prelim.cond_aisle_pgf(model, 1.0, 4, j) == pytest.approx(expect, abs=1e-12)
    assert prelim.cond_aisle_pgf(model, 0.0, 2, 2) == 0.0
    for i in (1, 2, 3, 4):
        total = sum(prelim.cond_aisle_pgf(model, 0.7, i, j) for j in range(1, 5))
        assert total == pytest.approx(P(1 - 1 / 4 + 0.7 / 4), abs=1e-12)


def test_cond_pair_pgf_event_probability():
    model = AisleModel(3, Deterministic(2))
    # exactly one item in aisle 1 and one in aisle 3, in either order
    assert prelim.cond_pair_pgf(model, 1.0, 1.0, 2, "full") == pytest.approx(2 / 9, abs=1e-14)
    assert prelim.cond_pair_pgf(model, 1.0, 1.0, 2, "half") == pytest.approx(2 / 9, abs=1e-14)
    assert prelim.pair_event_prob(model, 2) == pytest.approx(2 / 9, abs=1e-14)


def test_cond_pair_pgf_half_full_agree_at_one():
    model = AisleModel(6, Geometric(1 / 5))
    for d in (2, 3, 4, 5):
        half = prelim.cond_pair_pgf(model, 1.0, 1.0, d, "half")
        full = prelim.cond_pair_pgf(model, 1.0, 1.0, d, "full")
        assert half == pytest.approx(full, abs=1e-14)


def test_cond_pair_pgf_rejects_small_span():
    model = AisleModel(4, Deterministic(2))
    with pytest.raises(ValueError):
        prelim.cond_pair_pgf(model, 0.5, 0.5, 1, "full")


def test_pair_probabilities_partition():
    for dist in (Deterministic(3), Geometric(1 / 6), ShiftedPoisson(4.0)):
        k = 5
        model = AisleModel(k, dist)
        total = k * dist.pgf(1 / k)  # both endpoints in the same aisle
        total += sum((k - d) * prelim.pair_event_prob(model, d) for d in range(1, k))
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k,m", [(3, 2), (3, 3), (3, 4)])
def test_pair_event_prob_matches_enumeration(k, m):
    oracle = enum_discrete(k, m)["pair_prob"]
    model = AisleModel(k, Deterministic(m))
    for d, expect in oracle.items():
        assert prelim.pair_event_prob(model, d) == pytest.approx(float(expect), abs=1e-12)


# ---------------------------------------------------------------------------
# furthest-item moments
# ---------------------------------------------------------------------------

def test_far_item_single_aisle():
    mean, second, _ = prelim.far_item_moments(AisleModel(1, Deterministic(1)), "full")
    assert mean == pytest.approx(0.5, abs=1e-10)
    assert second == pytest.approx(1 / 3, abs=1e-10)
    for n, expect in ((1, 0.5), (5, 5 / 6), (9, 0.9)):
        mean, _, _ = prelim.far_item_moments(AisleModel(1, Deterministic(n)), "full")
        assert mean == pytest.approx(expect, abs=1e-10)


def test_far_item_cross_two_aisles():
    _, _, cross = prelim.far_item_moments(AisleModel(2, Deterministic(2)), "full")
    assert cross == pytest.approx(1 / 8, abs=1e-10)


def test_far_item_cross_nan_for_single_full_aisle():
    _, _, cross = prelim.far_item_moments(AisleModel(1, Deterministic(2)), "full")
    assert math.isnan(cross)
    # half mode has two half-aisles even at k = 1
    _, _, cross = prelim.far_item_moments(AisleModel(1, Deterministic(2)), "half")
    assert not math.isnan(cross)


def test_far_item_kplus_cross_examples():
    model = AisleModel(1, Deterministic(3))
    mean, _, _ = prelim.far_item_moments(model, "full")
    assert prelim.far_item_kplus_cross(model, 1) == pytest.approx(mean, abs=1e-10)
    assert prelim.far_item_kplus_cross(AisleModel(2, Deterministic(1)), 1) == pytest.approx(0.25, abs=1e-10)


def test_sum_far_item_kplus_cross_matches_per_aisle_sum():
    model = AisleModel(4, Geometric(1 / 6))
    total = sum(prelim.far_item_kplus_cross(model, i) for i in range(1, 5))
    assert prelim.sum_far_item_kplus_cross(model) == pytest.approx(total, rel=1e-12)


def test_m_far_cross_examples():
    assert prelim.m_far_cross(AisleModel(1, Deterministic(1))) == pytest.approx(0.5, abs=1e-10)
    assert prelim.m_far_cross(AisleModel(1, Deterministic(2))) == pytest.approx(4 / 3, abs=1e-10)


# ---------------------------------------------------------------------------
# largest-gap moments
# ---------------------------------------------------------------------------

def test_gap_moments_single_point():
    mean_1md, second_1md, _ = prelim.gap_moments(AisleModel(1, Deterministic(1)))
    assert mean_1md == pytest.approx(0.25, abs=1e-8)
    # E[D^2 | N=1] = 7/12, so E[(1-D)^2] = 1 - 2*(3/4) + 7/12
    assert second_1md == pytest.approx(1 - 1.5 + 7 / 12, abs=1e-8)


def test_gap_moments_variance_nonnegative():
    for dist in (Deterministic(4), Geometric(1 / 8), ShiftedPoisson(3.0)):
        mean_1md, second_1md, _ = prelim.gap_moments(AisleModel(4, dist))
        assert second_1md - mean_1md ** 2 >= -1e-9


@pytest.mark.parametrize("k,m,d", [(3, 2, 2), (3, 3, 2), (3, 4, 2),
                                   (4, 3, 3), (4, 4, 3), (4, 4, 2)])
def test_conditional_quantities_match_enumeration(k, m, d):
    oracle = enum_conditional(k, m, d)
    model = AisleModel(k, Deterministic(m))
    half = prelim.far_half_cond_moments(model, d)
    gap = prelim.gap_cond_moments(model, d)
    assert half.prob == pytest.approx(float(oracle["prob"]), abs=1e-10)
    assert gap.prob == pytest.approx(float(oracle["prob"]), abs=1e-10)
    assert half.mean == pytest.approx(float(oracle["af_mean"]), abs=1e-10)
    assert half.second == pytest.approx(float(oracle["af_sec"]), abs=1e-10)
    assert half.cross == pytest.approx(float(oracle["af_cross"]), abs=1e-10)
    assert half.n_same == pytest.approx(float(oracle["af_n_same"]), abs=1e-10)
    assert half.n_other == pytest.approx(float(oracle["af_n_other"]), abs=1e-10)
    assert half.n_endpoint == pytest.approx(float(oracle["af_n_end"]), abs=1e-10)
    assert gap.mean == pytest.approx(float(oracle["gap_mean"]), abs=1e-10)
    assert gap.second == pytest.approx(float(oracle["gap_sec"]), abs=1e-10)
    assert gap.n_same == pytest.approx(float(oracle["gap_n_same"]), abs=1e-10)
    assert gap.n_endpoint == pytest.approx(float(oracle["gap_n_end"]), abs=1e-10)
    if d >= 3:
        assert gap.cross == pytest.approx(float(oracle["gap_cross"]), abs=1e-9)
        assert gap.n_other == pytest.approx(float(oracle["gap_n_other"]), abs=1e-10)


def test_gap_count_cross_empty_interior_case():
    # two items forced to the endpoint aisles: interior aisle is empty and
    # contributes nothing
    model = AisleModel(3, Deterministic(2))
    assert prelim.gap_count_cross(model, 2, "same-aisle") == pytest.approx(0.0, abs=1e-10)


def test_gap_count_cross_same_aisle_enumeration_value():
    # det(3), k=3: on the event only count layout (1,1,1) has an occupied
    # interior aisle; E[N2 (1-D2) 1{event}] = (6/27) * (1/4)
    model = AisleModel(3, Deterministic(3))
    assert prelim.gap_count_cross(model, 2, "same-aisle") == pytest.approx(1 / 18, abs=1e-10)
    assert prelim.gap_count_cross(model, 2, "endpoint-aisle") == pytest.approx(1 / 18, abs=1e-10)


@pytest.mark.parametrize("mean, d, ref", [(32, 6, 1.2967248535819053e-06), (18, 3, 8.431073180624892e-07)])
def test_gap_cond_cross_despite_cancellation(mean, d, ref):
    # prob + 2 int gam log + the double integral cancel by ~500x at k = 20, so
    # the result is only as good as the pieces; ref is the same formula in
    # mpmath at 30 digits with the kernel integrated directly
    model = AisleModel(20, Geometric(1 / mean))
    assert prelim.gap_cond_moments(model, d).cross == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_conditional_depends_only_on_span():
    # identical span built from different endpoint pairs yields identical
    # inputs by construction; the API accepts only the span
    model = AisleModel(6, Geometric(1 / 4))
    a = prelim.cond_pair_pgf(model, 0.3, 0.9, 3, "full")
    b = prelim.cond_pair_pgf(model, 0.3, 0.9, 3, "full")
    assert a == b


# ---------------------------------------------------------------------------
# occupancy problem
# ---------------------------------------------------------------------------

def test_occupancy_trivial_cases():
    pmf, mean, second, _ = prelim.occupancy_law(AisleModel(4, Deterministic(1)))
    assert pmf[0] == pytest.approx(1.0, abs=1e-14)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
    pmf, mean, _, _ = prelim.occupancy_law(AisleModel(2, Deterministic(2)))
    assert pmf == pytest.approx([0.5, 0.5], abs=1e-14)
    assert mean == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("k,m", SMALL_CASES)
def test_occupancy_matches_enumeration(k, m):
    oracle = enum_discrete(k, m)
    pmf, mean, second, contiguous = prelim.occupancy_law(AisleModel(k, Deterministic(m)))
    for j in range(k):
        assert pmf[j] == pytest.approx(float(oracle["pmf"][j]), abs=1e-12)
        assert contiguous[j] == pytest.approx(float(oracle["contiguous"][j]), abs=1e-12)
    expect_mean = sum((j + 1) * p for j, p in enumerate(oracle["pmf"]))
    expect_sec = sum((j + 1) ** 2 * p for j, p in enumerate(oracle["pmf"]))
    assert mean == pytest.approx(float(expect_mean), abs=1e-12)
    assert second == pytest.approx(float(expect_sec), abs=1e-12)
    assert prelim.iodd_mean(AisleModel(k, Deterministic(m))) == pytest.approx(
        float(oracle["iodd"]), abs=1e-12)


def test_occupancy_shifted_poisson_is_shifted_binomial():
    for lam in (1.0, 5.0, 20.0):
        for k in (3, 5, 10):
            pmf, _, _, _ = prelim.occupancy_law(AisleModel(k, ShiftedPoisson(lam)))
            p = 1 - math.exp(-lam / k)
            for j in range(1, k + 1):
                expect = math.comb(k - 1, j - 1) * p ** (j - 1) * (1 - p) ** (k - j)
                assert pmf[j - 1] == pytest.approx(expect, rel=1e-9, abs=1e-15)


def test_iodd_examples_and_closed_form():
    assert prelim.iodd_mean(AisleModel(1, Geometric(1 / 3))) == pytest.approx(1.0, abs=1e-12)
    assert prelim.iodd_mean(AisleModel(2, Deterministic(2))) == pytest.approx(0.5, abs=1e-12)
    for lam in (1.0, 5.0, 20.0):
        for k in (3, 5, 10):
            got = prelim.iodd_mean(AisleModel(k, ShiftedPoisson(lam)))
            closed = 0.5 * math.exp(-lam + lam / k) * (2 - math.exp(lam / k)) ** (k - 1) + 0.5
            assert got == pytest.approx(closed, rel=1e-9)


def test_iodd_matches_printed_alternating_sum_small_k():
    # the direct alternating form with 2^(k-l-1) factors, safe at small k
    for dist in (Geometric(1 / 4), ShiftedPoisson(2.0), Deterministic(3)):
        for k in (1, 2, 3, 5, 8):
            model = AisleModel(k, dist)
            printed = sum(math.comb(k, l) * (-1) ** (l + 1) * 2 ** (k - l - 1) * dist.pgf(l / k)
                          for l in range(k)) + (k % 2)
            assert prelim.iodd_mean(model) == pytest.approx(printed, abs=1e-9)


def test_contiguous_pgf_identities():
    model = AisleModel(3, Geometric(1 / 2))
    # j = 1: everything in aisle 1
    for z in (0.0, 0.4, 1.0):
        assert prelim.contiguous_pgf(model, z, 1) == pytest.approx(
            model.dist.pgf(z / 3), abs=1e-12)
    _, _, _, contiguous = prelim.occupancy_law(model)
    for j in (1, 2, 3):
        assert prelim.contiguous_pgf(model, 1.0, j) == pytest.approx(
            contiguous[j - 1], abs=1e-12)
    assert prelim.contiguous_pgf(AisleModel(2, Deterministic(2)), 0.0, 2) == pytest.approx(
        0.0, abs=1e-14)


def test_occupancy_stable_at_large_k():
    # k = 64 with a heavy alternating structure: pmf stays a probability vector
    pmf, mean, second, contiguous = prelim.occupancy_law(AisleModel(64, Geometric(1 / 40)))
    assert all(-1e-15 <= p <= 1 + 1e-12 for p in pmf)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
    assert second - mean ** 2 >= -1e-9
    assert all(c >= -1e-15 for c in contiguous)
    iodd = prelim.iodd_mean(AisleModel(64, Geometric(1 / 40)))
    assert 0.0 <= iodd <= 1.0


def test_variance_nonnegativity_across_models():
    for dist in (Deterministic(3), Geometric(1 / 8), ShiftedPoisson(3.0)):
        for k in (1, 2, 5):
            model = AisleModel(k, dist)
            kp_mean, kp_sec, _ = prelim.kplus_moments(model)
            assert kp_sec - kp_mean ** 2 >= -1e-9
            a_mean, a_sec, _ = prelim.far_item_moments(model, "full")
            assert a_sec - a_mean ** 2 >= -1e-9
            g_mean, g_sec, _ = prelim.gap_moments(model)
            assert g_sec - g_mean ** 2 >= -1e-9
            _, o_mean, o_sec, _ = prelim.occupancy_law(model)
            assert o_sec - o_mean ** 2 >= -1e-9
