import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pickroute import PickTimeModel, WarehouseConfig, compute_moments, prelim
from pickroute.orderdist import Deterministic, Geometric, ShiftedPoisson, parse_dist_spec
from pickroute.prelim import AisleModel

from oracles import (DECADES, _mp_law, contiguous_probs, det_gap_moments, e_gap, enum_conditional, enum_discrete,
                     far_item_kplus_cross, far_item_moments_mp, iodd_mean, iter_aisle_assignments, occupied,
                     pair_event_prob, span_blocks_mp)
from test_orderdist import PMF_LAWS

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


def test_pair_probabilities_partition():
    for dist in (Deterministic(3), Geometric(1 / 6), ShiftedPoisson(4.0)):
        k = 5
        model = AisleModel(k, dist)
        total = k * dist.pgf(1 / k)  # both endpoints in the same aisle
        total += sum((k - d) * pair_event_prob(model, d) for d in range(1, k))
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k,m", [(3, 2), (3, 3), (3, 4)])
def test_pair_event_prob_matches_enumeration(k, m):
    oracle = enum_discrete(k, m)["pair_prob"]
    model = AisleModel(k, Deterministic(m))
    for d, expect in oracle.items():
        assert pair_event_prob(model, d) == pytest.approx(float(expect), abs=1e-12)


# ---------------------------------------------------------------------------
# furthest-item moments
# ---------------------------------------------------------------------------

def test_far_item_single_aisle():
    mean, second, _ = prelim.far_item_moments(AisleModel(1, Deterministic(1)))
    assert mean == pytest.approx(0.5, abs=1e-10)
    assert second == pytest.approx(1 / 3, abs=1e-10)
    for n, expect in ((1, 0.5), (5, 5 / 6), (9, 0.9)):
        mean, _, _ = prelim.far_item_moments(AisleModel(1, Deterministic(n)))
        assert mean == pytest.approx(expect, abs=1e-10)


def test_far_item_cross_two_aisles():
    _, _, cross = prelim.far_item_moments(AisleModel(2, Deterministic(2)))
    assert cross == pytest.approx(1 / 8, abs=1e-10)


def test_far_item_cross_nan_for_single_full_aisle():
    _, _, cross = prelim.far_item_moments(AisleModel(1, Deterministic(2)))
    assert math.isnan(cross)


def test_far_item_kplus_cross_examples():
    model = AisleModel(1, Deterministic(3))
    mean, _, _ = prelim.far_item_moments(model)
    assert far_item_kplus_cross(model, 1) == pytest.approx(mean, abs=1e-10)
    assert far_item_kplus_cross(AisleModel(2, Deterministic(1)), 1) == pytest.approx(0.25, abs=1e-10)


def test_sum_far_item_kplus_cross_matches_per_aisle_sum():
    model = AisleModel(4, Geometric(1 / 6))
    total = sum(far_item_kplus_cross(model, i) for i in range(1, 5))
    assert prelim.sum_far_item_kplus_cross(model) == pytest.approx(total, rel=1e-12)


def test_m_far_cross_examples():
    assert prelim.m_far_cross(AisleModel(1, Deterministic(1))) == pytest.approx(0.5, abs=1e-10)
    assert prelim.m_far_cross(AisleModel(1, Deterministic(2))) == pytest.approx(4 / 3, abs=1e-10)


# ---------------------------------------------------------------------------
# largest-gap moments
# ---------------------------------------------------------------------------

def at_span(c: prelim.SpanCond, d: int) -> prelim.SpanCond:
    """The fields of a span block, arrays over the spans 2..k-1, at span d."""
    return prelim.SpanCond(*(getattr(c, f.name)[d - 2] for f in dataclasses.fields(c)))


def test_gap_moments_single_point():
    mean_1md, second_1md, _ = prelim.gap_moments(AisleModel(1, Deterministic(1)))
    assert mean_1md == pytest.approx(0.25, abs=1e-8)
    # E[D^2 | N=1] = 7/12, so E[(1-D)^2] = 1 - 2*(3/4) + 7/12
    assert second_1md == pytest.approx(1 - 1.5 + 7 / 12, abs=1e-8)


@pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 6) for m in range(1, 6)])
def test_gap_moments_match_exact_sums(k, m):
    mean, second, cross = det_gap_moments(k, m)
    got = prelim.gap_moments(AisleModel(k, Deterministic(m)))
    assert got[:2] == pytest.approx((float(mean), float(second)), rel=1e-12, abs=0.0)
    if k == 1:
        assert math.isnan(got[2])
    else:   # exactly 0 for m = 1, formed from terms of order 1
        assert got[2] == pytest.approx(float(cross), rel=1e-12, abs=1e-15)


def test_gap_moments_cross_cancellation_at_k64():
    # det:3, k = 64: the cross moment is 1 + 2 int P log(1-x) + a double
    # integral, terms of order 1 that cancel to 9.1e-5, so each of their ulps
    # (2.2e-16) is 2.4e-12 of it.  It is held to 1e-15 absolute, four such
    # ulps or 1.1e-11 relative; mean and second moment keep 1e-12
    mean, second, cross = det_gap_moments(64, 3)
    assert float(cross) == pytest.approx(9.09e-5, rel=1e-3)
    got = prelim.gap_moments(AisleModel(64, Deterministic(3)))
    assert got[:2] == pytest.approx((float(mean), float(second)), rel=1e-12, abs=0.0)
    assert got[2] == pytest.approx(float(cross), rel=0.0, abs=1e-15)


def test_gap_moments_reads_the_table_far_item_moments_built():
    # both read rows k-1 and k-2 of the same PGF table, so the second block
    # evaluates the PGF nowhere
    calls = []

    class CountedGeometric(Geometric):
        def pgf(self, x):
            calls.append(np.size(x))
            return super().pgf(x)

    model = AisleModel(7, CountedGeometric(1 / 9))
    prelim.far_item_moments(model)
    assert calls
    calls.clear()
    prelim.gap_moments(model)
    assert calls == []


def test_gap_moments_variance_nonnegative():
    for dist in (Deterministic(4), Geometric(1 / 8), ShiftedPoisson(3.0)):
        mean_1md, second_1md, _ = prelim.gap_moments(AisleModel(4, dist))
        assert second_1md - mean_1md ** 2 >= -1e-9


@pytest.mark.parametrize("k,m,d", [(3, 2, 2), (3, 3, 2), (3, 4, 2),
                                   (4, 3, 3), (4, 4, 3), (4, 4, 2)])
def test_conditional_quantities_match_enumeration(k, m, d):
    oracle = enum_conditional(k, m, d)
    model = AisleModel(k, Deterministic(m))
    half = at_span(prelim.far_half_cond_moments(model), d)
    gap = at_span(prelim.gap_cond_moments(model), d)
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
    assert prelim.gap_cond_moments(model).n_same[0] == pytest.approx(0.0, abs=1e-10)


def test_gap_count_cross_same_aisle_enumeration_value():
    # det(3), k=3: on the event only count layout (1,1,1) has an occupied
    # interior aisle; E[N2 (1-D2) 1{event}] = (6/27) * (1/4)
    model = AisleModel(3, Deterministic(3))
    assert prelim.gap_cond_moments(model).n_same[0] == pytest.approx(1 / 18, abs=1e-10)
    assert prelim.gap_cond_moments(model).n_endpoint[0] == pytest.approx(1 / 18, abs=1e-10)


@pytest.mark.parametrize("mean, d, ref", [(32, 6, 1.2967248535819053e-06), (18, 3, 8.431073180624892e-07)])
def test_gap_cond_cross_despite_cancellation(mean, d, ref):
    # prob + 2 int gam log + the double integral cancel by ~500x at k = 20, so
    # the result is only as good as the pieces; ref is the same formula in
    # mpmath at 30 digits with the kernel integrated directly
    model = AisleModel(20, Geometric(1 / mean))
    assert prelim.gap_cond_moments(model).cross[d - 2] == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("k", [20, 64])
def test_span_blocks_match_high_precision_oracle(k):
    model = AisleModel(k, Geometric(1 / 18))
    for d in (2, 3, k // 2, k - 1):
        want = span_blocks_mp(model, d)
        for name, block in (("gap", prelim.gap_cond_moments), ("far_half", prelim.far_half_cond_moments)):
            got = dataclasses.astuple(at_span(block(model), d))
            for g, w in zip(got, want[name]):
                if w is None:
                    assert math.isnan(g)
                else:
                    assert g == pytest.approx(w, rel=1e-9, abs=0.0), (name, d)


@pytest.mark.parametrize("spec, d", [("geom:18", 3), ("spois:4", 3), ("spois:4", 63)])
def test_span_block_cross_terms_match_high_precision_oracle(spec, d):
    # the cross terms cancel; they keep their digits only when the PGF rows are
    # differenced node by node before they are integrated
    model = AisleModel(64, parse_dist_spec(spec))
    want = span_blocks_mp(model, d)
    for name, block in (("gap", prelim.gap_cond_moments), ("far_half", prelim.far_half_cond_moments)):
        assert block(model).cross[d - 2] == pytest.approx(want[name][3], rel=2e-10, abs=0.0), name


@pytest.mark.parametrize("spec", ["det:3", "geom:18", "geom:1e6", "spois:1e5", "snbin:50:1e4"])
def test_half_model_lattice_holds_the_aisle_lattice(spec):
    # midpoint reads P(j/k) and P'(j/k) from the even entries of the lattice
    # of the model with 2k aisles: 2j/2k and j/k round to the same double.
    # The lattice is evaluated in blocks, with the bits of one call.
    dist = parse_dist_spec(spec)
    for k in (1, 2, 3, 5, 24, 127, 128, 4096):
        aisle = prelim._pgf_lattice(AisleModel(k, dist))
        half = prelim._pgf_lattice(AisleModel(2 * k, dist))
        x = np.arange(k + 1) / k
        for whole, halves, one_call in zip(aisle, half, (dist.pgf(x), dist.pgf_prime(x))):
            assert halves[::2].tobytes() == whole.tobytes() == one_call.tobytes(), k


def test_far_half_cond_moments_reads_the_half_model_lattice_and_table():
    # midpoint evaluates no PGF of its own: everything comes from the lattice
    # and the table of the model with 2k aisles
    calls = []

    class CountedGeometric(Geometric):
        def pgf(self, x):
            calls.append("pgf")
            return super().pgf(x)

        def pgf_prime(self, x):
            calls.append("pgf_prime")
            return super().pgf_prime(x)

    dist = CountedGeometric(1 / 9)
    half = AisleModel(14, dist)
    prelim._pgf_lattice(half)
    prelim._pgf_table(half)
    calls.clear()
    prelim.far_half_cond_moments(AisleModel(7, dist))
    assert calls == []


@pytest.mark.parametrize("k", [3, 5])
def test_steep_pgf_integrals(k):
    # spois:1e5 climbs within k/mean of x = 1; an adaptive rule without the
    # decade panels returned int_0^1 P((k-1+x)/k) dx = 5.6e-19 for 3.0e-5 at k = 3
    model = AisleModel(k, parse_dist_spec("spois:1e5"))
    want = far_item_moments_mp(model, DECADES, dps=20)
    assert prelim.far_item_moments(model) == pytest.approx(want, rel=1e-9, abs=0.0)
    for d in sorted({2, k - 1}):
        got = dataclasses.astuple(at_span(prelim.gap_cond_moments(model), d))
        want = span_blocks_mp(model, d, DECADES, dps=20)["gap"]
        for g, w in zip(got, want):
            if w is not None:
                assert g == pytest.approx(w, rel=1e-9, abs=0.0), d


@pytest.mark.parametrize("spec", ["geom:1e6", "spois:1000", "snbin:20:2000"])
def test_occupancy_tail_integrals(spec):
    # int_0^1 P = E[1/(M+1)] and int_0^1 (1-x) P = E[1/((M+1)(M+2))], which
    # carry the order sizes beyond the truncated pmf
    dist = parse_dist_spec(spec)
    with mpmath.workdps(30):
        P = _mp_law(dist)[0]
        want = [float(mpmath.quad(f, list(DECADES))) for f in (P, lambda x: (1 - x) * P(x))]
    assert prelim._pgf_integrals(dist) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_conditional_depends_only_on_span():
    # the blocks take the span only: by enumeration, every endpoint pair
    # (l, l + d) gives the same event probability and the same E[(1 - D) 1{event}]
    # of the aisle after l, and both are the block's entry for span d
    k, m = 5, 4
    gap = prelim.gap_cond_moments(AisleModel(k, Deterministic(m)))
    for d in range(2, k):
        by_pair = set()
        for lo in range(1, k - d + 1):
            prob = mean = Fraction(0)
            for p, counts in iter_aisle_assignments(k, m):
                occ = occupied(counts)
                if (min(occ), max(occ)) == (lo, lo + d):
                    prob += p
                    mean += p * (1 - e_gap(counts[lo]))
            by_pair.add((prob, mean))
        assert len(by_pair) == 1, d
        (prob, mean), = by_pair
        assert gap.prob[d - 2] == pytest.approx(float(prob), abs=1e-14)
        assert gap.mean[d - 2] == pytest.approx(float(mean), abs=1e-10)


# ---------------------------------------------------------------------------
# occupancy problem
# ---------------------------------------------------------------------------

def test_occupancy_trivial_cases():
    pmf, mean, second = prelim.occupancy_law(AisleModel(4, Deterministic(1)))
    assert pmf[0] == pytest.approx(1.0, abs=1e-14)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
    pmf, mean, _ = prelim.occupancy_law(AisleModel(2, Deterministic(2)))
    assert pmf == pytest.approx([0.5, 0.5], abs=1e-14)
    assert mean == pytest.approx(1.5, abs=1e-12)


def test_occupancy_blocks_are_read_only_arrays():
    # views of the cached table: a write into one would change every later call
    model = AisleModel(5, Geometric(1 / 8))

    def blocks():
        return (prelim.occupancy_law(model)[0], prelim.contiguous_count_prime(model),
                *prelim.contiguous_far_moments(model))

    before = [block.copy() for block in blocks()]
    for block in blocks():
        assert isinstance(block, np.ndarray) and not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[-1] = 1.0
    for block, want in zip(blocks(), before):
        assert np.array_equal(block, want)


@pytest.mark.parametrize("k,m", SMALL_CASES)
def test_occupancy_matches_enumeration(k, m):
    oracle = enum_discrete(k, m)
    pmf, mean, second = prelim.occupancy_law(AisleModel(k, Deterministic(m)))
    contiguous = contiguous_probs(pmf)
    for j in range(k):
        assert pmf[j] == pytest.approx(float(oracle["pmf"][j]), abs=1e-12)
        assert contiguous[j] == pytest.approx(float(oracle["contiguous"][j]), abs=1e-12)
    expect_mean = sum((j + 1) * p for j, p in enumerate(oracle["pmf"]))
    expect_sec = sum((j + 1) ** 2 * p for j, p in enumerate(oracle["pmf"]))
    assert mean == pytest.approx(float(expect_mean), abs=1e-12)
    assert second == pytest.approx(float(expect_sec), abs=1e-12)
    assert iodd_mean(AisleModel(k, Deterministic(m))) == pytest.approx(
        float(oracle["iodd"]), abs=1e-12)


def test_occupancy_shifted_poisson_is_shifted_binomial():
    for lam in (1.0, 5.0, 20.0):
        for k in (3, 5, 10):
            pmf, _, _ = prelim.occupancy_law(AisleModel(k, ShiftedPoisson(lam)))
            p = 1 - math.exp(-lam / k)
            for j in range(1, k + 1):
                expect = math.comb(k - 1, j - 1) * p ** (j - 1) * (1 - p) ** (k - j)
                assert pmf[j - 1] == pytest.approx(expect, rel=1e-9, abs=1e-15)


def test_iodd_examples_and_closed_form():
    assert iodd_mean(AisleModel(1, Geometric(1 / 3))) == pytest.approx(1.0, abs=1e-12)
    assert iodd_mean(AisleModel(2, Deterministic(2))) == pytest.approx(0.5, abs=1e-12)
    for lam in (1.0, 5.0, 20.0):
        for k in (3, 5, 10):
            got = iodd_mean(AisleModel(k, ShiftedPoisson(lam)))
            closed = 0.5 * math.exp(-lam + lam / k) * (2 - math.exp(lam / k)) ** (k - 1) + 0.5
            assert got == pytest.approx(closed, rel=1e-9)


def test_iodd_matches_printed_alternating_sum_small_k():
    # the direct alternating form with 2^(k-l-1) factors, safe at small k
    for dist in (Geometric(1 / 4), ShiftedPoisson(2.0), Deterministic(3)):
        for k in (1, 2, 3, 5, 8):
            model = AisleModel(k, dist)
            printed = sum(math.comb(k, l) * (-1) ** (l + 1) * 2 ** (k - l - 1) * dist.pgf(l / k)
                          for l in range(k)) + (k % 2)
            assert iodd_mean(model) == pytest.approx(printed, abs=1e-9)


def occupancy_moments_pgf(k, P):
    """(E[I], E[I^2]) of the occupied-aisle count by the PGF closed forms:
    aisle i is empty with probability P(1 - 1/k), two aisles with P(1 - 2/k)."""
    mean = k - k * P(1 - 1 / k)
    second = k * k + k * (1 - 2 * k) * P(1 - 1 / k)
    if k >= 2:
        second += k * (k - 1) * P(1 - 2 / k)
    return mean, second


def test_occupancy_stable_at_large_k():
    # the pmf stays a probability vector with the PGF's moments up to k = 4096;
    # the alternating sums lost this past k ~ 96 (entries of -1.4e-8 at k = 128),
    # and C(k, j) times the contiguous probabilities overflowed from k ~ 1,030
    for spec in ("det:1", "det:3", "spois:4", "geom:8", "geom:32", "snbin:3:9", "geom:40", "snbin:3:40",
                 "geom:1000", "spois:1e5"):
        dist = parse_dist_spec(spec)
        for k in (1, 2, 5, 64, 96, 128, 256, 512, 1024, 2048, 4096):
            pmf, _, _ = prelim.occupancy_law(AisleModel(k, dist))
            mean, second = occupancy_moments_pgf(k, dist.pgf)
            contiguous = contiguous_probs(pmf)
            assert all(0.0 <= p <= 1 + 1e-12 for p in pmf), (spec, k)
            assert all(c >= 0.0 for c in contiguous), (spec, k)
            assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12), (spec, k)
            assert math.fsum(j * p for j, p in enumerate(pmf, start=1)) == pytest.approx(mean, rel=1e-10)
            assert math.fsum(j * j * p for j, p in enumerate(pmf, start=1)) == pytest.approx(second, rel=1e-10)
            assert second - mean ** 2 >= -1e-9
            assert 0.0 <= iodd_mean(AisleModel(k, dist)) <= 1.0


@pytest.mark.parametrize("k", [128, 256])
@pytest.mark.parametrize("spec", ["spois:4", "geom:8"])
def test_occupancy_moments_match_high_precision_closed_forms(spec, k):
    # the closed forms in doubles lost up to 6.5e-13 of E[I^2] here; the
    # table's sums over j lose nothing that cancels
    dist = parse_dist_spec(spec)
    _, mean, second = prelim.occupancy_law(AisleModel(k, dist))
    with mpmath.workdps(50):   # _mp_law takes its parameters at the precision in force
        want = occupancy_moments_pgf(mpmath.mpf(k), _mp_law(dist)[0])
    assert (mean, second) == pytest.approx([float(v) for v in want], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [2, 5, 12, 32, 48, 64, 96, 127, 128])
def test_occupancy_blocks_match_chain(k, monkeypatch):
    # rows doubled from a block's first row by the powers of the chain matrix
    # against the banded chain, one row at a time, both forced through
    # _CHAIN_FROM whichever of them builds the table at this k
    cfg, pick = WarehouseConfig(k, 20.0, 2.5, 3000.0 / 3600.0), PickTimeModel.from_scv(5.0, 1.0)
    laws = PMF_LAWS + [Geometric(1 / 1000)]
    laws += [parse_dist_spec(spec) for spec in ("spois:1000", "det:500", "snbin:50:1e4") if k == 127]
    # order sizes on either side of the 512-row block edge
    laws += [Deterministic(m) for m in (511, 512, 513, 514) if k in (12, 64, 127)]
    for dist in laws:
        reports = []
        for chain_from in (k + 1, k):   # doubled rows, then the chain
            with monkeypatch.context() as patch:
                patch.setattr(prelim, "_CHAIN_FROM", chain_from)
                prelim._occupancy.cache_clear()
                reports.append(compute_moments(cfg, dist, pick, "s-shaped"))
        got, want = reports
        assert (got.e_t, got.e_t2) == pytest.approx((want.e_t, want.e_t2), rel=1e-13, abs=0.0), dist
    prelim._occupancy.cache_clear()


@pytest.mark.parametrize("k", [12, 64, 127, 128, 256, 1024, 2048])
def test_occupancy_band_matches_full_rows(k, monkeypatch):
    # each block is filled and summed on the columns its first row's band
    # reaches, floored once per block, by doubling below k = 128 and by the
    # chain from there; with no floor that range holds every non-zero entry.
    # det:500 and spois:1000 start their bands far from column 0 and reach
    # past column k, where the range is cut
    cfg, pick = WarehouseConfig(k, 20.0, 2.5, 3000.0 / 3600.0), PickTimeModel.from_scv(5.0, 1.0)
    laws = PMF_LAWS + [Geometric(1 / 1000)]
    laws += [parse_dist_spec(spec) for spec in ("det:500", "spois:1000") if k <= 256]
    for dist in laws:
        prelim._occupancy.cache_clear()
        got = compute_moments(cfg, dist, pick, "s-shaped")
        with monkeypatch.context() as patch:
            patch.setattr(prelim, "_FLOOR", 0.0)
            prelim._occupancy.cache_clear()
            want = compute_moments(cfg, dist, pick, "s-shaped")
        assert (got.e_t, got.e_t2) == pytest.approx((want.e_t, want.e_t2), rel=1e-14, abs=0.0), dist
    prelim._occupancy.cache_clear()


def test_variance_nonnegativity_across_models():
    for dist in (Deterministic(3), Geometric(1 / 8), ShiftedPoisson(3.0)):
        for k in (1, 2, 5):
            model = AisleModel(k, dist)
            kp_mean, kp_sec, _ = prelim.kplus_moments(model)
            assert kp_sec - kp_mean ** 2 >= -1e-9
            a_mean, a_sec, _ = prelim.far_item_moments(model)
            assert a_sec - a_mean ** 2 >= -1e-9
            g_mean, g_sec, _ = prelim.gap_moments(model)
            assert g_sec - g_mean ** 2 >= -1e-9
            _, o_mean, o_sec = prelim.occupancy_law(model)
            assert o_sec - o_mean ** 2 >= -1e-9
