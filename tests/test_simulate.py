import math

import numpy as np
import pytest

from oracles import SampledOrder, route_time, route_times_batch, sample_order
from pickroute import (
    Deterministic,
    Geometric,
    HEURISTICS,
    PickTimeModel,
    WarehouseConfig,
    compute_moments,
    parse_dist_spec,
    run_replications_all,
)
from pickroute.simulate import _aisles, _chunk_sums, _jumped, _pick_sums, _rng_for_batch, _sort_cells

CFG = WarehouseConfig(3, 20.0, 2.5, 1.0)


def test_sample_order_shapes():
    rng = np.random.default_rng(0)
    order = sample_order(WarehouseConfig(1, 10.0, 1.0, 1.0), Deterministic(1), rng)
    assert order.m == 1
    aisle, pos = order.items[0]
    assert aisle == 1 and 0.0 <= pos <= 1.0


def test_sample_order_uniformity():
    # the engine's own draws: sizes, then one aisle per item from the batch stream
    rng = _rng_for_batch(3, 0)
    n = 200_000
    sizes = Deterministic(4).sample(rng, size=n)
    assert set(sizes.tolist()) == {4}
    aisle = rng.integers(0, 2, size=int(sizes.sum()))
    total = aisle.size
    frac = np.count_nonzero(aisle == 0) / total
    se = math.sqrt(0.25 / total)
    assert abs(frac - 0.5) < 4 * se


def test_sample_order_geometric_mean():
    rng = _rng_for_batch(4, 0)
    sizes = Geometric(0.5).sample(rng, size=200_000).astype(float)
    assert abs(sizes.mean() - 2.0) < 4 * sizes.std() / math.sqrt(len(sizes))


def test_route_time_worked_example():
    order = SampledOrder(2, ((1, 0.4), (3, 0.7)))
    picks = [0.0, 0.0]
    assert route_time(CFG, "return", order, picks) == pytest.approx(54.0)
    assert route_time(CFG, "largest-gap", order, picks) == pytest.approx(50.0)
    assert route_time(CFG, "midpoint", order, picks) == pytest.approx(50.0)
    assert route_time(CFG, "s-shaped", order, picks) == pytest.approx(50.0)


def test_route_time_interior_aisle_contributions():
    # item in the interior aisle: largest gap skips max spacing, midpoint
    # serves each half up to its furthest item
    order = SampledOrder(3, ((1, 0.5), (2, 0.3), (3, 0.25)))
    picks = [1.0, 2.0, 3.0]
    t_gap = route_time(CFG, "largest-gap", order, picks)
    assert t_gap == pytest.approx(6.0 + 40.0 * (1 - 0.7) + 40.0 + 10.0)
    t_mid = route_time(CFG, "midpoint", order, picks)
    assert t_mid == pytest.approx(6.0 + 20.0 * (0.3 / 0.5) + 40.0 + 10.0)
    t_ss = route_time(CFG, "s-shaped", order, picks)
    assert t_ss == pytest.approx(6.0 + 20.0 * (3 + 1 * (2 * 0.25 - 1)) + 10.0)


def test_route_time_validation():
    order = SampledOrder(2, ((1, 0.4), (3, 0.7)))
    with pytest.raises(ValueError):
        route_time(CFG, "return", order, [0.0])
    with pytest.raises(ValueError):
        route_time(CFG, "nope", order, [0.0, 0.0])
    with pytest.raises(ValueError):
        route_time(CFG, "return", SampledOrder(0, ()), [])


def test_vectorized_engine_matches_scalar_reference(monkeypatch):
    import pickroute.simulate as sim
    # k = 9, 3, 2 and 1 with 300-item chunks: the batch spans at least three
    # chunks; a non-zero pick time pins the gamma draw after every chunk's
    # positions.  At k = 3 only aisle 2 can be interior, and only when aisles
    # 1 and 3 are occupied as well; at k = 2 and k = 1 no aisle is.
    for k, chunk, pick in ((4, sim._CHUNK, PickTimeModel(0.0, 0.0)),
                           (9, 300, PickTimeModel(0.0, 0.0)),
                           (9, 300, PickTimeModel.from_scv(4.0, 0.7)),
                           (3, 300, PickTimeModel.from_scv(4.0, 0.7)),
                           (2, 300, PickTimeModel.from_scv(4.0, 0.7)),
                           (1, 300, PickTimeModel.from_scv(4.0, 0.7))):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        cfg = WarehouseConfig(k, 17.0, 2.0, 1.3)
        dist = Geometric(1 / 5)
        n = 300
        times = route_times_batch(cfg, dist, pick, n, seed=123)
        # replay the same stream scalar-wise: sizes, every aisle, positions,
        # then the pick sums
        rng = sim._rng_for_batch(123, 0)
        m = dist.sample(rng, size=n)
        total = int(m.sum())
        if chunk == 300:
            assert total >= 3 * chunk
        oid = np.repeat(np.arange(n), m)
        aisle = rng.integers(0, cfg.k, size=total)
        pos = rng.random(total)
        picks = (rng.gamma((1.0 / pick.scv) * m, pick.mean * pick.scv)
                 if pick.mean else np.zeros(n))
        if k == 3:
            occupied = np.zeros((n, k), dtype=bool)
            occupied[oid, aisle] = True
            assert np.any(occupied.all(axis=1))
        for i in range(n):
            sel = oid == i
            order = SampledOrder(int(m[i]), tuple(
                (int(a) + 1, float(p)) for a, p in zip(aisle[sel], pos[sel])))
            # the order's whole pick time on its first item
            pick_samples = [float(picks[i])] + [0.0] * (order.m - 1)
            for h in HEURISTICS:
                expect = route_time(cfg, h, order, pick_samples)
                assert times[h][i] == pytest.approx(expect, rel=1e-12, abs=0), (k, h, i)


@pytest.mark.parametrize("k", [1, 2])
def test_chunk_sums_without_interior_cells_are_zero(k):
    # with at most two aisles no occupied cell lies between an order's first
    # and last, so the midpoint and largest-gap sums are exactly zero
    rng = _rng_for_batch(11, 0)
    m = parse_dist_spec("geom:8").sample(rng, size=2_000)
    aisle = rng.integers(0, k, size=int(m.sum()))
    sums = _chunk_sums(k, aisle, rng.random(aisle.size), m)
    assert all(s.size == m.size for s in sums)
    for s in sums[4:]:
        assert s.dtype == np.float64 and np.all(s == 0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunk_sums_with_item_at_zero(k):
    # an occupied cell whose only item sits at 0.0 has a furthest item of 0.0,
    # the value of an empty cell, and still counts as occupied; at k = 3 the
    # fourth order's aisle 2 is such a cell and interior, where neither the
    # midpoint nor the largest-gap route walks into it
    m = np.array([1, 2, 2, 3, 1])
    aisle = np.array([0, 1, 0, 0, 1, 0, 1, 2, 1]) % k
    pos = np.array([0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
    kplus, n_occ, a_last = {1: ([1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [0.0, 0.25, 0.0, 0.5, 0.0]),
                            2: ([1, 2, 2, 2, 2], [1, 2, 2, 2, 1], [0.0] * 5),
                            3: ([1, 2, 2, 3, 2], [1, 2, 2, 3, 1], [0.0] * 5)}[k]
    got = _chunk_sums(k, aisle, pos, m)
    assert [s.tolist() for s in got] == [kplus, n_occ, a_last, [0.0, 0.25, 0.0, 0.5, 0.0],
                                         [0.0] * 5, [0.0] * 5]


def test_workers_without_cpu_affinity(monkeypatch):
    # platforms without sched_getaffinity size the pool by the CPU count
    import os

    import pickroute.simulate as sim

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sim._workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sim._workers() == 1


@pytest.mark.parametrize("spec", ["det:3", "geom:32", "snbin:3:9"])
@pytest.mark.parametrize("k", [1, 5, 9, 64])
def test_chunks_match_one_chunk(spec, k, monkeypatch):
    # every order lies in one chunk, so neither the cut points nor the number
    # of pool workers changes a bit; tasks write their rows of shared arrays,
    # so a lost or misplaced write would leave an uninitialised value
    import sys
    import pickroute.simulate as sim
    args = (WarehouseConfig(k, 20.0, 2.5, 5 / 6), parse_dist_spec(spec),
            PickTimeModel.from_scv(5.0, 1.0), 1_001, 8)
    monkeypatch.setattr(sim, "_CHUNK", 1 << 40)
    whole = route_times_batch(*args)
    monkeypatch.setattr(sim, "_CHUNK", 300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (sim._workers(), 1, 3, 8):
            monkeypatch.setattr(sim, "_workers", lambda: workers)
            chunked = route_times_batch(*args)
            for h in HEURISTICS:
                assert np.array_equal(chunked[h], whole[h]), (workers, h)
    finally:
        sys.setswitchinterval(interval)


def test_chunk_error_reaches_caller(monkeypatch):
    import itertools
    import threading
    import pickroute.simulate as sim
    calls = itertools.count()
    chunk_sums = sim._chunk_sums

    def failing(*args):
        if next(calls) == 2:
            raise RuntimeError("chunk failed")
        return chunk_sums(*args)

    monkeypatch.setattr(sim, "_CHUNK", 300)
    monkeypatch.setattr(sim, "_chunk_sums", failing)
    raised = []

    def run():
        try:
            run_replications_all(CFG, parse_dist_spec("geom:8"), PickTimeModel(0.0, 0.0),
                                 1_001, 4)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "run_replications_all hung after a chunk error"
    assert [str(exc) for exc in raised] == ["chunk failed"]


def test_pick_error_reaches_caller(monkeypatch):
    import threading
    import pickroute.simulate as sim

    def failing(*args):
        raise RuntimeError("picks failed")

    monkeypatch.setattr(sim, "_CHUNK", 300)
    monkeypatch.setattr(sim, "_pick_sums", failing)
    raised = []

    def run():
        try:
            run_replications_all(CFG, parse_dist_spec("geom:8"), PickTimeModel.from_scv(2.0, 1.0),
                                 1_001, 4)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "run_replications_all hung after a pick-sum error"
    assert [str(exc) for exc in raised] == ["picks failed"]


def _states():
    """Philox states with every buffer position, and one holding a 32-bit
    half-word: k = 3 aisles for an odd item count take an odd number of
    32-bit words."""
    states = {}
    for used in range(4):  # buffer positions 4, 1, 2, 3
        rng = _rng_for_batch(5, 0)
        rng.bit_generator.random_raw(used)
        states[f"used{used}"] = rng.bit_generator.state
    state = dict(states["used1"], buffer_pos=0)  # the whole buffer still to come
    states["buffer_pos0"] = state
    rng = _rng_for_batch(5, 0)
    _aisles(rng, 3, 1_001)
    states["half_word"] = rng.bit_generator.state
    return states


STATES = _states()
OFFSETS = [*range(10), *(4 * j + d for j in (3, 16, 1_000) for d in (-1, 1)), 65_539]


def test_states_cover_every_buffer_position():
    assert {s["buffer_pos"] for s in STATES.values()} == {0, 1, 2, 3, 4}
    assert STATES["half_word"]["has_uint32"] == 1


@pytest.mark.parametrize("name", STATES)
@pytest.mark.parametrize("offset", OFFSETS)
def test_jumped_draws_match_one_serial_draw(name, offset):
    # a chunk's positions from a jumped copy, and the pick sums from a copy
    # jumped past every item, equal the serial draw of positions then picks
    state = STATES[name]
    m = np.array([1, 4, 2, 9, 3])
    pick = PickTimeModel.from_scv(4.0, 0.7)
    serial = np.random.Generator(np.random.Philox())
    serial.bit_generator.state = state
    pos = serial.random(offset + 7)
    picks = _pick_sums(pick, m, serial)
    raw = serial.bit_generator.random_raw(5)
    np.testing.assert_array_equal(_jumped(state, offset).random(7), pos[offset:])
    jumped = _jumped(state, offset + 7)
    np.testing.assert_array_equal(_pick_sums(pick, m, jumped), picks)
    np.testing.assert_array_equal(jumped.bit_generator.random_raw(5), raw)


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 255, 256, 257, 1000, 65536, 65537,
                               2 ** 31 - 1, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1])
def test_narrow_aisles_match_int64_draw(k):
    # the aisles are drawn in 32-bit words and kept in the narrowest unsigned
    # type: the values and the generator state after the draw are those of
    # the int64 draw, so the rest of the stream is unchanged
    want_rng, got_rng = _rng_for_batch(5, 0), _rng_for_batch(5, 0)
    want = want_rng.integers(0, k, size=10_001)
    got = _aisles(got_rng, k, 10_001)
    assert got.dtype == (np.min_scalar_type(k - 1) if k <= 2 ** 32 else np.int64)
    np.testing.assert_array_equal(got, want)
    assert _same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)


def test_batch_memory_is_linear_in_items():
    # a dense (orders x aisles) layout would peak at about 1.8 GiB here
    import tracemalloc
    from pickroute.simulate import _batch_route_times, _rng_for_batch
    args = (WarehouseConfig(256, 20.0, 2.5, 5 / 6), parse_dist_spec("geom:32"),
            PickTimeModel.from_scv(5.0, 1.0), 1 << 17, _rng_for_batch(1, 0))
    tracemalloc.start()
    try:
        _batch_route_times(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * 2 ** 20


def test_deterministic_pick_time_matches_scalar_reference():
    # a pick time with SCV 0 is m times its mean and draws nothing: replay the
    # sizes, aisles and positions, and give every item 5 s
    pick = PickTimeModel(5.0, 25.0)
    assert pick.scv == 0.0
    cfg, dist, n = WarehouseConfig(4, 17.0, 2.0, 1.3), Geometric(1 / 5), 300
    ests = run_replications_all(cfg, dist, pick, n, seed=11)
    rng = _rng_for_batch(11, 0)
    m = dist.sample(rng, size=n)
    oid = np.repeat(np.arange(n), m)
    aisle = rng.integers(0, cfg.k, size=int(m.sum()))
    pos = rng.random(int(m.sum()))
    orders = [SampledOrder(int(m[i]), tuple((int(a) + 1, float(p)) for a, p in zip(aisle[oid == i], pos[oid == i])))
              for i in range(n)]
    for h in HEURISTICS:
        times = np.array([route_time(cfg, h, order, [5.0] * order.m) for order in orders])
        assert ests[h].mean_t == pytest.approx(times.mean(), rel=1e-12), h
        assert ests[h].mean_t2 == pytest.approx((times * times).mean(), rel=1e-12), h


def test_deterministic_pick_time_constant_route():
    # at k = 1 with det:2, midpoint and largest gap walk the aisle and back and
    # pick two items at 5 s each: T = 10 + 2 l/v = 50 s for every order
    cfg, dist, pick = WarehouseConfig(1, 20.0, 2.5, 1.0), Deterministic(2), PickTimeModel(5.0, 25.0)
    ests = run_replications_all(cfg, dist, pick, 2000, seed=4)
    for h in ("midpoint", "largest-gap"):
        est = ests[h]
        assert (est.mean_t, est.se_mean, est.mean_t2, est.se_t2) == (50.0, 0.0, 2500.0, 0.0), h
        rep = compute_moments(cfg, dist, pick, h)
        assert rep.e_t == pytest.approx(50.0, rel=1e-14, abs=0), h
        assert rep.var_t == pytest.approx(0.0, abs=1e-9), h


def test_negative_seed_is_rejected_by_name():
    # numpy's own message named no input
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        run_replications_all(CFG, Geometric(1 / 3), PickTimeModel.from_scv(2.0, 1.0), 10, seed=-1)


@pytest.mark.parametrize("n,seed,message", [
    (1000.0, 0, "replication count n must be an integer >= 2, got 1000.0"),
    (True, 0, "replication count n must be an integer >= 2, got True"),
    (1, 0, "replication count n must be an integer >= 2, got 1"),
    (1000, 1.5, "seed must be an integer >= 0, got 1.5"),
    (1000, True, "seed must be an integer >= 0, got True"),
])
def test_replication_arguments_are_checked_by_name(n, seed, message):
    # a float n failed inside range(), a float seed inside SeedSequence, and
    # seed=True ran as seed 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_replications_all(CFG, Geometric(1 / 3), PickTimeModel(0.0, 0.0), n, seed)


def test_replication_arguments_take_numpy_integers():
    want = run_replications_all(CFG, Geometric(1 / 3), PickTimeModel(0.0, 0.0), 1000, 7)
    assert run_replications_all(CFG, Geometric(1 / 3), PickTimeModel(0.0, 0.0),
                                np.int64(1000), np.uint32(7)) == want


def test_run_replications_deterministic():
    est1 = run_replications_all(CFG, Geometric(1 / 3), PickTimeModel.from_scv(2.0, 1.0),
                                5000, seed=42)["return"]
    est2 = run_replications_all(CFG, Geometric(1 / 3), PickTimeModel.from_scv(2.0, 1.0),
                                5000, seed=42)["return"]
    assert est1 == est2
    est3 = run_replications_all(CFG, Geometric(1 / 3), PickTimeModel.from_scv(2.0, 1.0),
                                5000, seed=43)["return"]
    assert est3 != est1


def test_run_replications_simple_target():
    cfg = WarehouseConfig(1, 20.0, 1.0, 1.0)
    est = run_replications_all(cfg, Deterministic(1), PickTimeModel(0.0, 0.0),
                               100_000, seed=1)["return"]
    assert abs(est.mean_t - 20.0) < 4 * est.se_mean
    assert est.n == 100_000


def test_estimates_second_moment_consistent():
    est = run_replications_all(CFG, Geometric(1 / 4), PickTimeModel.from_scv(3.0, 0.5),
                               50_000, seed=9)["s-shaped"]
    # E[T^2] >= E[T]^2 up to sampling noise
    assert est.mean_t2 >= est.mean_t ** 2 - 4 * (est.se_t2 + 2 * est.mean_t * est.se_mean)


def test_pathwise_dominance_largest_gap_vs_midpoint():
    for k in (5, 64):
        times = route_times_batch(WarehouseConfig(k, 20.0, 2.5, 5 / 6), Geometric(1 / 16),
                                  PickTimeModel(0.0, 0.0), 20_000, seed=77)
        assert np.all(times["largest-gap"] <= times["midpoint"] + 1e-9), k


def test_cross_aisle_term_identical_given_kplus():
    # with zero pick times and a single-aisle warehouse all heuristics agree
    times = route_times_batch(WarehouseConfig(1, 20.0, 2.5, 1.0), Geometric(1 / 3),
                              PickTimeModel(0.0, 0.0), 5_000, seed=5)
    assert np.allclose(times["midpoint"], times["largest-gap"])
    assert np.all(times["return"] <= times["midpoint"] + 1e-9)


def test_empty_order_not_possible():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        assert sample_order(CFG, Geometric(0.9), rng).m >= 1


def test_run_replications_needs_two():
    with pytest.raises(ValueError):
        run_replications_all(CFG, Deterministic(1), PickTimeModel(0.0, 0.0), 1, 0)


def test_all_heuristics_share_samples():
    ests = run_replications_all(CFG, Deterministic(2), PickTimeModel(0.0, 0.0), 4000, seed=2)
    assert set(ests) == set(HEURISTICS)
    times = route_times_batch(CFG, Deterministic(2), PickTimeModel(0.0, 0.0), 4000, seed=2)
    for h in HEURISTICS:
        assert ests[h].mean_t == pytest.approx(times[h].mean(), rel=1e-14, abs=0)


def _lexsorted(cell, pos):
    order = np.lexsort((pos, cell))
    return cell[order], pos[order]


@pytest.mark.parametrize("spec", ["det:3", "geom:32", "snbin:3:9"])
@pytest.mark.parametrize("k", [1, 5, 64])
def test_sort_cells_matches_lexsort(spec, k):
    from pickroute.simulate import _rng_for_batch
    rng = _rng_for_batch(3, 0)
    b = 20_000
    m = parse_dist_spec(spec).sample(rng, size=b)
    cell = np.repeat(np.arange(0, b * k, k), m) + rng.integers(0, k, size=int(m.sum()))
    pos = rng.random(cell.size)
    sc, sp = _sort_cells(cell, pos, b * k)
    expect_c, expect_p = _lexsorted(cell, pos)
    assert np.array_equal(sc, expect_c) and np.array_equal(sp, expect_p)


def test_sort_cells_tie_falls_back_to_lexsort(monkeypatch):
    # 2**20 cells leave 44 position bits in the key, so p and its successor
    # tie; each of 64 cells holds the pair in reverse order
    p = 0.7
    cell = np.repeat(np.arange(64, dtype=np.int64), 2)
    pos = np.tile([np.nextafter(p, 1.0), p], 64)
    expect_c, expect_p = _lexsorted(cell, pos)
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    sc, sp = _sort_cells(cell, pos, 1 << 20)
    assert calls == [1]
    assert np.array_equal(sc, expect_c) and np.array_equal(sp, expect_p)
    assert np.all(sp[0::2] == p) and np.all(sp[1::2] == np.nextafter(p, 1.0))


def test_sort_cells_small_batch_uses_full_key(monkeypatch):
    # 2**3 cells and 2**8 items take 11 key bits, which leaves all 53
    # position bits (capped at 53), so even adjacent doubles never tie and no
    # fallback is taken
    rng = np.random.default_rng(5)
    cell = rng.integers(0, 1 << 3, size=1 << 8)
    pos = rng.random(cell.size)
    cell[:2] = 7
    pos[:2] = [np.nextafter(0.7, 1.0), 0.7]
    expect_c, expect_p = _lexsorted(cell, pos)
    monkeypatch.setattr(np, "lexsort", None)
    sc, sp = _sort_cells(cell, pos, 1 << 3)
    assert np.array_equal(sc, expect_c) and np.array_equal(sp, expect_p)


@pytest.mark.parametrize("cell_bits", [60, 62])
def test_sort_cells_without_position_bits_uses_lexsort(cell_bits, monkeypatch):
    # with 16 items (4 index bits) 2**60 cells leave no position bit in the
    # key, and 2**62 cells would not even fit the cell and index
    rng = np.random.default_rng(6)
    cell = rng.integers(0, 1 << cell_bits, size=16)
    cell[8:] = cell[:8]
    pos = rng.random(cell.size)
    expect_c, expect_p = _lexsorted(cell, pos)
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    sc, sp = _sort_cells(cell, pos, 1 << cell_bits)
    assert calls == [1]
    assert np.array_equal(sc, expect_c) and np.array_equal(sp, expect_p)
