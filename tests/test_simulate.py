import math

import numpy as np
import pytest

from pickroute import (
    Deterministic,
    Geometric,
    HEURISTICS,
    PickTimeModel,
    WarehouseConfig,
    route_time,
    parse_dist_spec,
    run_replications_all,
    sample_order,
)
from pickroute.simulate import SampledOrder, _sort_cells, route_times_batch

CFG = WarehouseConfig(3, 20.0, 2.5, 1.0)


def test_sample_order_shapes():
    rng = np.random.default_rng(0)
    order = sample_order(WarehouseConfig(1, 10.0, 1.0, 1.0), Deterministic(1), rng)
    assert order.m == 1
    aisle, pos = order.items[0]
    assert aisle == 1 and 0.0 <= pos <= 1.0


def test_sample_order_uniformity():
    rng = np.random.default_rng(3)
    cfg = WarehouseConfig(2, 10.0, 1.0, 1.0)
    n = 200_000
    sizes = []
    in_first = 0
    total = 0
    for _ in range(n):
        order = sample_order(cfg, Deterministic(4), rng)
        sizes.append(order.m)
        in_first += sum(1 for a, _ in order.items if a == 1)
        total += order.m
    assert set(sizes) == {4}
    frac = in_first / total
    se = math.sqrt(0.25 / total)
    assert abs(frac - 0.5) < 4 * se


def test_sample_order_geometric_mean():
    rng = np.random.default_rng(4)
    cfg = WarehouseConfig(2, 10.0, 1.0, 1.0)
    sizes = np.array([sample_order(cfg, Geometric(0.5), rng).m for _ in range(200_000)], float)
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


def test_vectorized_engine_matches_scalar_reference():
    cfg = WarehouseConfig(4, 17.0, 2.0, 1.3)
    dist = Geometric(1 / 5)
    pick = PickTimeModel(0.0, 0.0)  # no pick time so draws align exactly
    n = 300
    times = route_times_batch(cfg, dist, pick, n, seed=123)
    # replay the same stream scalar-wise
    from pickroute.simulate import _rng_for_batch
    rng = _rng_for_batch(123, 0)
    m = dist.sample(rng, size=n)
    total = int(m.sum())
    oid = np.repeat(np.arange(n), m)
    aisle = rng.integers(0, cfg.k, size=total)
    pos = rng.random(total)
    for i in range(n):
        sel = oid == i
        order = SampledOrder(int(m[i]), tuple(
            (int(a) + 1, float(p)) for a, p in zip(aisle[sel], pos[sel])))
        for h in HEURISTICS:
            expect = route_time(cfg, h, order, [0.0] * order.m)
            assert times[h][i] == pytest.approx(expect, rel=1e-12), (h, i)


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
    times = route_times_batch(WarehouseConfig(5, 20.0, 2.5, 5 / 6), Geometric(1 / 16),
                              PickTimeModel(0.0, 0.0), 20_000, seed=77)
    assert np.all(times["largest-gap"] <= times["midpoint"] + 1e-9)


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
        assert ests[h].mean_t == pytest.approx(times[h].mean(), rel=1e-14)


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
    # with 2**11 cells or fewer all 53 position bits fit (the shift is capped
    # at 53), so even adjacent doubles never tie and no fallback is taken
    rng = np.random.default_rng(5)
    cell = rng.integers(0, 1 << 8, size=50_000)
    pos = rng.random(cell.size)
    cell[:2] = 7
    pos[:2] = [np.nextafter(0.7, 1.0), 0.7]
    expect_c, expect_p = _lexsorted(cell, pos)
    monkeypatch.setattr(np, "lexsort", None)
    sc, sp = _sort_cells(cell, pos, 1 << 8)
    assert np.array_equal(sc, expect_c) and np.array_equal(sp, expect_p)
