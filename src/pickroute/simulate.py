"""Monte Carlo oracle: sample orders, evaluate the route-time equations
directly, and estimate picking-time moments with standard errors.

Each route-time equation is evaluated literally on sampled orders, so the
simulator shares no code with the analytic moment formulas.  A scalar
reference implementation (:func:`route_time`) defines the semantics; the
replication driver uses an equivalent vectorized engine (consistency between
the two is pinned by tests).

Reproducibility: replications are processed in fixed-size batches, each with
its own counter-based Philox stream keyed by (seed, batch index), so identical
(seed, n) always produce bit-identical estimates.

A batch draws its sizes and aisles and is cut at order boundaries into chunks
of about ``_CHUNK`` items of whole orders.  The chunks run in parallel on a
thread pool with one worker per usable CPU.  Each chunk's positions are drawn
as it is submitted, and the pick sums after the last chunk's positions; only
the calling thread draws, so the stream is read in one fixed order.  The
per-order sums come back in submission order and the route times are formed
from them once per batch, so neither the worker count nor the order in which
chunks finish can change a bit.

A chunk is sorted with one argsort of a packed (cell, position) key, redone
with ``np.lexsort`` if two positions tied on it, and reduced by per-order
``np.bincount`` sums over occupied cells only, so memory is O(items) whatever
k.  They equal a row sum over all k aisles to the bit for k < 8; from k = 8
numpy's pairwise row sum differs by < 1e-15 relative.
"""
from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .heuristics import HEURISTICS, PickTimeModel, WarehouseConfig
from .orderdist import OrderSizeDistribution

__all__ = ["SampledOrder", "McEstimate", "sample_order", "route_time",
           "run_replications_all", "route_times_batch"]

_BATCH = 1 << 17  # fixed batch size; part of the reproducible stream layout
_CHUNK = 1 << 16  # items sorted and reduced at once; chunks hold whole orders


@dataclass(frozen=True)
class SampledOrder:
    m: int
    items: tuple  # ((aisle in 1..k, position in [0,1]), ...)


@dataclass(frozen=True)
class McEstimate:
    n: int
    mean_t: float
    se_mean: float
    mean_t2: float
    se_t2: float


def _rng_for_batch(seed: int, batch: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(batch,))
    return np.random.Generator(np.random.Philox(ss))


def sample_order(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                 rng: np.random.Generator) -> SampledOrder:
    """One order: size from the distribution, uniform aisle and position per item."""
    m = int(dist.sample(rng))
    aisles = rng.integers(1, cfg.k + 1, size=m)
    positions = rng.random(m)
    return SampledOrder(m, tuple((int(a), float(p)) for a, p in zip(aisles, positions)))


def route_time(cfg: WarehouseConfig, heuristic: str, order: SampledOrder,
               pick_samples) -> float:
    """Total picking time of one order under the named heuristic.

    ``pick_samples`` holds one pick duration per item.  Largest gaps count the
    spacings to both aisle ends; the midpoint split sends an item exactly at
    the middle to the back half.
    """
    if order.m < 1 or not order.items:
        raise ValueError("route_time requires a nonempty order")
    if len(pick_samples) != order.m:
        raise ValueError("pick_samples length must equal the order size")
    k, l, wa, v = cfg.k, cfg.l, cfg.wa, cfg.v

    per_aisle: dict[int, list[float]] = {}
    for aisle, pos in order.items:
        per_aisle.setdefault(aisle, []).append(pos)
    kplus = max(per_aisle)
    kminus = min(per_aisle)
    t_pick = float(sum(pick_samples))
    t_cross = (2.0 * wa / v) * (kplus - 1)

    if heuristic == "return":
        within = sum(max(ps) for ps in per_aisle.values())
        return t_pick + (2.0 * l / v) * within + t_cross

    if heuristic == "midpoint":
        within = 0.0
        for aisle in range(kminus + 1, kplus):
            ps = per_aisle.get(aisle)
            if not ps:
                continue
            front = [p for p in ps if p < 0.5]
            back = [p for p in ps if p >= 0.5]
            a_f = max(front) / 0.5 if front else 0.0
            a_b = (1.0 - min(back)) / 0.5 if back else 0.0
            within += a_f + a_b
        return t_pick + (l / v) * within + 2.0 * l / v + t_cross

    if heuristic == "largest-gap":
        within = 0.0
        for aisle in range(kminus + 1, kplus):
            ps = per_aisle.get(aisle)
            if not ps:
                continue  # empty aisle: the whole aisle is the gap
            sp = sorted(ps)
            gaps = [sp[0]] + [b - a for a, b in zip(sp, sp[1:])] + [1.0 - sp[-1]]
            within += 1.0 - max(gaps)
        return t_pick + (2.0 * l / v) * within + 2.0 * l / v + t_cross

    if heuristic == "s-shaped":
        occupied = len(per_aisle)
        odd = occupied % 2
        a_last = max(per_aisle[kplus])
        return t_pick + (l / v) * (occupied + odd * (2.0 * a_last - 1.0)) + t_cross

    raise ValueError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")


def _pick_sums(pick: PickTimeModel, m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Total pick time per order: gamma with matched first two moments."""
    scv = pick.scv
    if pick.mean == 0.0:
        return np.zeros(m.shape)
    if scv <= 0.0:
        return m * pick.mean
    shape = 1.0 / scv
    scale = pick.mean * scv
    return rng.gamma(shape * m, scale)


def _sort_cells(cell: np.ndarray, pos: np.ndarray, n_cells: int):
    """Items sorted by (cell, position), exactly as ``np.lexsort((pos, cell))``.

    The uint64 key holds the cell in its high bits and the leading ``shift``
    bits of the integer ``pos * 2**53`` (pos in [0, 1)) in its low bits.
    """
    shift = min(53, 64 - (n_cells - 1).bit_length())
    key = cell.astype(np.uint64) << np.uint64(shift)
    key |= (pos * 2.0 ** 53).astype(np.uint64) >> np.uint64(53 - shift)
    order = np.argsort(key)
    sc, sp = cell[order], pos[order]
    # positions in one cell that tied on the key may have come out swapped
    if np.any((sc[1:] == sc[:-1]) & (sp[1:] < sp[:-1])):
        order = np.lexsort((pos, cell))
        sc, sp = cell[order], pos[order]
    return sc, sp


def _workers() -> int:
    """CPUs this process may run on: one pool thread each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _chunk_sums(k: int, aisle: np.ndarray, pos: np.ndarray, m: np.ndarray):
    """Per-order sums of consecutive orders (sizes m, items in order), over occupied cells only.

    Returns kplus, the occupied-aisle count, the furthest item in aisle kplus
    and the return, midpoint and largest-gap within-aisle sums.
    """
    n = m.size
    sc, sp = _sort_cells(aisle + np.repeat(np.arange(0, n * k, k), m), pos, n * k)
    starts = np.flatnonzero(np.concatenate(([True], sc[1:] != sc[:-1])))
    ends = np.append(starts[1:], sc.size)
    oid, cell_aisle = np.divmod(sc[starts], k)

    # furthest item: positions are sorted within each cell
    a = sp[ends - 1]
    # largest gap: max of (first position, inner spacings, trailing space)
    gap_before = np.diff(sp, prepend=0.0)
    gap_before[starts] = sp[starts]
    d = np.maximum(np.maximum.reduceat(gap_before, starts), 1.0 - a)
    # half-aisle maxima, as fractions of the half length: front-half items
    # come first in a cell, so its back half starts at index `split`
    n_front = np.concatenate(([0], np.cumsum(sp < 0.5)))
    split = starts + (n_front[ends] - n_front[starts])
    af = np.where(split > starts, sp[split - 1], 0.0) * 2.0
    ab = np.where(split < ends, 1.0 - sp[np.minimum(split, sc.size - 1)], 0.0) * 2.0

    # every order has an item, so it owns a run of occupied cells: the first
    # and last are aisles kminus and kplus, the others are interior
    new_order = oid[1:] != oid[:-1]
    o_last = np.concatenate((new_order, [True]))
    interior = ~(np.concatenate(([True], new_order)) | o_last)
    return (cell_aisle[o_last] + 1,
            np.bincount(oid, minlength=n),
            a[o_last],
            np.bincount(oid, weights=a, minlength=n),
            np.bincount(oid, weights=(af + ab) * interior, minlength=n),
            np.bincount(oid, weights=(1.0 - d) * interior, minlength=n))


def _batch_route_times(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                       pick: PickTimeModel, b: int, rng: np.random.Generator):
    """Route times for b orders, all heuristics at once (shared samples).

    At most two chunks per worker are in flight, so the positions drawn ahead
    of the workers stay a few chunks long.
    """
    l, wa, v = cfg.l, cfg.wa, cfg.v
    m = dist.sample(rng, size=b)
    aisle = rng.integers(0, cfg.k, size=int(m.sum()))

    # cut before the first order that starts at or after each multiple of _CHUNK
    first = np.cumsum(m) - m  # index of each order's first item
    cuts = np.unique(np.searchsorted(first, np.arange(_CHUNK, first[-1] + 1, _CHUNK)))
    workers = _workers()
    sums, running = [], deque()
    with ThreadPoolExecutor(workers) as pool:
        for chunk_aisle, chunk_m in zip(np.split(aisle, first[cuts]), np.split(m, cuts)):
            if len(running) == 2 * workers:
                sums.append(running.popleft().result())
            running.append(pool.submit(_chunk_sums, cfg.k, chunk_aisle,
                                       rng.random(chunk_aisle.size), chunk_m))
        picks = _pick_sums(pick, m, rng)
        sums += [future.result() for future in running]
    kplus, n_occ, a_last, s_ret, s_mid, s_gap = map(np.concatenate, zip(*sums))

    cross = (2.0 * wa / v) * (kplus - 1)
    return {
        "return": picks + (2.0 * l / v) * s_ret + cross,
        "midpoint": picks + (l / v) * s_mid + 2.0 * l / v + cross,
        "largest-gap": picks + (2.0 * l / v) * s_gap + 2.0 * l / v + cross,
        "s-shaped": picks + (l / v) * (n_occ + n_occ % 2 * (2.0 * a_last - 1.0)) + cross,
    }


def _batches(cfg: WarehouseConfig, dist: OrderSizeDistribution,
             pick: PickTimeModel, n: int, seed: int):
    """Route times of n orders, one dict per batch of the reproducible stream."""
    for batch, done in enumerate(range(0, n, _BATCH)):
        yield _batch_route_times(cfg, dist, pick, min(_BATCH, n - done),
                                 _rng_for_batch(seed, batch))


def route_times_batch(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                      pick: PickTimeModel, n: int, seed: int) -> dict[str, np.ndarray]:
    """Per-order route times for all heuristics with shared samples."""
    batches = list(_batches(cfg, dist, pick, n, seed))
    return {h: np.concatenate([times[h] for times in batches]) for h in HEURISTICS}


def run_replications_all(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                         pick: PickTimeModel, n: int, seed: int) -> dict[str, McEstimate]:
    """Moment estimates for every heuristic from one shared set of samples."""
    if n < 2:
        raise ValueError(f"need at least 2 replications, got {n}")
    sums = {h: [0.0, 0.0, 0.0] for h in HEURISTICS}  # sum t, t^2, t^4
    for times in _batches(cfg, dist, pick, n, seed):
        for h in HEURISTICS:
            t = times[h]
            t2 = t * t
            s = sums[h]
            s[0] += float(np.sum(t))
            s[1] += float(np.sum(t2))
            s[2] += float(np.sum(t2 * t2))

    out = {}
    for h in HEURISTICS:
        s1, s2, s4 = sums[h]
        mean_t = s1 / n
        mean_t2 = s2 / n
        var_t = max(s2 / n - mean_t ** 2, 0.0) * n / (n - 1)
        var_t2 = max(s4 / n - mean_t2 ** 2, 0.0) * n / (n - 1)
        out[h] = McEstimate(n, mean_t, math.sqrt(var_t / n), mean_t2, math.sqrt(var_t2 / n))
    return out
