"""Monte Carlo oracle: sample orders, evaluate the route-time equations
directly, and estimate picking-time moments with standard errors.

Each route-time equation is evaluated literally on sampled orders, so the
simulator shares no code with the analytic moment formulas.  The engine is
vectorized; tests pin it to an item-by-item scalar evaluation of the same
equations (``route_time`` in ``tests/oracles.py``).

Reproducibility: replications are processed in fixed-size batches, each with
its own counter-based Philox stream keyed by (seed, batch index), so identical
(seed, n) always produce bit-identical estimates.

A batch draws its sizes and aisles and is cut at order boundaries into chunks
of about ``_CHUNK`` items of whole orders.  The aisles are drawn in 32-bit
words, as numpy draws any bound below 2**32 whatever the output type, so the
values and the stream are those of an int64 draw; they are kept in the
narrowest unsigned type that holds k - 1, one byte an item up to k = 256
instead of eight.  They are drawn once per batch, not per chunk: freeing
that batch-sized array lifts glibc's dynamic mmap and trim thresholds, after
which the chunks' temporaries are reused from the heap instead of being
mapped and faulted in again on every chunk.  The chunks run in parallel on a
thread pool with one worker per usable CPU.  The calling thread draws only
the sizes and the aisles, keeps the generator's state after them, and queues
every task at once; no limit on tasks in flight is needed, as a queued task
holds views of the batch and no draws.  The stream is read in one fixed
order, as if drawn serially: sizes, aisles, every item's position in item
order, then the pick sums, last as a gamma draw takes a variable number of
outputs.  Philox is counter-based, so a copy of the kept state moves exactly
to any output (``_jumped``): each chunk task draws its positions from a copy
moved past the items before its first, and one task draws the pick sums from
a copy moved past all items.  Every task writes its orders' sums into their
rows of six preallocated batch arrays, from which the route times are formed
once per batch, so neither the worker count nor the order in which tasks
finish can change a bit.

A chunk is sorted by (cell, position) with one in-place value sort of a
packed uint64 key: the cell in the high bits, the leading bits of the
position's integer ``pos * 2**53`` next, and the item's index in the low bits,
which reads the positions back with one gather.  If two positions in one cell
tied on their bits and came out swapped, the chunk is sorted again with
``np.lexsort``.  Per-order sums are ``np.bincount`` sums over occupied cells
only, so memory is O(items) whatever k; the largest-gap and half-aisle maxima
are kept for interior cells only (neither the first nor the last occupied
cell of an order), the only ones that enter those sums.  The sums equal a row
sum over all k aisles to the bit for k < 8; from k = 8 numpy's pairwise row
sum differs by < 1e-15 relative.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .heuristics import HEURISTICS, PickTimeModel, WarehouseConfig
from .orderdist import OrderSizeDistribution, as_count

__all__ = ["McEstimate", "run_replications_all"]

_BATCH = 1 << 17  # fixed batch size; part of the reproducible stream layout
_CHUNK = 1 << 16  # items sorted and reduced at once; chunks hold whole orders


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


def _pick_sums(pick: PickTimeModel, m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Total pick time per order: gamma with matched first two moments."""
    scv = pick.scv
    if scv <= 0.0:   # at mean 0 too, where the SCV is 0: no draw
        return m * pick.mean
    shape = 1.0 / scv
    scale = pick.mean * scv
    return rng.gamma(shape * m, scale)


def _sort_cells(cell: np.ndarray, pos: np.ndarray, n_cells: int):
    """Items sorted by (cell, position), exactly as ``np.lexsort((pos, cell))``.

    One uint64 key per item holds the cell in its high bits, then the leading
    ``pb`` bits of the integer ``pos * 2**53`` (pos in [0, 1)), then the item's
    index in its low bits; the key is sorted by value and the index reads the
    positions back.
    """
    index_bits = (max(cell.size, 1) - 1).bit_length()
    pb = min(53, 64 - (n_cells - 1).bit_length() - index_bits)
    if pb >= 1:
        shift = np.uint64(pb + index_bits)
        key = cell.astype(np.uint64)
        key <<= shift
        # pos * 2**pb is exact, so truncation keeps the leading pb bits of pos * 2**53
        bits = (pos * 2.0 ** pb).astype(np.uint64)
        bits <<= np.uint64(index_bits)
        key |= bits
        key |= np.arange(cell.size, dtype=np.uint64)
        key.sort()
        np.bitwise_and(key, np.uint64((1 << index_bits) - 1), out=bits)
        sp = np.take(pos, bits.view(np.intp))
        key >>= shift
        sc = key.view(np.int64)
        # positions in one cell that tied on the key may have come out swapped
        if not np.any((sc[1:] == sc[:-1]) & (sp[1:] < sp[:-1])):
            return sc, sp
    order = np.lexsort((pos, cell))
    return cell[order], pos[order]


def _workers() -> int:
    """CPUs this process may run on: one pool thread each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _chunk_sums(k: int, aisle: np.ndarray, pos: np.ndarray, m: np.ndarray):
    """Per-order sums of consecutive orders (sizes m, items in order), over the
    occupied cells of the chunk sorted by (cell, position).

    Returns kplus, the occupied-aisle count, the furthest item in aisle kplus
    and the return, midpoint and largest-gap within-aisle sums.
    """
    n = m.size
    base = np.arange(0, n * k, k)  # each order's cell of aisle 1
    sc, sp = _sort_cells(aisle + np.repeat(base, m), pos, n * k)
    new_cell = np.concatenate(([True], sc[1:] != sc[:-1]))
    starts = np.flatnonzero(new_cell)
    ends = np.append(starts[1:], sc.size)
    cells = sc[starts]
    oid = cells // k
    # furthest item: positions are sorted within each cell
    a = sp[ends - 1]

    # every order has an item, so it owns a run of occupied cells: the first
    # and last are aisles kminus and kplus, the others are interior
    new_order = oid[1:] != oid[:-1]
    last = np.append(np.flatnonzero(new_order), oid.size - 1)
    s_mid, s_gap = np.zeros((2, n))
    inner = np.flatnonzero(~(new_order[1:] | new_order[:-1])) + 1
    if inner.size:
        i_start, i_end, i_oid = starts[inner], ends[inner], oid[inner]
        # largest gap: max of (first position, inner spacings, trailing space)
        gap_before = np.empty_like(sp)
        np.subtract(sp[1:], sp[:-1], out=gap_before[1:])
        gap_before[starts] = sp[starts]
        gap = np.zeros(starts.size)
        np.maximum.at(gap, np.cumsum(new_cell) - 1, gap_before)
        d = np.maximum(gap[inner], 1.0 - a[inner])
        # half-aisle maxima, as fractions of the half length: front-half
        # items come first in a cell, so its back half starts at `split`
        n_front = np.empty(sc.size + 1, dtype=np.intp)
        n_front[0] = 0
        np.cumsum(sp < 0.5, out=n_front[1:])
        split = i_start + (n_front[i_end] - n_front[i_start])
        af = np.where(split > i_start, sp[split - 1], 0.0) * 2.0
        ab = np.where(split < i_end, 1.0 - sp[split], 0.0) * 2.0
        s_mid = np.bincount(i_oid, weights=af + ab, minlength=n)
        s_gap = np.bincount(i_oid, weights=1.0 - d, minlength=n)
    return (cells[last] - base + 1,
            np.bincount(oid, minlength=n),
            a[last],
            np.bincount(oid, weights=a, minlength=n),
            s_mid, s_gap)


def _aisles(rng: np.random.Generator, k: int, size: int) -> np.ndarray:
    """``size`` aisles in 0..k-1, the values and stream of an int64 draw, in
    the narrowest unsigned type that holds k - 1."""
    if k > 1 << 32:
        return rng.integers(0, k, size=size)
    # numpy draws a bound below 2^32 from 32-bit words whatever the output type
    return rng.integers(0, k, size=size, dtype=np.uint32).astype(np.min_scalar_type(k - 1), copy=False)


def _jumped(state: dict, n: int) -> np.random.Generator:
    """A generator whose next 64-bit output is the one n outputs past the
    Philox ``state``.

    Philox makes four outputs per counter step: the rest of ``buffer`` comes
    first, then ``advance`` moves whole steps and ``random_raw`` discards the
    remainder.  ``advance`` also clears the 32-bit half-word kept for 32-bit
    draws, which ``random`` and ``gamma`` never read.
    """
    bitgen = np.random.Philox()
    bitgen.state = state
    rest = 4 - state["buffer_pos"]
    if n > rest:
        bitgen.advance((n - rest) // 4)  # also empties the buffer
        n = (n - rest) % 4
    bitgen.random_raw(n)
    return np.random.Generator(bitgen)


def _chunk_task(k: int, aisle: np.ndarray, m: np.ndarray, state: dict, first: int,
                out: list, lo: int) -> None:
    """Draw a chunk's positions, its first item being output ``first`` past
    ``state``, and write its orders' sums into ``out`` from row ``lo``."""
    pos = _jumped(state, first).random(aisle.size)
    for column, sums in zip(out, _chunk_sums(k, aisle, pos, m)):
        column[lo:lo + m.size] = sums


def _batch_route_times(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                       pick: PickTimeModel, b: int, rng: np.random.Generator):
    """Route times for b orders, all heuristics at once (shared samples).

    The calling thread draws the sizes and aisles and queues every task at
    once: each chunk task draws its positions and the pick task the pick
    sums, from the state after the aisles moved to their place in the stream.
    """
    l, wa, v = cfg.l, cfg.wa, cfg.v
    m = dist.sample(rng, size=b)
    first = np.cumsum(m) - m  # index of each order's first item
    items = int(first[-1] + m[-1])
    aisle = _aisles(rng, cfg.k, items)
    state = rng.bit_generator.state

    # cut before the first order that starts at or after each multiple of _CHUNK
    cuts = np.unique(np.searchsorted(first, np.arange(_CHUNK, first[-1] + 1, _CHUNK)))
    lo = np.concatenate(([0], cuts))  # each chunk's first order
    orders = np.append(lo, b).tolist()
    starts = np.append(first[lo], items).tolist()  # and first item
    out = [*np.empty((2, b), dtype=np.int64), *np.empty((4, b))]
    with ThreadPoolExecutor(_workers()) as pool:
        pick_task = pool.submit(_pick_sums, pick, m, _jumped(state, items))
        tasks = [pool.submit(_chunk_task, cfg.k, aisle[i:j], m[o:p], state, i, out, o)
                 for o, p, i, j in zip(orders, orders[1:], starts, starts[1:])]
        for task in tasks:
            task.result()
        picks = pick_task.result()
    kplus, n_occ, a_last, s_ret, s_mid, s_gap = out

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


def run_replications_all(cfg: WarehouseConfig, dist: OrderSizeDistribution,
                         pick: PickTimeModel, n: int, seed: int) -> dict[str, McEstimate]:
    """Moment estimates for every heuristic from one shared set of samples."""
    n = as_count(n, "replication count n", least=2)
    seed = as_count(seed, "seed", least=0)
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
