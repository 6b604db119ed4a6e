"""Pricing a request trace under one policy, in two ways that must agree.

`run` replays the trace event by event: it asks the policy for a verdict
per request and turns verdicts into dollars, a recompute per miss, the
flat transmission price per request, and storage billed for the exact
hours each item spends resident. Residency intervals open when a verdict
stores an item and close at the earliest of its deadline, its capacity
eviction, or the final event of the trace. The policy classes plus `run`
are the oracle; every kind has one fast path whose ledger is `==` theirs.

Every fast path starts from one sort: `by_item` sorts the blocks of a
trace stably by item as they stream. Verdicts on the sorted requests
become residency runs one way, `_runs`: a run starts at a stored request
that does not continue its item's run and goes on through the item's
stored hits, so the i-th first and the i-th last request bound one run.
Every policy but LRU decides a request from its item's own previous or
next request: a `*_verdicts` function gives the policy's verdicts for all
sorted requests at once, and `run_length_ledger` stops each run at
min(until, its item's next request) and sorts the runs into the engine's
order. LRU is a stack algorithm (Mattson, Gecsei, Slutz and Traiger
1970). `lru_ledgers` reads each item's consecutive requests in the same
sort as its reuse pairs, and prices every capacity of a trace from two
facts:

- A request whose item was last requested at p hits at capacity c exactly
  when fewer than c distinct items were requested since p, its stack
  distance D: D < c. A first request misses at every capacity. Every
  request stores its item, so these hits fix the runs as a TTL kind's
  verdicts do, and each miss starts one run.
- Once c misses have filled the cache, every later miss evicts one run,
  in order of their last requests: the m-th eviction (from 0), at the
  (c + m)-th miss, closes the run whose last request is the m-th
  earliest. LRU evicts the resident whose last request is oldest, so no
  run is evicted before one whose last request came earlier. The runs
  never evicted stay resident to the end of the trace.

Both fast paths bill item-hours through `_item_hours`, in the engine's
order. A warmup threshold makes the ledger count only requests at or
after the threshold and only storage accrued from it onwards, while the
cache state is still built from the entire prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .analytic import CostModel, _check_int, _check_real, _validate_ttl, keeps
from .policies import PolicyVerdict, count_threshold
from .workload import Columns

__all__ = [
    "CostLedger",
    "InvariantViolation",
    "ItemOrder",
    "Policy",
    "Verdicts",
    "by_item",
    "cost_per_request",
    "global_ttl_verdicts",
    "individual_ttl_verdicts",
    "known_rate_verdicts",
    "lower_bound_verdicts",
    "lru_ledgers",
    "run",
    "run_length_ledger",
]


class InvariantViolation(RuntimeError):
    """A policy verdict or event ordering broke an engine invariant."""


class Policy(Protocol):
    def on_request(self, item: Hashable, now: float) -> PolicyVerdict: ...


@dataclass(frozen=True)
class CostLedger:
    """Dollar and event totals of one run.

    compute_dollars is exactly computes * compute price and
    transmission_dollars exactly requests * transmission price; storage is
    the sum of billed item-hours times the storage price.
    """

    requests: int
    hits: int
    computes: int
    compute_dollars: float
    storage_dollars: float
    transmission_dollars: float

    @classmethod
    def priced(cls, requests: int, hits: int, item_hours: float, costs: CostModel) -> "CostLedger":
        """The ledger of these counts and billed item-hours at `costs`."""
        computes = requests - hits
        return cls(
            requests=requests,
            hits=hits,
            computes=computes,
            compute_dollars=computes * costs.compute_per_item,
            storage_dollars=item_hours * costs.storage_per_item_hour,
            transmission_dollars=requests * costs.transmission_per_item,
        )

    @property
    def total_dollars(self) -> float:
        return self.compute_dollars + self.storage_dollars + self.transmission_dollars


def cost_per_request(ledger: CostLedger) -> float:
    """Average dollars per counted request. Errors on an empty ledger."""
    if ledger.requests == 0:
        raise ValueError("cost per request is undefined on a zero-request ledger")
    return ledger.total_dollars / ledger.requests


def _check_warmup(warmup: float) -> float:
    return _check_real("warmup", warmup, 0)


def run(
    trace: Iterable[tuple[float, Hashable]],
    policy: Policy,
    costs: CostModel,
    *,
    warmup: float = 0.0,
) -> CostLedger:
    """Replay `trace`, `(time, item)` pairs, under `policy` and price it
    with `costs`.

    The trace must be nondecreasing in time. With warmup > 0, requests
    before the threshold still drive the policy but are not counted, and
    residency intervals are clipped to their post-warmup part. An entirely
    pre-warmup trace yields a zero-request ledger.
    """
    warmup = _check_warmup(warmup)
    on_request = policy.on_request
    residency: dict[Hashable, list[float]] = {}
    item_hours = 0.0
    requests = 0
    hits = 0
    prev = -math.inf

    for time, item in trace:
        if not time >= prev:  # also catches NaN
            raise InvariantViolation(f"trace time regression: {time} after {prev}")
        prev = time

        hit, store_until, evicted = on_request(item, time)

        slot = residency.get(item)
        if hit:
            if slot is None or slot[1] < time:
                raise InvariantViolation(
                    f"policy reported a hit for {item} at {time} without residency"
                )
        elif slot is not None:
            # Residency lapsed at its deadline, before or at this miss.
            start, deadline = slot
            if deadline > time:
                raise InvariantViolation(
                    f"policy reported a miss for {item} at {time} while resident"
                )
            if deadline > warmup:
                item_hours += deadline - (start if start > warmup else warmup)
            del residency[item]
            slot = None

        if store_until is not None:
            if store_until < time:
                raise InvariantViolation(
                    f"store_until {store_until} lies before the request at {time}"
                )
            if slot is not None:
                slot[1] = store_until
            else:
                residency[item] = [time, store_until]
        elif slot is not None:
            # Hit whose verdict ends residency now (final kept gap).
            if time > warmup:
                item_hours += time - (slot[0] if slot[0] > warmup else warmup)
            del residency[item]

        if evicted:
            for victim in evicted:
                vslot = residency.pop(victim, None)
                if vslot is None:
                    raise InvariantViolation(f"eviction of non-resident item {victim}")
                if time > warmup:
                    item_hours += time - (vslot[0] if vslot[0] > warmup else warmup)

        if time >= warmup:
            requests += 1
            if hit:
                hits += 1

    # Residency still open ends at its deadline or at the last request (prev).
    for start, deadline in residency.values():
        end = prev if prev < deadline else deadline
        if end > warmup:
            item_hours += end - (start if start > warmup else warmup)

    return CostLedger.priced(requests, hits, item_hours, costs)


def _check_times(times: np.ndarray, prev: float) -> None:
    """Rejects a time below the one before it (`prev` before the first) or NaN."""
    before = np.concatenate(([prev], times[:-1]))
    bad = np.flatnonzero(~(times >= before))  # also catches NaN
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"trace time regression: {float(times[i])} after {float(before[i])}"
        )


# Steps of the chunked passes over a whole trace in `by_item` and
# `_item_hours`: they bound its working memory beyond the trace's times and
# sort keys.
_CHUNK = 1 << 13


def lru_ledgers(
    items: ItemOrder,
    capacities: Sequence[int],
    costs: CostModel,
    *,
    warmup: float = 0.0,
) -> list[CostLedger]:
    """The ledger `run` gives for `LruPolicy(c)` at each capacity c, all
    from one trace sorted by item.

    Its reuse pairs are each item's consecutive requests in that order.
    One pass finds each pair's stack distance, so every capacity's hits
    follow at once. Every request stores its item, so `_runs` pairs a
    capacity's hits into residency runs as it does a TTL kind's verdicts,
    and `_lru_item_hours` bills the runs; see the module docstring for why
    their eviction order is the order of their last requests.
    """
    capacities = [_check_int("capacity", c, 1) for c in capacities]
    warmup = _check_warmup(warmup)
    t = items.times
    distance = _stack_distances(t.size, items.order[1:][items.same], items.order[:-1][items.same])
    requests = int(np.count_nonzero(t >= warmup))
    ledgers = []
    for capacity in capacities:
        capacity = min(capacity, t.size)  # a larger cache behaves the same
        hit = np.zeros(t.size, dtype=bool)
        hit[1:][items.same] = distance < capacity
        hits = int(np.count_nonzero(hit & (t >= warmup)))
        item_hours = _lru_item_hours(items, hit, capacity, warmup)
        ledgers.append(CostLedger.priced(requests, hits, item_hours, costs))
    return ledgers


def _lru_item_hours(items: ItemOrder, hit: np.ndarray, capacity: int, warmup: float) -> float:
    """The item-hours of LRU at `capacity` from its hits on the sorted trace.

    Misses in trace order come in time order, and each starts one run, so
    the m-th eviction (from 0) happens at the (capacity + m)-th smallest
    run start; tied times are equal values, so no trace-order times are
    needed. A trace-sized slot array holds each run's first request at its
    last request's trace index, so read in trace order it gives the runs
    in order of their last request without a sort. The first of them are
    evicted in that order; the rest stay to the last request and are
    billed in order of their start, where tied starts bill equal hours.
    """
    first, last = _runs(items, np.broadcast_to(True, hit.shape), hit)
    slot = np.full(hit.size, -1, dtype=items.order.dtype)
    slot[items.order[last]] = np.flatnonzero(first)
    del first, last
    start = items.times[slot[slot >= 0]]  # the runs' starts, in eviction order
    del slot
    evicted_at = np.sort(start)[capacity:]
    total = _item_hours(start[: evicted_at.size], evicted_at, warmup)
    resident = start[evicted_at.size :]
    resident.sort()
    return _item_hours(resident, np.broadcast_to(items.t_end, resident.shape), warmup, total)


def by_item(blocks: Iterable[Columns]) -> ItemOrder:
    """Sort a trace, given as its `Columns` blocks, stably by item;
    rejects a time regression or NaN as the blocks pass.

    It keeps each block's times as they come, and writes one int64 per
    request, (movie << 32) + ad + 2**31, to a buffer that doubles as it
    fills, while both ids fit in int32. In place, those become unique
    keys, item * n + index for a trace of n requests, where item orders as
    the (movie, ad) pair does. So one in-place sort of them gives the
    stable order by item, key // n is the item again, and no n-sized
    int64 index array exists; the spent keys' buffer then takes the joined
    times. Ids too wide to pack, or keys too wide for int64, go through a
    stable lexsort of the joined ids.
    """
    parts = []
    codes = np.empty(0, dtype=np.int64)
    wide = None  # every block's (movies, ads), once one does not pack
    bounds = []
    n = 0
    last = -math.inf
    for times, movies, ads in blocks:
        if not times.size:
            continue
        _check_times(times, last)
        last = float(times[-1])
        parts.append(times)
        end = n + times.size
        ids = (int(movies.min()), int(ads.min()), int(movies.max()), int(ads.max()))
        bounds.append(ids)
        if wide is None and -(2**31) <= min(ids) and max(ids) < 2**31:
            if end > codes.size:
                # few copies, and the unwritten tail is never resident
                grown = np.empty(max(end, 2 * codes.size), dtype=np.int64)
                grown[:n] = codes[:n]
                codes = grown
            codes[n:end] = (movies << 32) + (ads + 2**31)
        else:
            if wide is None:
                wide = [_unpack(codes[:n])]
            wide.append((movies, ads))
        n = end
    index = np.int32 if n < 2**31 else np.int64
    if n == 0:
        return ItemOrder(np.empty(0, dtype=index), np.empty(0), np.empty(0, dtype=bool), 0.0)
    m0, a0 = (min(ids[i] for ids in bounds) for i in (0, 1))
    m1, a1 = (max(ids[i] for ids in bounds) for i in (2, 3))
    span = a1 - a0 + 1  # the item of (movie, ad) is (movie - m0) * span + ad - a0
    if wide is not None or (m1 - m0 + 1) * span * n > 2**63:
        movies, ads = map(np.concatenate, zip(*(wide or [_unpack(codes[:n])])))
        del codes, wide
        order = np.lexsort((ads, movies)).astype(index)
        same = np.ones(n - 1, dtype=bool)
        for ids in (movies, ads):
            ids = ids[order]
            same &= ids[1:] == ids[:-1]
        times = np.concatenate(parts)
    else:
        codes.resize(n, refcheck=False)
        for lo in range(0, n, _CHUNK):
            part = codes[lo : lo + _CHUNK]
            movies, ads = _unpack(part)
            part[:] = ((movies - m0) * span + ads - a0) * n + np.arange(lo, lo + part.size)
        codes.sort()
        order = np.empty(n, dtype=index)
        same = np.empty(n - 1, dtype=bool)
        for lo in range(0, n, _CHUNK):
            part = codes[lo : lo + _CHUNK + 1]
            order[lo : lo + _CHUNK] = part[:_CHUNK] % n
            item = part // n
            same[lo : lo + _CHUNK] = item[1:] == item[:-1]
        times = codes.view(np.float64)
        np.concatenate(parts, out=times)
    del parts
    return ItemOrder(order, times[order], same, last)


def _unpack(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (movies, ads) of `by_item`'s packed ids."""
    return codes >> 32, (codes & 0xFFFFFFFF) - 2**31


def _stack_distances(n: int, later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Per reuse pair, the number of distinct items requested strictly
    between its two requests, for a trace of n requests.

    That is the count of requests between them, less those whose own
    previous request also lies between them: the pairs whose later request
    comes before this pair's later one and whose earlier request comes
    after this pair's earlier one.
    """
    by_time = np.argsort(later)
    first = earlier[by_time]
    between = later[by_time]
    between -= first
    between -= 1
    between -= _earlier_larger(first, n)
    distance = np.empty_like(between)
    distance[by_time] = between
    return distance


def _earlier_larger(values: np.ndarray, bound: int) -> np.ndarray:
    """For each position, how many values before it are larger; `values`
    are distinct and in [0, bound).

    A bottom-up merge sort tree: at each width w, a value in the right
    half of an aligned run of 2w counts the larger values in the left
    half, by one sort and one searchsorted over every run at once.
    """
    r = values.size
    count = np.zeros(r, dtype=values.dtype)
    width = 1
    while width < r:
        right = (np.arange(r) & width) != 0
        key = np.arange(r) // (2 * width)
        key *= bound
        key += values
        left = key[~right]
        left.sort()
        key = key[right]
        below = np.searchsorted(left, key)
        # the left halves of the runs before run b fill the first b * width
        # sorted keys, and b = key // bound
        key //= bound
        key += 1
        key *= width
        key -= below
        count[right] += key
        width *= 2
    return count


class ItemOrder(NamedTuple):
    """A trace sorted stably by (movie, ad): each item's requests are
    consecutive and in time order. Built by `by_item`."""

    order: np.ndarray  # trace index of each sorted request; int32 while n < 2**31
    times: np.ndarray  # their times
    same: np.ndarray  # same[k]: sorted requests k and k + 1 are one item
    t_end: float


class Verdicts(NamedTuple):
    """A policy's verdicts on an `ItemOrder`, one entry per sorted request:
    whether it stores its item, until when, and whether it was a hit."""

    stored: np.ndarray
    until: np.ndarray
    hit: np.ndarray


def _after(same: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per sorted request k: flags[k - 1] if request k - 1 is of k's item."""
    out = np.zeros(flags.size, dtype=bool)
    out[1:] = same & flags[:-1]
    return out


def global_ttl_verdicts(items: ItemOrder, ttl: float) -> Verdicts:
    """`GlobalTtlPolicy(ttl)` on every request at once."""
    ttl = _validate_ttl(ttl)
    t = items.times
    until = t + ttl
    stored = np.full(t.size, ttl > 0.0)
    hit = _after(items.same, stored)
    hit[1:] &= until[:-1] >= t[1:]
    return Verdicts(stored, until, hit)


def individual_ttl_verdicts(items: ItemOrder, window: float, costs: CostModel) -> Verdicts:
    """`IndividualTtlPolicy(window, costs)` on every request at once.

    With K = count_threshold, request k stores its item when its item's
    K-th newest request so far, k - K + 1, lies inside (t - window, t].
    """
    t = items.times
    n = t.size
    needed = count_threshold(window, costs)
    if needed > n:  # no item has K requests; K may exceed int64
        none = np.zeros(n, dtype=bool)
        return Verdicts(none, t, none)
    firsts = np.flatnonzero(np.concatenate(([True], ~items.same)))
    mark = np.arange(n) - (needed - 1)
    has_mark = mark >= np.repeat(firsts, np.diff(np.append(firsts, n)))
    mark = t[np.where(has_mark, mark, 0)]
    stored = has_mark & (mark > t - window)
    until = mark + window
    hit = _after(items.same, stored)
    hit[1:] &= t[1:] < until[:-1]
    return Verdicts(stored, until, hit)


def lower_bound_verdicts(items: ItemOrder, costs: CostModel) -> Verdicts:
    """`LowerBoundPolicy(costs, next_request_times(trace))` on every request
    at once: a request stores its item until the item's next request when
    that gap is strictly shorter than C/S."""
    t = items.times
    until = np.append(t[1:], math.inf)
    stored = np.zeros(t.size, dtype=bool)
    stored[:-1] = items.same & (t[1:] - t[:-1] < costs.break_even_window())
    return Verdicts(stored, until, _after(items.same, stored))


def known_rate_verdicts(items: ItemOrder, rates: np.ndarray, costs: CostModel) -> Verdicts:
    """`PerfectRatePolicy` on every request at once; `rates` are the true
    item rates of the requests in trace order."""
    stored = keeps(rates, costs)[items.order]
    until = np.broadcast_to(math.inf, stored.shape)
    return Verdicts(stored, until, _after(items.same, stored))


def run_length_ledger(
    items: ItemOrder,
    verdicts: Verdicts,
    costs: CostModel,
    *,
    warmup: float = 0.0,
) -> CostLedger:
    """The ledger `run` gives for these verdicts, priced from columns.

    `_runs` pairs the verdicts into residency runs. A run stops at
    min(`until` at its end, its item's next request or the last trace
    time): a miss comes at or after `until`, a hit that does not store
    before it. The engine bills a run at that next request, or after all
    those, in order of its first request, if none comes; one sort of that
    trace-index key orders the runs.
    """
    warmup = _check_warmup(warmup)
    t = items.times
    stored, until, hit = verdicts
    counted = t >= warmup
    requests = int(np.count_nonzero(counted))
    hits = int(np.count_nonzero(hit & counted))
    starts, ends = map(np.flatnonzero, _runs(items, stored, hit))
    stop = until[ends]
    np.minimum(stop, items.t_end, out=stop)
    closed = np.append(items.same, False)[ends]
    ends = ends[closed] + 1  # the requests that stop the closed runs
    stop[closed] = np.minimum(stop[closed], t[ends])
    key = np.add(items.order[starts], t.size, dtype=np.int64)
    key[closed] = items.order[ends]
    # each run-sized array goes once read: at most four are alive at once
    del ends, closed
    start = t[starts]
    del starts
    by_key = np.argsort(key)
    del key
    start = start[by_key]
    stop = stop[by_key]
    return CostLedger.priced(requests, hits, _item_hours(start, stop, warmup), costs)


def _runs(items: ItemOrder, stored: np.ndarray, hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last request of each residency run, as masks over
    the sorted trace. A run starts at a stored request that does not
    continue its item's run and goes on through the item's stored hits, so
    the i-th first and the i-th last request bound one run."""
    goes_on = np.zeros(hit.size + 1, dtype=bool)  # request k continues k - 1's run
    goes_on[1:-1] = stored[:-1] & items.same & hit[1:] & stored[1:]
    return stored & ~goes_on[:-1], stored & ~goes_on[1:]


def _item_hours(start: np.ndarray, stop: np.ndarray, warmup: float, total: float = 0.0) -> float:
    """`total` plus the item-hours of residency runs from `start` to `stop`,
    given in the engine's order: from the start, or the warmup if later, to
    the stop, if that is after the warmup. They are added in sequence, in
    `_CHUNK` steps, as the engine adds them; np.sum (pairwise) would round
    differently."""
    for lo in range(0, start.size, _CHUNK):
        part = stop[lo : lo + _CHUNK]
        hours = part - np.maximum(start[lo : lo + _CHUNK], warmup)
        total = float(np.cumsum(np.concatenate(([total], hours[part > warmup])))[-1])
    return total
