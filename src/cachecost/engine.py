"""Pricing a request trace under one policy, in two ways that must agree.

`run` replays the trace event by event: it asks the policy for a verdict
per request and turns verdicts into dollars, a recompute per miss, the
flat transmission price per request, and storage billed for the exact
hours each item spends resident. Residency intervals open when a verdict
stores an item and close at the earliest of its deadline, its capacity
eviction, or the final event of the trace. LRU is priced this way, and
the policy classes plus `run` are the oracle for the columnar path.

Every other policy decides a request from its item's own previous or next
request. `by_item` sorts a columnar trace by item, a `*_verdicts`
function gives the policy's verdicts for all requests at once, and
`run_length_ledger` prices them as residency runs. Its ledger is `==` the
one `run` gives.

A warmup threshold makes the ledger count only requests at or after the
threshold and only storage accrued from it onwards, while the cache state
is still built from the entire prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Protocol

import numpy as np

from .analytic import CostModel, _validate_ttl, keeps
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
    warmup = float(warmup)
    if not (math.isfinite(warmup) and warmup >= 0.0):
        raise ValueError(f"warmup must be finite and >= 0, got {warmup!r}")
    return warmup


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


class ItemOrder(NamedTuple):
    """A trace sorted stably by (movie, ad): each item's requests are
    consecutive and in time order. Built by `by_item`."""

    order: np.ndarray  # trace index of each sorted request
    times: np.ndarray  # their times
    same: np.ndarray  # same[k]: sorted requests k and k + 1 are one item
    t_end: float


class Verdicts(NamedTuple):
    """A policy's verdicts on an `ItemOrder`, one entry per sorted request:
    whether it stores its item, until when, and whether it was a hit."""

    stored: np.ndarray
    until: np.ndarray
    hit: np.ndarray


def by_item(trace: Columns) -> ItemOrder:
    """Sort a time-ordered trace by item; rejects a time regression or NaN."""
    times = trace.times
    n = times.size
    prev = np.concatenate(([-math.inf], times[:-1]))
    bad = np.flatnonzero(~(times >= prev))  # also catches NaN
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"trace time regression: {float(times[i])} after {float(prev[i])}"
        )
    order = np.lexsort((trace.ads, trace.movies))
    same = np.ones(max(n - 1, 0), dtype=bool)
    for ids in (trace.movies, trace.ads):
        ids = ids[order]
        same &= ids[1:] == ids[:-1]
    return ItemOrder(order, times[order], same, float(times[-1]) if n else 0.0)


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

    A residency run opens at a stored request with no run open, or at a
    stored miss. A miss closes the open run at the previous request's
    `until`, and a hit that does not store closes it at the hit. Runs still
    open at the end are clipped at the last trace time. Item-hours are
    summed sequentially in the order the engine adds them: closed runs by
    the trace index of the request that closes them, then open runs by the
    trace index of their first request.
    """
    warmup = _check_warmup(warmup)
    t = items.times
    stored, until, hit = verdicts
    counted = t >= warmup
    requests = int(np.count_nonzero(counted))
    hits = int(np.count_nonzero(hit & counted))
    item_hours = 0.0
    # is_open[k]: a run of request k's item is open when request k arrives.
    is_open = _after(items.same, stored)
    starts = np.flatnonzero(stored & ~(is_open & hit))
    closers = np.flatnonzero(is_open & ~(hit & stored))
    if starts.size:
        begin = t[starts]
        begin = np.where(begin > warmup, begin, warmup)
        # Each closer ends the run its item opened last before it.
        ended = np.searchsorted(starts, closers) - 1
        stop = np.where(hit[closers], t[closers], until[closers - 1])
        by_close = np.argsort(items.order[closers])
        stop = stop[by_close]
        closed_hours = (stop - begin[ended[by_close]])[stop > warmup]
        still_open = np.ones(starts.size, dtype=bool)
        still_open[ended] = False
        first = starts[still_open]
        # An open run lasts to its item's last request.
        item_ends = np.append(np.flatnonzero(~items.same), t.size - 1)
        stop = until[item_ends[np.searchsorted(item_ends, first)]]
        stop = np.where(items.t_end < stop, items.t_end, stop)
        by_first = np.argsort(items.order[first])
        stop = stop[by_first]
        open_hours = (stop - begin[still_open][by_first])[stop > warmup]
        hours = np.concatenate((closed_hours, open_hours))
        if hours.size:
            # cumsum adds in sequence, as the engine does; np.sum (pairwise)
            # and math.fsum would round differently.
            item_hours = float(np.cumsum(hours)[-1])
    return CostLedger.priced(requests, hits, item_hours, costs)
