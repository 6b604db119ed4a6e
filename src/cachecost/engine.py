"""Discrete-event replay of a request stream under one policy.

The engine walks the trace once, asks the policy for a verdict per
request, and turns verdicts into dollars: a recompute per miss, the flat
transmission price per request, and storage billed for the exact hours
each item spends resident. Residency intervals open when a verdict stores
an item and close at the earliest of its deadline, its capacity eviction,
or the final event of the trace.

A warmup threshold makes the ledger count only requests at or after the
threshold and only storage accrued from it onwards, while the cache state
is still built from the entire prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from .analytic import CostModel, _validate_ttl
from .policies import PolicyVerdict
from .workload import Columns, ItemId, Request

__all__ = [
    "CostLedger",
    "InvariantViolation",
    "Policy",
    "cost_per_request",
    "global_ttl_ledger",
    "run",
]


class InvariantViolation(RuntimeError):
    """A policy verdict or event ordering broke an engine invariant."""


class Policy(Protocol):
    def on_request(self, item: ItemId, now: float) -> PolicyVerdict: ...


@dataclass(frozen=True)
class CostLedger:
    """Dollar and event totals of one run.

    compute_dollars is exactly computes * compute price and
    transmission_dollars exactly requests * transmission price; storage is
    the sum of billed item-hours times the storage price. span is the time
    from first to last trace event regardless of warmup.
    """

    requests: int
    hits: int
    computes: int
    compute_dollars: float
    storage_dollars: float
    transmission_dollars: float
    span: float

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
    trace: Iterable[Request],
    policy: Policy,
    costs: CostModel,
    *,
    warmup: float = 0.0,
) -> CostLedger:
    """Replay `trace` under `policy` and price it with `costs`.

    The trace must be nondecreasing in time. With warmup > 0, requests
    before the threshold still drive the policy but are not counted, and
    residency intervals are clipped to their post-warmup part. An entirely
    pre-warmup trace yields a zero-request ledger.
    """
    warmup = _check_warmup(warmup)
    on_request = policy.on_request
    residency: dict[ItemId, list[float]] = {}
    item_hours = 0.0
    requests = 0
    hits = 0
    t_first = None
    prev = -math.inf

    for time, item in trace:
        if not time >= prev:  # also catches NaN
            raise InvariantViolation(f"trace time regression: {time} after {prev}")
        prev = time
        if t_first is None:
            t_first = time

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

    t_end = prev if t_first is not None else 0.0
    for start, deadline in residency.values():
        end = t_end if t_end < deadline else deadline
        if end > warmup:
            item_hours += end - (start if start > warmup else warmup)

    computes = requests - hits
    return CostLedger(
        requests=requests,
        hits=hits,
        computes=computes,
        compute_dollars=computes * costs.compute_per_item,
        storage_dollars=item_hours * costs.storage_per_item_hour,
        transmission_dollars=requests * costs.transmission_per_item,
        span=(t_end - t_first) if t_first is not None else 0.0,
    )


def global_ttl_ledger(
    trace: Columns,
    ttl: float,
    costs: CostModel,
    *,
    warmup: float = 0.0,
) -> CostLedger:
    """The ledger of `run(trace, GlobalTtlPolicy(ttl), costs, warmup=warmup)`.

    Priced from columns instead of event by event, and equal to the
    engine's ledger field for field. A stable sort by (movie, ad) puts each
    item's requests in time order. A request is a hit when the previous
    request of its item plus ttl reaches it, and each miss starts a new
    residency run. Item-hours are summed sequentially in the order the
    engine adds them: closed runs by the index of the request that closes
    them, then runs still open at the end of the trace by the index of
    their first request.
    """
    ttl = _validate_ttl(ttl)
    warmup = _check_warmup(warmup)
    times = trace.times
    n = times.size
    prev = np.concatenate(([-math.inf], times[:-1]))
    bad = np.flatnonzero(~(times >= prev))  # also catches NaN
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"trace time regression: {float(times[i])} after {float(prev[i])}"
        )
    counted = times >= warmup
    requests = int(np.count_nonzero(counted))
    hits = 0
    item_hours = 0.0
    if ttl > 0.0 and n:
        t_end = times[-1]
        order = np.lexsort((trace.ads, trace.movies))
        movies = trace.movies[order]
        ads = trace.ads[order]
        t = times[order]
        deadline = t + ttl
        # same[k]: sorted requests k and k + 1 belong to one item.
        same = (movies[1:] == movies[:-1]) & (ads[1:] == ads[:-1])
        hit = np.zeros(n, dtype=bool)
        hit[1:] = same & (deadline[:-1] >= t[1:])
        hits = int(np.count_nonzero(hit & counted[order]))
        # One residency run per miss, from its first to its last request.
        first = np.flatnonzero(~hit)
        last = np.append(first[1:] - 1, n - 1)
        start = t[first]
        begin = np.where(start > warmup, start, warmup)
        until = deadline[last]
        closed = np.append(same[last[:-1]], False)
        # Closed runs in the order of the request that closes them.
        by_close = np.argsort(order[last[closed] + 1])
        stop = until[closed][by_close]
        closed_hours = (stop - begin[closed][by_close])[stop > warmup]
        # Then the runs still open, in the order of their first request.
        still_open = ~closed
        by_first = np.argsort(order[first[still_open]])
        stop = until[still_open][by_first]
        stop = np.where(t_end < stop, t_end, stop)
        open_hours = (stop - begin[still_open][by_first])[stop > warmup]
        hours = np.concatenate((closed_hours, open_hours))
        if hours.size:
            # cumsum adds in sequence, as the engine does; np.sum (pairwise)
            # and math.fsum would round differently.
            item_hours = float(np.cumsum(hours)[-1])
    computes = requests - hits
    return CostLedger(
        requests=requests,
        hits=hits,
        computes=computes,
        compute_dollars=computes * costs.compute_per_item,
        storage_dollars=item_hours * costs.storage_per_item_hour,
        transmission_dollars=requests * costs.transmission_per_item,
        span=float(times[-1] - times[0]) if n else 0.0,
    )
