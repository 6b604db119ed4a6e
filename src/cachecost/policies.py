"""Caching policies as per-request decision procedures.

Each policy object is fed one time-ordered request at a time and answers
with a `PolicyVerdict`: whether this request was served from cache, and
until when the item should stay resident afterwards. Policies own their
bookkeeping (deadlines, sliding windows, recency); the engine owns the
dollars. Times are hours and must be nondecreasing per policy instance.

Runs price LRU with `LruPolicy` and every other policy from the columnar
verdicts in `engine`; these classes, replayed by `engine.run`, are the
oracle those verdicts are tested against.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .analytic import CostModel, _check_int, _validate_ttl, keeps

__all__ = [
    "GlobalTtlPolicy",
    "IndividualTtlPolicy",
    "LowerBoundPolicy",
    "LruPolicy",
    "PerfectRatePolicy",
    "PolicyVerdict",
    "count_threshold",
    "next_request_times",
]


class PolicyVerdict(NamedTuple):
    """Outcome of one request.

    hit: the request was served from cache.
    store_until: residency deadline after this request (math.inf means no
        scheduled expiry, None means the item is not stored).
    evicted: items displaced right now as a side effect (capacity evictions).
    """

    hit: bool
    store_until: "float | None"
    evicted: "tuple[Hashable, ...]" = ()


def _check_clock(policy, now: float) -> float:
    now = float(now)
    if now < policy._clock:
        raise ValueError(
            f"time regression: {now} after {policy._clock} in {type(policy).__name__}"
        )
    policy._clock = now
    return now


class GlobalTtlPolicy:
    """One shared TTL: every request (re)stores its item for `ttl` hours.

    A request is a hit when it lands on or before the item's current
    deadline; the deadline is then refreshed to now + ttl. A ttl of 0
    disables storage entirely and every request recomputes. math.inf keeps
    everything forever.
    """

    def __init__(self, ttl: float):
        self.ttl = _validate_ttl(ttl)
        self._deadline: dict[Hashable, float] = {}
        self._clock = -math.inf

    def on_request(self, item: Hashable, now: float) -> PolicyVerdict:
        now = _check_clock(self, now)
        ttl = self.ttl
        if ttl == 0.0:
            return PolicyVerdict(False, None)
        deadline = self._deadline.get(item)
        hit = deadline is not None and deadline >= now
        until = now + ttl
        self._deadline[item] = until
        return PolicyVerdict(hit, until)


def count_threshold(window: float, costs: CostModel) -> int:
    """The fewest requests inside a window of this length whose rate
    estimate count/window strictly clears the break-even rate S/C.

    A tiny tolerance absorbs float dust when the window is an exact
    multiple of C/S. Rejects a window that is not positive and finite, or
    whose product with S/C overflows.
    """
    window = float(window)
    if not (math.isfinite(window) and window > 0.0):
        raise ValueError(f"window must be positive and finite, got {window!r}")
    expected = window * costs.break_even_rate()
    if not math.isfinite(expected):
        raise ValueError(
            f"window ({window!r}) times the break-even rate S/C "
            f"({costs.break_even_rate()!r}) overflows float range"
        )
    return int(math.floor(expected + 1e-9)) + 1


class IndividualTtlPolicy:
    """Per-item keep-or-drop driven by a sliding-window rate estimate.

    After each request the item's window is updated and its estimated rate
    count/window is compared with the break-even rate S/C. Strictly above
    the threshold the item is (or stays) resident until the earliest moment
    enough window entries will have expired to pull the estimate back to or
    below the threshold; at or below it the item is not stored. Windows no
    longer than C/S therefore store on every single request, which is what
    makes short windows expensive.

    The threshold comparison is done on integer counts: resident while the
    window holds at least `count_threshold` entries, the smallest count
    whose estimate strictly clears S/C.
    """

    def __init__(self, window: float, costs: CostModel):
        self.window = float(window)
        self.costs = costs
        self.count_threshold = count_threshold(window, costs)
        # the last count_threshold request times of each item, oldest first
        self._recent: dict[Hashable, tuple[float, ...]] = {}
        self._until: dict[Hashable, float] = {}
        self._clock = -math.inf

    def on_request(self, item: Hashable, now: float) -> PolicyVerdict:
        now = _check_clock(self, now)
        until = self._until.get(item)
        # Residency decided at the previous request lapses exactly when the
        # window count falls to the threshold, so the boundary is a miss.
        hit = until is not None and now < until
        needed = self.count_threshold
        recent = (self._recent.get(item, ()) + (now,))[-needed:]
        self._recent[item] = recent
        # The window (now - window, now] holds at least `needed` requests
        # exactly when the needed-th newest one lies inside it.
        if len(recent) == needed and recent[0] > now - self.window:
            # Drops below the threshold when that request leaves the window.
            until = recent[0] + self.window
            self._until[item] = until
            return PolicyVerdict(hit, until)
        if until is not None:
            del self._until[item]
        return PolicyVerdict(hit, None)


class PerfectRatePolicy:
    """Individual TTL with the estimator replaced by the true item rate.

    Items whose rate strictly clears the break-even rate are kept forever
    from their first request; everything else is never stored. Used to
    separate estimation error from policy error in validation runs.
    """

    def __init__(self, costs: CostModel, rate_of: Callable[[Hashable], float]):
        self.costs = costs
        self._rate_of = rate_of
        self._resident: set[Hashable] = set()
        self._clock = -math.inf

    def on_request(self, item: Hashable, now: float) -> PolicyVerdict:
        now = _check_clock(self, now)
        if item in self._resident:
            return PolicyVerdict(True, math.inf)
        if keeps(self._rate_of(item), self.costs):
            self._resident.add(item)
            return PolicyVerdict(False, math.inf)
        return PolicyVerdict(False, None)


def next_request_times(requests: Sequence[tuple[float, Hashable]]) -> "list[float | None]":
    """For each request, the time of the next request for the same item.

    None where no later request exists. One reverse pass; the input must
    already be materialized (a clairvoyant rule cannot be streamed).
    """
    out: "list[float | None]" = [None] * len(requests)
    upcoming: dict[Hashable, float] = {}
    for i in range(len(requests) - 1, -1, -1):
        time, item = requests[i]
        out[i] = upcoming.get(item)
        upcoming[item] = time
    return out


class LowerBoundPolicy:
    """Clairvoyant per-gap rule: an unbeatable reference, not a real policy.

    At each request the upcoming gap to the same item's next request is
    known. The item is kept exactly until that next request when bridging
    the gap in storage is strictly cheaper than one recompute (gap * S < C);
    otherwise it is dropped on the spot and recomputed later. The tie at
    gap * S = C resolves to recompute; both choices cost the same there.

    `next_times` must be aligned one-to-one with the requests this policy
    will see, as produced by `next_request_times` on the same trace.
    """

    def __init__(self, costs: CostModel, next_times: "Iterable[float | None]"):
        self.costs = costs
        self._next_times = iter(next_times)
        self._gap_limit = costs.break_even_window()
        self._until: dict[Hashable, float] = {}
        self._clock = -math.inf

    def on_request(self, item: Hashable, now: float) -> PolicyVerdict:
        now = _check_clock(self, now)
        try:
            next_time = next(self._next_times)
        except StopIteration:
            raise ValueError("next-time stream exhausted before the trace ended") from None
        until = self._until.get(item)
        # A kept item was stored precisely up to this request's time.
        hit = until is not None and until >= now
        if next_time is not None and next_time - now < self._gap_limit:
            self._until[item] = next_time
            return PolicyVerdict(hit, next_time)
        if until is not None:
            del self._until[item]
        return PolicyVerdict(hit, None)


class LruPolicy:
    """Fixed-capacity least-recently-used eviction.

    No deadlines: residents stay until pushed out by a miss arriving at a
    full cache. The verdict's `evicted` field reports the displaced item so
    the accounting can close its residency at the eviction time.
    """

    def __init__(self, capacity: int):
        self.capacity = _check_int("capacity", capacity, 1)
        self._recency: "OrderedDict[Hashable, None]" = OrderedDict()
        self._clock = -math.inf

    def __len__(self) -> int:
        return len(self._recency)

    def on_request(self, item: Hashable, now: float) -> PolicyVerdict:
        now = _check_clock(self, now)
        recency = self._recency
        if item in recency:
            recency.move_to_end(item)
            return PolicyVerdict(True, math.inf)
        recency[item] = None
        if len(recency) > self.capacity:
            victim, _ = recency.popitem(last=False)
            return PolicyVerdict(False, math.inf, (victim,))
        return PolicyVerdict(False, math.inf)
