"""Ledger accounting checks, including an independent gap-replay oracle."""

import math
import re
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachecost import engine
from cachecost.analytic import CostModel, PopulationModel, ZipfLaw
from cachecost.engine import (
    InvariantViolation,
    Verdicts,
    _stack_distances,
    by_item,
    cost_per_request,
    global_ttl_verdicts,
    individual_ttl_verdicts,
    known_rate_verdicts,
    lower_bound_verdicts,
    lru_ledgers,
    run,
    run_length_ledger,
)
from cachecost.experiments import _checksum, build_trace, load_config
from cachecost.policies import (
    GlobalTtlPolicy,
    IndividualTtlPolicy,
    LowerBoundPolicy,
    LruPolicy,
    PerfectRatePolicy,
    PolicyVerdict,
    next_request_times,
)
from cachecost.presets import default_cost_model
from cachecost.workload import BLOCK_REQUESTS, Columns, columns_of, gen_synthetic

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COSTS = default_cost_model()
S = COSTS.storage_per_item_hour
C = COSTS.compute_per_item
X = COSTS.transmission_per_item

A = (1, 1)
B = (2, 1)


def _trace(*pairs):
    return list(pairs)


def _blocks(reqs):
    """`(time, (movie, ad))` pairs as `Columns` blocks of `BLOCK_REQUESTS`."""
    return [
        Columns(
            np.array([t for t, _ in chunk], dtype=np.float64),
            np.array([m for _, (m, _) in chunk], dtype=np.int64),
            np.array([a for _, (_, a) in chunk], dtype=np.int64),
        )
        for chunk in (reqs[i : i + BLOCK_REQUESTS] for i in range(0, len(reqs), BLOCK_REQUESTS))
    ]


# --- closed-form ledgers on tiny traces --------------------------------------


def test_empty_trace_yields_zero_ledger():
    ledger = run([], GlobalTtlPolicy(60.0), COSTS)
    assert ledger.requests == 0
    assert ledger.total_dollars == 0.0
    with pytest.raises(ValueError):
        cost_per_request(ledger)


def test_single_request_has_no_storage():
    # the trace ends at the only event, so the residency interval is empty
    ledger = run(_trace((0.0, A)), GlobalTtlPolicy(60.0), COSTS)
    assert ledger.requests == 1
    assert ledger.hits == 0
    assert ledger.computes == 1
    assert ledger.storage_dollars == 0.0
    assert ledger.total_dollars == C + X


def test_hit_pair_bills_storage_for_the_gap():
    ledger = run(_trace((0.0, A), (30.0, A)), GlobalTtlPolicy(60.0), COSTS)
    assert (ledger.requests, ledger.hits, ledger.computes) == (2, 1, 1)
    assert ledger.storage_dollars == pytest.approx(30.0 * S, rel=1e-12)
    assert ledger.total_dollars == pytest.approx(C + 30.0 * S + 2 * X, rel=1e-12)
    assert cost_per_request(ledger) == pytest.approx(
        (C + 30.0 * S + 2 * X) / 2, rel=1e-12
    )


def test_miss_pair_bills_full_residency_then_recomputes():
    ledger = run(_trace((0.0, A), (100.0, A)), GlobalTtlPolicy(60.0), COSTS)
    assert (ledger.requests, ledger.hits, ledger.computes) == (2, 0, 2)
    assert ledger.storage_dollars == pytest.approx(60.0 * S, rel=1e-12)
    assert ledger.total_dollars == pytest.approx(2 * C + 60.0 * S + 2 * X, rel=1e-12)


def test_open_ended_residency_clips_at_trace_end():
    ledger = run(_trace((0.0, A), (10.0, A)), GlobalTtlPolicy(math.inf), COSTS)
    assert ledger.hits == 1
    assert ledger.storage_dollars == pytest.approx(10.0 * S, rel=1e-12)


def test_zero_ttl_replays_as_pure_recompute():
    ledger = run(_trace((0.0, A), (1.0, A), (2.0, A)), GlobalTtlPolicy(0.0), COSTS)
    assert ledger.hits == 0
    assert ledger.storage_dollars == 0.0
    assert ledger.total_dollars == pytest.approx(3 * (C + X), rel=1e-12)


def test_lru_eviction_closes_storage_at_eviction_time():
    trace = _trace((0.0, A), (1.0, B), (2.0, (3, 1)))
    ledger = run(trace, LruPolicy(2), COSTS)
    # A resident [0, 2] until evicted, B [1, 2] and the newcomer [2, 2]
    # clipped by the trace end
    assert ledger.storage_dollars == pytest.approx(3.0 * S, rel=1e-12)
    assert ledger.computes == 3


def test_unbounded_lru_computes_once_per_distinct_item():
    pm = PopulationModel(ZipfLaw(40, 0.6), ZipfLaw(4, 0.8), 30.0)
    reqs = list(gen_synthetic(pm, 50.0, seed=7))
    ledger = run(reqs, LruPolicy(10**9), COSTS)
    distinct = {item for _, item in reqs}
    assert ledger.computes == len(distinct)
    expected_hours = sum(
        reqs[-1][0] - min(t for t, other in reqs if other == item)
        for item in distinct
    )
    assert ledger.storage_dollars == pytest.approx(expected_hours * S, rel=1e-9)


# --- ledger invariants on random runs ----------------------------------------


def test_ledger_component_identities():
    pm = PopulationModel(ZipfLaw(50, 0.8), ZipfLaw(6, 0.9), 80.0)
    for seed, ttl in ((1, 0.0), (2, 15.0), (3, 240.0), (4, math.inf)):
        reqs = list(gen_synthetic(pm, 40.0, seed=seed))
        ledger = run(reqs, GlobalTtlPolicy(ttl), COSTS)
        assert ledger.computes + ledger.hits == ledger.requests
        assert ledger.compute_dollars == ledger.computes * C
        assert ledger.transmission_dollars == ledger.requests * X
        assert ledger.storage_dollars >= 0.0
        assert ledger.total_dollars == (
            ledger.compute_dollars
            + ledger.storage_dollars
            + ledger.transmission_dollars
        )


# --- independent gap-replay oracle -------------------------------------------


def _gap_replay_oracle(reqs, ttl, warmup):
    """Per-item replay of a fixed global TTL, priced from scratch.

    Merges per-item request times into residency intervals (a gap at most
    ttl extends the interval), clips every interval to the measured part
    of the trace, and prices the three components directly.
    """
    per_item = {}
    for t, item in reqs:
        per_item.setdefault(item, []).append(t)
    t_end = reqs[-1][0]

    requests = sum(1 for t, _ in reqs if t >= warmup)
    hits = 0
    hours = 0.0
    for times in per_item.values():
        intervals = []
        start, deadline = times[0], times[0] + ttl
        for t in times[1:]:
            if ttl > 0.0 and t <= deadline:
                if t >= warmup:
                    hits += 1
                deadline = t + ttl
            else:
                intervals.append((start, deadline))
                start, deadline = t, t + ttl
        intervals.append((start, deadline))
        if ttl > 0.0:
            for lo, hi in intervals:
                end = min(hi, t_end)
                if end > warmup:
                    hours += end - max(lo, warmup)
    computes = requests - hits
    return computes * C + hours * S + requests * X, requests, hits


def test_engine_matches_gap_replay_oracle():
    rng = np.random.default_rng(20260816)
    pm = PopulationModel(ZipfLaw(60, 0.9), ZipfLaw(8, 0.7), 120.0)
    for trial in range(30):
        seed = int(rng.integers(1, 2**31))
        duration = float(rng.uniform(5.0, 30.0))
        ttl = float(rng.choice([0.0, 0.05, 0.4, 2.0, 30.0]))
        warmup = float(rng.choice([0.0, duration * 0.3]))
        reqs = list(gen_synthetic(pm, duration, seed=seed))
        if not reqs:
            continue
        ledger = run(reqs, GlobalTtlPolicy(ttl), COSTS, warmup=warmup)
        want_total, want_requests, want_hits = _gap_replay_oracle(reqs, ttl, warmup)
        assert ledger.requests == want_requests
        assert ledger.hits == want_hits
        assert ledger.total_dollars == pytest.approx(want_total, rel=1e-9)


# --- warmup semantics ---------------------------------------------------------


def test_warmup_zero_matches_plain_run():
    pm = PopulationModel(ZipfLaw(20, 0.7), ZipfLaw(3, 0.9), 50.0)
    reqs = list(gen_synthetic(pm, 20.0, seed=11))
    plain = run(reqs, GlobalTtlPolicy(45.0), COSTS)
    filtered = run(reqs, GlobalTtlPolicy(45.0), COSTS, warmup=0.0)
    assert plain == filtered


def test_warmup_clips_storage_and_skips_prefix_requests():
    # residency [0, 50] merged across the hit; measured part is [30, 50]
    reqs = _trace((0.0, A), (50.0, A))
    ledger = run(reqs, GlobalTtlPolicy(60.0), COSTS, warmup=30.0)
    assert (ledger.requests, ledger.hits, ledger.computes) == (1, 1, 0)
    assert ledger.compute_dollars == 0.0
    assert ledger.storage_dollars == pytest.approx(20.0 * S, rel=1e-12)
    assert ledger.total_dollars == pytest.approx(20.0 * S + X, rel=1e-12)


def test_warmup_miss_in_prefix_is_not_billed():
    # the only recompute happens before the threshold
    reqs = _trace((0.0, A),)
    ledger = run(reqs, GlobalTtlPolicy(0.0), COSTS, warmup=10.0)
    assert ledger.requests == 0
    assert ledger.total_dollars == 0.0


def test_trace_entirely_before_warmup_yields_zero_request_ledger():
    reqs = _trace((0.0, A), (1.0, B), (2.0, A))
    ledger = run(reqs, GlobalTtlPolicy(60.0), COSTS, warmup=100.0)
    assert ledger.requests == 0
    assert ledger.hits == 0
    assert ledger.total_dollars == 0.0


def test_warmup_rejects_bad_values():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            run([], GlobalTtlPolicy(1.0), COSTS, warmup=bad)


# --- invariant enforcement against misbehaving policies ------------------------


class _Scripted:
    """Replays a fixed list of verdicts regardless of the request."""

    def __init__(self, verdicts):
        self._verdicts = iter(verdicts)

    def on_request(self, item, now):
        return next(self._verdicts)


def test_hit_without_residency_is_rejected():
    policy = _Scripted([PolicyVerdict(True, None)])
    with pytest.raises(InvariantViolation, match="without residency"):
        run(_trace((0.0, A)), policy, COSTS)


def test_hit_after_deadline_is_rejected():
    policy = _Scripted([PolicyVerdict(False, 5.0), PolicyVerdict(True, None)])
    with pytest.raises(InvariantViolation, match="without residency"):
        run(_trace((0.0, A), (10.0, A)), policy, COSTS)


def test_miss_while_resident_is_rejected():
    policy = _Scripted([PolicyVerdict(False, math.inf), PolicyVerdict(False, None)])
    with pytest.raises(InvariantViolation, match="while resident"):
        run(_trace((0.0, A), (1.0, A)), policy, COSTS)


def test_store_until_in_the_past_is_rejected():
    policy = _Scripted([PolicyVerdict(False, -1.0)])
    with pytest.raises(InvariantViolation, match="before the request"):
        run(_trace((5.0, A)), policy, COSTS)


def test_evicting_non_resident_item_is_rejected():
    policy = _Scripted([PolicyVerdict(False, None, (B,))])
    with pytest.raises(InvariantViolation, match="non-resident"):
        run(_trace((0.0, A)), policy, COSTS)


def test_trace_time_regression_is_rejected():
    with pytest.raises(InvariantViolation, match="regression"):
        run(_trace((1.0, A), (0.5, A)), GlobalTtlPolicy(10.0), COSTS)


def _engine_global_ttl(reqs, ttl, warmup=0.0):
    return run(reqs, GlobalTtlPolicy(ttl), COSTS, warmup=warmup)


def _columnar_global_ttl(reqs, ttl, warmup=0.0):
    items = by_item(_blocks(reqs))
    return run_length_ledger(items, global_ttl_verdicts(items, ttl), COSTS, warmup=warmup)


@pytest.mark.parametrize("price", [_engine_global_ttl, _columnar_global_ttl])
@pytest.mark.parametrize(
    "pairs",
    [
        ((1.0, A), (0.5, A)),
        # NaN compares false both ways, so it must not hide the regression after it
        ((1.0, A), (math.nan, B), (0.5, A)),
        ((math.nan, A),),
    ],
)
def test_nan_or_regressing_time_is_rejected(price, pairs):
    with pytest.raises(InvariantViolation, match="regression"):
        price(_trace(*pairs), 60.0)


# --- the sort by item -----------------------------------------------------------


def _split(whole, cuts):
    """A `Columns` trace as blocks split at the sorted indices `cuts`; a
    repeated cut or one at either end leaves a block empty."""
    bounds = [0, *cuts, len(whole.times)]
    return [Columns(*(a[lo:hi] for a in whole)) for lo, hi in zip(bounds, bounds[1:])]


def _lexsort_check(movies, ads, times=None, cuts=(), chunk=None):
    """`by_item` over the trace cut into blocks at `cuts`, with `_CHUNK`
    patched to `chunk`, gives the order, sorted times and same-item flags
    of a stable lexsort of the joined trace. It lexsorts exactly when the
    ids do not pack into int32 or their keys do not fit in int64; returns
    whether it sorted by those keys."""
    n = len(movies)
    trace = Columns(
        np.arange(n, dtype=np.float64) if times is None else np.array(times, dtype=np.float64),
        np.array(movies, dtype=np.int64),
        np.array(ads, dtype=np.int64),
    )
    want = np.lexsort((trace.ads, trace.movies))
    lexsorts = []
    lexsort = np.lexsort
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "lexsort", lambda keys: lexsorts.append(keys) or lexsort(keys))
        patch.setattr(engine, "_CHUNK", chunk or engine._CHUNK)
        items = by_item(_split(trace, cuts))
    assert items.order.tolist() == want.tolist()
    assert items.times.tolist() == trace.times[want].tolist()
    pairs = list(zip(trace.movies[want].tolist(), trace.ads[want].tolist()))
    assert items.same.tolist() == [a == b for a, b in zip(pairs, pairs[1:])]
    assert items.t_end == (trace.times[-1] if n else 0.0)
    packs = all(-(2**31) <= i < 2**31 for i in [*movies, *ads])
    items_span = (max(movies) - min(movies) + 1) * (max(ads) - min(ads) + 1) if n else 0
    keyed = bool(n) and packs and items_span * n <= 2**63
    assert bool(lexsorts) == (bool(n) and not keyed)
    return keyed


BIG = 2**63 - 1


@pytest.mark.parametrize(
    "movies, ads, keyed",
    [
        # ties on both ids, ad -1 beside drawn ads, movies out of order
        ([5, 2, 5, 2, 2, 5, 9, 2, 5], [-1, 3, -1, -1, 3, 7, -1, 3, -1], True),
        # 2**32 movies x 2**30 ads x 2 requests: the largest key is 2**63 - 1
        ([-(2**31), 2**31 - 1], [0, 2**30 - 1], True),
        # one ad more and the keys pass the int64 limit
        ([-(2**31), 2**31 - 1], [0, 2**30], False),
        ([BIG, 1, BIG, 1, 1], [-1, BIG, -1, -1, BIG], False),
        ([], [], False),
        # the items alone fit in int64, but not times the trace length
        ([2**31 - 1, 1, 2**31 - 1, 1], [1, 2**31 - 1, 1, 2**31 - 1], False),
        # few items, but ids that do not pack into int32
        ([2, 1, 2, 1], [1, 2**60, 2**60, 1], False),
    ],
    ids=["ties", "at-limit", "past-limit", "largest-ids", "empty", "past-limit-by-length",
         "wide-ids"],
)
def test_by_item_orders_as_lexsort(movies, ads, keyed):
    assert _lexsort_check(movies, ads) == keyed


_IDS = st.sampled_from([1, 2, 3, 2**31 - 1, 2**31, 2**62, BIG])


def _blocking(data, n):
    """Random block cuts of an n-request trace, empty blocks included, and
    a `_CHUNK` of 1, 2, 3 or its default."""
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    return cuts, data.draw(st.sampled_from([1, 2, 3, engine._CHUNK]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_IDS, st.one_of(st.just(-1), _IDS)), max_size=40), st.data())
def test_by_item_orders_as_lexsort_on_any_ids(pairs, data):
    cuts, chunk = _blocking(data, len(pairs))
    _lexsort_check([m for m, _ in pairs], [a for _, a in pairs], cuts=cuts, chunk=chunk)


@st.composite
def _tied_traces(draw):
    """Few items, many requests per item and runs of equal times; the ids
    sit near 1 or near 2**63 - 1, so both sort paths are drawn."""
    low = draw(st.sampled_from([0, BIG - 8]))
    ids = st.integers(low, low + draw(st.sampled_from([1, 3, 8])))
    n = draw(st.integers(0, 60))
    movies = draw(st.lists(ids, min_size=n, max_size=n))
    ads = draw(st.lists(st.one_of(st.just(-1), ids), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]), min_size=n, max_size=n))
    return movies, ads, np.cumsum(gaps).tolist()


@settings(max_examples=300, deadline=None)
@given(_tied_traces(), st.data())
def test_by_item_orders_as_lexsort_on_tied_traces(trace, data):
    cuts, chunk = _blocking(data, len(trace[0]))
    _lexsort_check(*trace, cuts=cuts, chunk=chunk)


# --- columnar global TTL against the engine as oracle --------------------------


ITEMS = [(m, a) for m in (1, 2) for a in (-1, 1, 2)]


@st.composite
def _ttl_cases(draw):
    """A small trace with tied times and few items, a ttl and a warmup."""
    origin = draw(st.sampled_from([0.0, 0.25, 1e6]))
    gaps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 3.0]), st.floats(0.0, 4.0)),
            max_size=30,
        )
    )
    time, reqs = origin, []
    for gap in gaps:
        time += gap
        reqs.append((time, draw(st.sampled_from(ITEMS))))
    times = [t for t, _ in reqs]
    # A ttl equal to a rounded difference of two times lands on a deadline
    # where prev + ttl >= t and t - prev <= ttl disagree.
    spans = [b - a for i, a in enumerate(times) for b in times[i + 1 :]]
    ttl = draw(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-9, 0.5, 1.0, 2.5, math.inf]),
            st.floats(0.0, 6.0),
            st.sampled_from(spans or [1.0]),
        )
    )
    t_end = reqs[-1][0] if reqs else 0.0
    warmup = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from(times or [0.0]),
            st.floats(0.0, t_end),
            st.floats(t_end, t_end + 10.0).filter(lambda w: w > t_end),
        )
    )
    return reqs, ttl, warmup


def _event_crc(reqs):
    """crc32 folded over each request packed alone as `<dqq`."""
    crc = 0
    for time, (movie, ad) in reqs:
        crc = zlib.crc32(struct.pack("<dqq", time, movie, ad), crc)
    return crc


@settings(max_examples=400, deadline=None)
@given(_ttl_cases())
def test_columnar_global_ttl_equals_the_engine(case):
    reqs, ttl, warmup = case
    assert _columnar_global_ttl(reqs, ttl, warmup) == _engine_global_ttl(reqs, ttl, warmup)
    crc = 0
    for block in _blocks(reqs):
        crc = _checksum(block, crc)
    assert crc == _event_crc(reqs)


def test_columnar_global_ttl_equals_the_engine_on_synthetic_traces():
    pm = PopulationModel(ZipfLaw(200, 0.8), ZipfLaw(10, 0.9), 150.0)
    reqs = list(gen_synthetic(pm, 150.0, seed=7))
    for ttl in (0.0, 1e-9, 0.3, 4.0, 30.0, math.inf):
        for warmup in (0.0, 50.0, 149.0):
            want = _engine_global_ttl(reqs, ttl, warmup)
            assert _columnar_global_ttl(reqs, ttl, warmup) == want


# --- the run-length kernel against the engine, one test per policy kind --------


# S/C = 1/2 and C/S = 2: windows of 0.3 to 1 h need one request, 2 to 3.3 h
# two, 4 and 5 h three, 60 h more than a trace holds and 1e300 h more than
# int64 counts. On the quarter-hour grid below, marks land exactly
# window-old and gaps exactly at C/S.
HALF_RATE = CostModel(storage_per_item_hour=1.0, compute_per_item=2.0, transmission_per_item=0.5)
WINDOWS = (0.3, 0.75, 1.0, 2.0, 3.0, 3.3, 4.0, 5.0, 60.0, 1e300)


@st.composite
def _kernel_cases(draw):
    """A small trace with tied times, single-request items and a warmup
    before, inside or after it."""
    origin = draw(st.sampled_from([0.0, 0.25, 1e6]))
    gaps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.0, 4.0)),
            max_size=30,
        )
    )
    time, reqs = origin, []
    for gap in gaps:
        time += gap
        reqs.append((time, draw(st.sampled_from(ITEMS))))
    times = [t for t, _ in reqs] or [0.0]
    warmup = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, times[0]),
            st.sampled_from(times),
            st.floats(times[0], times[-1]),
            st.floats(times[-1], times[-1] + 10.0).filter(lambda w: w > times[-1]),
        )
    )
    return reqs, warmup


def _kernel_ledger(reqs, verdicts_of, warmup):
    items = by_item(_blocks(reqs))
    return run_length_ledger(items, verdicts_of(items), HALF_RATE, warmup=warmup)


@settings(max_examples=400, deadline=None)
@given(_kernel_cases(), st.data())
def test_kernel_equals_the_engine_on_any_valid_verdicts(case, data):
    """Scripted verdicts that only keep the engine's invariants: a hit needs
    an unexpired residency, a miss an expired one, and any request may
    store its item for any time or not at all."""
    reqs, warmup = case
    script, resident = [], {}
    for time, item in reqs:
        until = resident.pop(item, None)
        hit = until is not None and (until > time or (until == time and data.draw(st.booleans())))
        keep = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 0.25, 2.0, math.inf]), st.floats(0.0, 3.0)))
        if keep is not None:
            resident[item] = time + keep
        script.append(PolicyVerdict(hit, None if keep is None else time + keep))

    items = by_item(_blocks(reqs))
    want = run(reqs, _Scripted(script), HALF_RATE, warmup=warmup)
    assert run_length_ledger(items, _scripted_verdicts(items, script), HALF_RATE, warmup=warmup) == want


def _scripted_verdicts(items, script):
    """A script of `PolicyVerdict`s, in trace order, as `Verdicts` on `items`;
    NaN where nothing is stored: the kernel must never read it."""
    return Verdicts(
        np.array([v.store_until is not None for v in script], dtype=bool)[items.order],
        np.array([math.nan if v.store_until is None else v.store_until for v in script])[items.order],
        np.array([v.hit for v in script], dtype=bool)[items.order],
    )


# BIG + 1 rounds back to BIG (ties to even), so hours of BIG, 1 and 1 sum to
# BIG in that order and to BIG + 2 in the order 1, 1, BIG: only the
# engine's order gives its ledger.
BIG = 2.0**53
I3, I4, I5 = (3, 1), (4, 1), (5, 1)


@pytest.mark.parametrize("chunk", [1, 2, engine._CHUNK])
@pytest.mark.parametrize(
    "script, item_hours",
    [
        # A's run starts first and is billed last, at A's miss; the runs of B
        # and I3 close before it.
        (
            [(0.0, A, False, BIG), (0.0, B, False, 1.0), (0.0, I3, False, 1.0),
             (1.0, B, False, None), (2.0, I3, False, None), (BIG, A, False, None)],
            BIG + 2,
        ),
        # A's run starts first and is still open at the end: it is billed
        # after every closed run.
        (
            [(0.0, A, False, math.inf), (0.0, B, False, 1.0), (0.0, I3, False, 1.0),
             (1.0, B, False, None), (2.0, I3, False, None), (BIG, A, True, math.inf)],
            BIG + 2,
        ),
        # Runs open at the end are billed in order of their first request,
        # here the reverse of their items' order.
        (
            [(0.0, I3, False, math.inf), (BIG - 1, A, False, math.inf),
             (BIG - 1, B, False, math.inf), (BIG, I3, True, math.inf)],
            BIG,
        ),
    ],
    ids=["closes-last", "open-after-closed", "open-by-first-request"],
)
def test_kernel_bills_in_the_engine_order(script, item_hours, chunk):
    reqs = [(time, item) for time, item, _, _ in script]
    script = [PolicyVerdict(hit, until) for _, _, hit, until in script]
    want = run(reqs, _Scripted(script), HALF_RATE)
    assert want.storage_dollars == item_hours
    items = by_item(_blocks(reqs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_CHUNK", chunk)
        assert run_length_ledger(items, _scripted_verdicts(items, script), HALF_RATE) == want


@pytest.mark.parametrize("chunk", [1, 2, 8192])
def test_item_hours_carries_its_total_across_calls(chunk, monkeypatch):
    """Two calls, the second carrying the first's total, add the runs in
    sequence exactly as one call on the joined arrays does; runs that stop
    at or before the warmup add nothing."""
    warmup = 2.0
    # hours: none, none, BIG, 1, 1 (clipped at the warmup), 0
    start = np.array([0.0, 1.0, 2.0, 3.0, 0.5, 5.0])
    stop = np.array([1.0, 2.0, BIG + 2, 4.0, 3.0, 5.0])
    want = 0.0
    for s, t in zip(start, stop):
        if t > warmup:
            want += t - max(s, warmup)
    assert want == BIG
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    assert engine._item_hours(start, stop, warmup) == want
    for cut in range(start.size + 1):
        total = engine._item_hours(start[:cut], stop[:cut], warmup)
        assert engine._item_hours(start[cut:], stop[cut:], warmup, total) == want


@settings(max_examples=400, deadline=None)
@given(_kernel_cases(), st.sampled_from(WINDOWS))
# 12.019 - 3.3 rounds to the first mark exactly, but the mark plus 3.3 rounds
# past 12.019: only a strict `mark > t - window` keeps the tied third request
# a miss.
@example(([(8.719000000000001, A), (12.019, A), (12.019, A)], 0.0), 3.3)
def test_kernel_individual_ttl_equals_the_engine(case, window):
    reqs, warmup = case
    want = run(reqs, IndividualTtlPolicy(window, HALF_RATE), HALF_RATE, warmup=warmup)
    got = _kernel_ledger(reqs, lambda items: individual_ttl_verdicts(items, window, HALF_RATE), warmup)
    assert got == want


@settings(max_examples=400, deadline=None)
@given(_kernel_cases())
def test_kernel_lower_bound_equals_the_engine(case):
    reqs, warmup = case
    floor = LowerBoundPolicy(HALF_RATE, next_request_times(reqs))
    want = run(reqs, floor, HALF_RATE, warmup=warmup)
    assert _kernel_ledger(reqs, lambda items: lower_bound_verdicts(items, HALF_RATE), warmup) == want


@settings(max_examples=400, deadline=None)
@given(
    _kernel_cases(),
    # rates below, at (0.5 = S/C) and above the break-even rate
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 3.0]), min_size=6, max_size=6),
)
def test_kernel_known_rate_equals_the_engine(case, item_rates):
    reqs, warmup = case
    rate_of = dict(zip(ITEMS, item_rates))
    want = run(reqs, PerfectRatePolicy(HALF_RATE, rate_of.__getitem__), HALF_RATE, warmup=warmup)
    rates = np.array([rate_of[item] for _, item in reqs])
    assert _kernel_ledger(reqs, lambda items: known_rate_verdicts(items, rates, HALF_RATE), warmup) == want


def test_kernel_equals_the_engine_on_synthetic_traces():
    pm = PopulationModel(ZipfLaw(200, 0.8), ZipfLaw(10, 0.9), 150.0)
    reqs = list(gen_synthetic(pm, 150.0, seed=7))
    items = by_item(_blocks(reqs))
    movie_p, ad_p = pm.movies.probabilities, pm.ads.probabilities

    def rate_of(item):
        movie, ad = item
        return pm.lambda_global * movie_p[movie - 1] * ad_p[ad - 1]

    rates = np.array([rate_of(item) for _, item in reqs])
    window = COSTS.break_even_window()
    kinds = [
        (lambda: IndividualTtlPolicy(window / 50, COSTS), individual_ttl_verdicts(items, window / 50, COSTS)),
        (lambda: IndividualTtlPolicy(window, COSTS), individual_ttl_verdicts(items, window, COSTS)),
        (lambda: LowerBoundPolicy(COSTS, next_request_times(reqs)), lower_bound_verdicts(items, COSTS)),
        (lambda: PerfectRatePolicy(COSTS, rate_of), known_rate_verdicts(items, rates, COSTS)),
    ]
    for policy, verdicts in kinds:
        for warmup in (0.0, 50.0, 149.0):
            want = run(reqs, policy(), COSTS, warmup=warmup)
            assert run_length_ledger(items, verdicts, COSTS, warmup=warmup) == want


# --- the LRU stack-distance kernel against the engine ----------------------------


def _cut(reqs, cuts):
    """`(time, (movie, ad))` pairs as `Columns` blocks split at the sorted
    indices `cuts`; a repeated cut or one at either end leaves a block empty."""
    return _split(columns_of(_blocks(reqs)), cuts)


@settings(max_examples=400, deadline=None)
@given(_kernel_cases(), st.data())
# Tied times may be billed in either order. At capacity 2: misses at 1.0
# both fill the cache and evict;
@example(([(0.0, A), (1.0, B), (1.0, I3), (1.0, I4), (BIG, A)], 0.0), None)
# I3 and I4 never evicted, with one start time (at 4 and up, A and B too);
@example(([(0.0, A), (0.0, B), (1.0, I3), (1.0, I4), (BIG, I3)], 0.5), None)
# B's one-request run and I4's longer run end at one time; B's ends first
# in the trace, so LRU evicts it first, and evicting I4 first would round
# the sum differently.
@example(([(1.0, I3), (2.0, I4), (BIG - 2, B), (BIG - 2, I4), (BIG, I3)], 0.0), None)
def test_lru_ledger_equals_the_engine(case, data):
    """One kernel call prices several capacities, each as the engine does;
    chunks of 1, 2 or 3 steps put the chunked passes' edges everywhere."""
    reqs, warmup = case
    if data is None:  # an @example: capacity 2 on two blocks, chunks of one step
        cuts, drawn, chunk = [1], [2], 1
    else:
        cuts = sorted(data.draw(st.lists(st.integers(0, len(reqs)), max_size=4)))
        drawn = data.draw(st.lists(st.integers(1, len(ITEMS) + 2), max_size=3))
        chunk = data.draw(st.sampled_from([1, 2, 3, engine._CHUNK]))
    distinct = len({item for _, item in reqs})
    # 1, anything up to past the 6 items, exactly the distinct count, one
    # more, and 2**63, past int64's range
    capacities = [1, *drawn, max(distinct, 1), distinct + 1, 2**63]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_CHUNK", chunk)
        got = lru_ledgers(by_item(_cut(reqs, cuts)), capacities, HALF_RATE, warmup=warmup)
    assert got == [run(reqs, LruPolicy(c), HALF_RATE, warmup=warmup) for c in capacities]


def test_lru_ledger_equals_the_engine_on_synthetic_traces():
    pm = PopulationModel(ZipfLaw(200, 0.8), ZipfLaw(10, 0.9), 150.0)
    reqs = list(gen_synthetic(pm, 150.0, seed=7))
    blocks = _blocks(reqs)
    assert len(blocks) > 1 and len(reqs) > engine._CHUNK
    capacities = (1, 30, 400, 10**9)
    for warmup in (0.0, 50.0, 149.0):
        want = [run(reqs, LruPolicy(c), COSTS, warmup=warmup) for c in capacities]
        assert lru_ledgers(by_item(blocks), capacities, COSTS, warmup=warmup) == want


@pytest.mark.parametrize("chunk", [1, 2, 3, engine._CHUNK])
def test_lru_ledger_bills_in_eviction_order(chunk):
    """At capacity 2, A's residency starts first and is evicted third, at
    I5's miss, after the one-hour residencies of B and I3; those of I4 and
    I5 are open at the end. In start order the hours would sum to
    2 * BIG - 2."""
    reqs = [(0.0, A), (0.0, B), (0.0, A), (1.0, I3), (1.0, A), (2.0, I4), (BIG, I5)]
    want = run(reqs, LruPolicy(2), HALF_RATE)
    assert want.storage_dollars == 1 + 1 + BIG + (BIG - 2) + 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_CHUNK", chunk)
        assert lru_ledgers(by_item(_blocks(reqs)), [2], HALF_RATE) == [want]


@pytest.mark.parametrize(
    "reqs, cuts",
    [
        (((1.0, A), (0.5, A)), [1]),
        (((1.0, A), (2.0, B), (1.5, A)), [2, 2]),
        (((1.0, A), (math.nan, B), (0.5, A)), [1]),
        (((1.0, A), (math.nan, B), (0.5, A)), []),
        (((math.nan, A),), [0]),
    ],
    ids=["at-cut", "after-empty-block", "nan-at-cut", "nan-in-block", "nan-first"],
)
def test_lru_ledger_rejects_regression_as_the_engine_does(reqs, cuts):
    reqs = list(reqs)
    with pytest.raises(InvariantViolation, match="regression") as want:
        run(reqs, LruPolicy(2), COSTS)
    with pytest.raises(InvariantViolation, match=re.escape(str(want.value))):
        lru_ledgers(by_item(_cut(reqs, cuts)), [2], COSTS)


@pytest.mark.parametrize("capacity", [0, -3, True, 2.0])
def test_lru_ledger_rejects_capacity_as_the_policy_does(capacity):
    with pytest.raises(ValueError) as want:
        LruPolicy(capacity)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        lru_ledgers(by_item(_cut([(0.0, A)], [])), [2, capacity], COSTS)


def _distances(reqs, cuts=()):
    """{later: (earlier, stack distance)} for each reuse pair of the kernel:
    each item's consecutive requests in `by_item`'s order."""
    items = by_item(_cut(reqs, list(cuts)))
    later, earlier = items.order[1:][items.same], items.order[:-1][items.same]
    distance = _stack_distances(len(reqs), later, earlier)
    return dict(zip(later.tolist(), zip(earlier.tolist(), distance.tolist())))


def _brute_distances(items):
    """The same by counting the distinct items between each pair directly."""
    want, seen = {}, {}
    for j, item in enumerate(items):
        if item in seen:
            p = seen[item]
            want[j] = (p, len(set(items[p + 1 : j])))
        seen[item] = j
    return want


@settings(max_examples=300, deadline=None)
@given(_tied_traces(), st.data())
# every id fits in int32, but item keys past int64
@example(([0, 2**31 - 1, 0, 0], [-(2**31), 2**31 - 1, -(2**31), -1], [0.0, 1.0, 1.0, 2.0]), None)
def test_stack_distances_count_distinct_items_between_reuses(trace, data):
    """Against an O(n^2) count; ids near 2**63 (and ad -1 beside them) take
    the lexsort path, small ids the packed-key path."""
    movies, ads, times = trace
    reqs = list(zip(times, zip(movies, ads)))
    cuts = [] if data is None else sorted(data.draw(st.lists(st.integers(0, len(reqs)), max_size=3)))
    chunk = 2 if data is None else data.draw(st.sampled_from([1, 2, 3, engine._CHUNK]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_CHUNK", chunk)
        got = _distances(reqs, cuts)
    assert got == _brute_distances([item for _, item in reqs])


@pytest.mark.parametrize(
    "movies, ads, lexsorted",
    [
        ([1, 2, 1], [-1, 3, -1], False),
        ([-(2**31), 2**31 - 1, -(2**31)], [5, 5, 5], False),
        ([7, 7, 7], [2**31 - 1, -(2**31), 2**31 - 1], False),
        ([2**31, 1, 2**31], [1, 1, 1], True),
        ([1, 1, 1], [-1, -(2**31) - 1, -1], True),
        # every id fits in int32, the item keys of three requests do not
        ([0, 2**31 - 1, 0], [-(2**31), 2**31 - 1, -(2**31)], True),
    ],
    ids=["small", "int32-movies", "int32-ads", "wide-movie", "wide-ad", "keys-past-int64"],
)
def test_reuses_sorts_by_item_only_when_ids_do_not_pack(movies, ads, lexsorted):
    """The reuse pairs come from the packed-key sort, or from a lexsort
    exactly when the ids or their keys do not pack."""
    assert (not _lexsort_check(movies, ads, cuts=[1])) == lexsorted
    reqs = [(float(t), item) for t, item in enumerate(zip(movies, ads))]
    assert _distances(reqs, [1]) == _brute_distances([item for _, item in reqs])


def test_lru_pricing_memory_is_bounded():
    # 1.5x 4.92 MiB, the peak of pricing configs/lru_vs_ttl.ini's capacity
    # grid on its seed-1 trace of 170,862 requests when LRU packed its own
    # reuse pairs. Through by_item, as a run prices it, the peak is
    # 6.16 MiB, generation and the key buffer's unwritten tail included;
    # on top of the sorted trace, LRU then holds two float64 copies of a
    # capacity's ~170,000 run starts, one in eviction order and one sorted.
    # It was 5.99 MiB when LRU held a trace-order copy of the times instead.
    cfg = load_config(CONFIGS / "lru_vs_ttl.ini")
    np.random.default_rng(1)  # numpy.random loads on first use, not here
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        ledgers = lru_ledgers(
            by_item(build_trace(cfg, 1)), [250, 700, 1500, 3000, 6000], cfg.costs,
            warmup=cfg.warmup,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ledgers) == 5
    assert peak <= 1.5 * 4.92 * 2**20


def test_run_length_pricing_memory_is_bounded():
    # 1.25x 15.97 MiB, the peak of global_ttl_verdicts plus run_length_ledger
    # on configs/validate_global_ttl.ini's seed-1 trace of 411,221 requests,
    # where one run-sized array is about 3 MiB. When the kernel paired closed
    # and open runs by two searchsorted lookups the peak was 28.60 MiB.
    cfg = load_config(CONFIGS / "validate_global_ttl.ini")
    items = by_item(build_trace(cfg, 1))
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        ledger = run_length_ledger(
            items, global_ttl_verdicts(items, cfg.policy.ttl), cfg.costs, warmup=cfg.warmup
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ledger.requests == 310_551
    assert peak <= 1.25 * 15.97 * 2**20
