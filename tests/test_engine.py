"""Ledger accounting checks, including an independent gap-replay oracle."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecost.analytic import PopulationModel, ZipfLaw
from cachecost.engine import (
    InvariantViolation,
    cost_per_request,
    global_ttl_ledger,
    run,
)
from cachecost.experiments import _checksum
from cachecost.policies import GlobalTtlPolicy, LruPolicy, PolicyVerdict
from cachecost.presets import default_cost_model
from cachecost.workload import ItemId, Request, blocks_of, columns_of, gen_synthetic

COSTS = default_cost_model()
S = COSTS.storage_per_item_hour
C = COSTS.compute_per_item
X = COSTS.transmission_per_item

A = ItemId(1, 1)
B = ItemId(2, 1)


def _trace(*pairs):
    return [Request(t, item) for t, item in pairs]


# --- closed-form ledgers on tiny traces --------------------------------------


def test_empty_trace_yields_zero_ledger():
    ledger = run([], GlobalTtlPolicy(60.0), COSTS)
    assert ledger.requests == 0
    assert ledger.total_dollars == 0.0
    assert ledger.span == 0.0
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
    assert ledger.span == 0.0


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
    trace = _trace((0.0, A), (1.0, B), (2.0, ItemId(3, 1)))
    ledger = run(trace, LruPolicy(2), COSTS)
    # A resident [0, 2] until evicted, B [1, 2] and the newcomer [2, 2]
    # clipped by the trace end
    assert ledger.storage_dollars == pytest.approx(3.0 * S, rel=1e-12)
    assert ledger.computes == 3


def test_unbounded_lru_computes_once_per_distinct_item():
    pm = PopulationModel(ZipfLaw(40, 0.6), ZipfLaw(4, 0.8), 30.0)
    reqs = list(gen_synthetic(pm, 50.0, seed=7))
    ledger = run(reqs, LruPolicy(10**9), COSTS)
    distinct = {r.item for r in reqs}
    assert ledger.computes == len(distinct)
    expected_hours = sum(
        reqs[-1].time - min(r.time for r in reqs if r.item == item)
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
        assert ledger.span >= 0.0
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
    for r in reqs:
        per_item.setdefault(r.item, []).append(r.time)
    t_end = reqs[-1].time

    requests = sum(1 for r in reqs if r.time >= warmup)
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
    assert ledger.span == 2.0


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
    return global_ttl_ledger(columns_of(blocks_of(reqs)), ttl, COSTS, warmup=warmup)


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


# --- columnar global TTL against the engine as oracle --------------------------


ITEMS = [ItemId(m, a) for m in (1, 2) for a in (None, 1, 2)]


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
        reqs.append(Request(time, draw(st.sampled_from(ITEMS))))
    times = [r.time for r in reqs]
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
    t_end = reqs[-1].time if reqs else 0.0
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
    """crc32 folded over each request packed alone as `<dqq`; unset ad = -1."""
    crc = 0
    for time, (movie, ad) in reqs:
        crc = zlib.crc32(struct.pack("<dqq", time, movie, -1 if ad is None else ad), crc)
    return crc


@settings(max_examples=400, deadline=None)
@given(_ttl_cases())
def test_columnar_global_ttl_equals_the_engine(case):
    reqs, ttl, warmup = case
    assert _columnar_global_ttl(reqs, ttl, warmup) == _engine_global_ttl(reqs, ttl, warmup)
    crc = 0
    for block in blocks_of(reqs):
        crc = _checksum(block, crc)
    assert crc == _event_crc(reqs)


def test_columnar_global_ttl_equals_the_engine_on_synthetic_traces():
    pm = PopulationModel(ZipfLaw(200, 0.8), ZipfLaw(10, 0.9), 150.0)
    reqs = list(gen_synthetic(pm, 150.0, seed=7))
    for ttl in (0.0, 1e-9, 0.3, 4.0, 30.0, math.inf):
        for warmup in (0.0, 50.0, 149.0):
            want = _engine_global_ttl(reqs, ttl, warmup)
            assert _columnar_global_ttl(reqs, ttl, warmup) == want
