"""Per-policy decision semantics on hand-built request sequences."""

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecost.analytic import CostModel, PopulationModel, ZipfLaw
from cachecost.engine import run
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
from cachecost.workload import gen_synthetic

COSTS = default_cost_model()
BREAK_EVEN_RATE = COSTS.break_even_rate()      # S/C
BREAK_EVEN_WINDOW = COSTS.break_even_window()  # C/S

A = (1, 1)
B = (2, 1)
C_ITEM = (3, 1)


def _drive(policy, sequence):
    """Feed (time, item) pairs; return the list of verdicts."""
    return [policy.on_request(item, time) for time, item in sequence]


# --- global TTL -------------------------------------------------------------


def test_global_ttl_first_request_misses():
    verdict = GlobalTtlPolicy(60.0).on_request(A, 0.0)
    assert verdict == PolicyVerdict(False, 60.0)


def test_global_ttl_hit_within_deadline():
    v = _drive(GlobalTtlPolicy(60.0), [(0.0, A), (30.0, A)])
    assert [x.hit for x in v] == [False, True]
    assert v[1].store_until == 90.0


def test_global_ttl_boundary_gap_still_hits():
    # the deadline itself is inside the residency
    v = _drive(GlobalTtlPolicy(60.0), [(0.0, A), (60.0, A)])
    assert [x.hit for x in v] == [False, True]


def test_global_ttl_miss_after_expiry():
    v = _drive(GlobalTtlPolicy(60.0), [(0.0, A), (60.000001, A)])
    assert [x.hit for x in v] == [False, False]


def test_global_ttl_zero_never_stores():
    policy = GlobalTtlPolicy(0.0)
    v = _drive(policy, [(0.0, A), (0.0, A), (1.0, A)])
    assert all(x == PolicyVerdict(False, None) for x in v)


def test_global_ttl_infinite_keeps_forever():
    v = _drive(GlobalTtlPolicy(math.inf), [(0.0, A), (1e12, A)])
    assert [x.hit for x in v] == [False, True]
    assert v[0].store_until == math.inf


def test_global_ttl_items_are_independent():
    v = _drive(GlobalTtlPolicy(60.0), [(0.0, A), (10.0, B), (20.0, A)])
    assert [x.hit for x in v] == [False, False, True]


def test_global_ttl_rejects_bad_ttl_and_time_regression():
    with pytest.raises(ValueError):
        GlobalTtlPolicy(-1.0)
    with pytest.raises(ValueError):
        GlobalTtlPolicy(math.nan)
    policy = GlobalTtlPolicy(10.0)
    policy.on_request(A, 5.0)
    with pytest.raises(ValueError):
        policy.on_request(A, 4.999)


# --- individual TTL ---------------------------------------------------------


def test_individual_count_threshold_by_window_length():
    cases = {
        100.0: 1,                      # far below C/S
        0.5 * BREAK_EVEN_WINDOW: 1,
        BREAK_EVEN_WINDOW: 2,          # exactly C/S: one request only ties
        1.5 * BREAK_EVEN_WINDOW: 2,
        2.0 * BREAK_EVEN_WINDOW: 3,
    }
    for window, expected in cases.items():
        assert IndividualTtlPolicy(window, COSTS).count_threshold == expected


def test_individual_two_close_requests_make_resident():
    # W = C/S: a second request inside the window pushes the estimate
    # strictly past break-even
    w = BREAK_EVEN_WINDOW
    policy = IndividualTtlPolicy(w, COSTS)
    first = policy.on_request(A, 0.0)
    second = policy.on_request(A, 100.0)
    assert first == PolicyVerdict(False, None)
    assert second.hit is False
    assert second.store_until == pytest.approx(0.0 + w)


def test_individual_single_request_at_exact_break_even_window_not_stored():
    # one request estimates exactly S/C, which does not strictly clear the
    # threshold; the remove side wins the tie
    policy = IndividualTtlPolicy(BREAK_EVEN_WINDOW, COSTS)
    v = _drive(policy, [(0.0, A), (2000.0, A), (4000.0, A)])
    assert all(x == PolicyVerdict(False, None) for x in v)


def test_individual_short_window_stores_every_request():
    # W below C/S: even a single mark clears the threshold, so the policy
    # degenerates to a global TTL of W
    w = 0.5 * BREAK_EVEN_WINDOW
    policy = IndividualTtlPolicy(w, COSTS)
    v = _drive(policy, [(0.0, A), (w / 2, A), (2.5 * w, A)])
    assert [x.hit for x in v] == [False, True, False]
    assert v[0].store_until == pytest.approx(w)
    assert v[1].store_until == pytest.approx(w / 2 + w)


def test_individual_residency_lapses_at_flip_boundary():
    # hit requires now strictly before the scheduled flip time
    w = BREAK_EVEN_WINDOW
    policy = IndividualTtlPolicy(w, COSTS)
    policy.on_request(A, 0.0)
    until = policy.on_request(A, 10.0).store_until   # = 0 + w
    assert until == pytest.approx(w)
    third = policy.on_request(A, until)
    assert third.hit is False


def test_individual_hit_strictly_inside_residency():
    w = BREAK_EVEN_WINDOW
    policy = IndividualTtlPolicy(w, COSTS)
    policy.on_request(A, 0.0)
    policy.on_request(A, 10.0)
    assert policy.on_request(A, w - 1.0).hit is True


def test_individual_flip_time_tracks_newer_marks():
    w = BREAK_EVEN_WINDOW
    policy = IndividualTtlPolicy(w, COSTS)
    policy.on_request(A, 0.0)
    assert policy.on_request(A, 10.0).store_until == pytest.approx(w)
    # third request: the two newest marks are 10 and 20, flip moves out
    assert policy.on_request(A, 20.0).store_until == pytest.approx(10.0 + w)


def test_individual_window_expiry_resets_count():
    w = 1000.0  # below C/S, threshold 1
    policy = IndividualTtlPolicy(w, COSTS)
    policy.on_request(A, 0.0)
    # far later: the old mark left the window, count restarts at 1
    v = policy.on_request(A, 5000.0)
    assert v.hit is False
    assert v.store_until == pytest.approx(6000.0)


def test_individual_mark_at_window_edge_is_pruned():
    # window is half-open: a mark exactly window-old no longer counts
    w = BREAK_EVEN_WINDOW
    policy = IndividualTtlPolicy(w, COSTS)
    policy.on_request(A, 0.0)
    v = policy.on_request(A, w)
    assert v.store_until is None


def test_individual_items_do_not_share_windows():
    w = BREAK_EVEN_WINDOW
    policy = IndividualTtlPolicy(w, COSTS)
    policy.on_request(A, 0.0)
    assert policy.on_request(B, 1.0).store_until is None


def test_individual_rejects_bad_window_and_time_regression():
    for bad in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            IndividualTtlPolicy(bad, COSTS)
    policy = IndividualTtlPolicy(100.0, COSTS)
    policy.on_request(A, 10.0)
    with pytest.raises(ValueError):
        policy.on_request(B, 9.0)


class _DequeWindowReference:
    """The sliding-window rule kept the long way: every request time inside
    the trailing window, pruned from the left when a new request arrives."""

    def __init__(self, window, threshold):
        self.window = window
        self.threshold = threshold
        self.marks = {}
        self.until = {}

    def on_request(self, item, now):
        until = self.until.pop(item, None)
        hit = until is not None and now < until
        marks = self.marks.setdefault(item, deque())
        horizon = now - self.window
        while marks and marks[0] <= horizon:
            marks.popleft()
        marks.append(now)
        if len(marks) >= self.threshold:
            self.until[item] = marks[-self.threshold] + self.window
            return PolicyVerdict(hit, self.until[item])
        return PolicyVerdict(hit, None)


# S/C = 1/2, so a window w needs floor(w / 2) + 1 requests; on a time grid of
# quarter hours, marks land exactly window-old
HALF_RATE = CostModel(storage_per_item_hour=1.0, compute_per_item=2.0, transmission_per_item=0.0)


@st.composite
def _window_cases(draw):
    window, threshold = draw(
        st.sampled_from([(0.75, 1), (1.0, 1), (2.0, 2), (3.0, 2), (4.0, 3), (0.3, 1)])
    )
    gaps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.0, 5.0)),
            max_size=40,
        )
    )
    time, sequence = draw(st.sampled_from([0.0, 0.1, 1e6])), []
    for gap in gaps:
        time += gap
        sequence.append((time, draw(st.sampled_from([A, B, C_ITEM]))))
    return window, threshold, sequence


@settings(max_examples=400, deadline=None)
@given(_window_cases())
def test_individual_matches_a_deque_sliding_window(case):
    window, threshold, sequence = case
    policy = IndividualTtlPolicy(window, HALF_RATE)
    assert policy.count_threshold == threshold
    reference = _DequeWindowReference(window, threshold)
    assert _drive(policy, sequence) == _drive(reference, sequence)


# --- perfect-rate variant ---------------------------------------------------


def test_perfect_rate_keeps_fast_items_forever():
    policy = PerfectRatePolicy(COSTS, lambda item: 1.0)
    v = _drive(policy, [(0.0, A), (1.0, A), (5000.0, A)])
    assert [x.hit for x in v] == [False, True, True]
    assert v[0].store_until == math.inf


def test_perfect_rate_never_stores_slow_items():
    policy = PerfectRatePolicy(COSTS, lambda item: BREAK_EVEN_RATE / 2)
    v = _drive(policy, [(0.0, A), (1.0, A)])
    assert all(x == PolicyVerdict(False, None) for x in v)


def test_perfect_rate_tie_goes_to_never_cache():
    policy = PerfectRatePolicy(COSTS, lambda item: BREAK_EVEN_RATE)
    assert policy.on_request(A, 0.0) == PolicyVerdict(False, None)


def test_perfect_rate_consults_rate_per_item():
    rates = {A: 1.0, B: 0.0}
    policy = PerfectRatePolicy(COSTS, rates.__getitem__)
    assert policy.on_request(A, 0.0).store_until == math.inf
    assert policy.on_request(B, 1.0).store_until is None


# --- clairvoyant lower bound ------------------------------------------------


def test_next_request_times_aligns_per_item():
    reqs = [
        (0.0, A),
        (1.0, B),
        (2.0, A),
        (3.0, A),
        (4.0, B),
    ]
    assert next_request_times(reqs) == [2.0, 4.0, 3.0, None, None]


def test_lower_bound_keeps_cheap_gaps():
    gap = BREAK_EVEN_WINDOW / 2
    reqs = [(0.0, A), (gap, A)]
    policy = LowerBoundPolicy(COSTS, next_request_times(reqs))
    first = policy.on_request(A, 0.0)
    second = policy.on_request(A, gap)
    assert first == PolicyVerdict(False, gap)
    assert second.hit is True
    assert second.store_until is None


def test_lower_bound_tie_gap_recomputes():
    gap = BREAK_EVEN_WINDOW
    reqs = [(0.0, A), (gap, A)]
    policy = LowerBoundPolicy(COSTS, next_request_times(reqs))
    first = policy.on_request(A, 0.0)
    second = policy.on_request(A, gap)
    assert first == PolicyVerdict(False, None)
    assert second.hit is False


def test_lower_bound_never_stores_after_final_request():
    reqs = [(0.0, A), (1.0, A)]
    policy = LowerBoundPolicy(COSTS, next_request_times(reqs))
    policy.on_request(A, 0.0)
    assert policy.on_request(A, 1.0).store_until is None


def test_lower_bound_interleaved_items():
    reqs = [(0.0, A), (1.0, B), (2.0, A)]
    policy = LowerBoundPolicy(COSTS, next_request_times(reqs))
    v = _drive(policy, reqs)
    assert [x.hit for x in v] == [False, False, True]


def test_lower_bound_exhausted_oracle_errors():
    policy = LowerBoundPolicy(COSTS, [None])
    policy.on_request(A, 0.0)
    with pytest.raises(ValueError):
        policy.on_request(A, 1.0)


def test_lower_bound_time_regression():
    policy = LowerBoundPolicy(COSTS, [None, None])
    policy.on_request(A, 5.0)
    with pytest.raises(ValueError):
        policy.on_request(A, 4.0)


# --- LRU --------------------------------------------------------------------


def test_lru_capacity_one_thrashes():
    v = _drive(LruPolicy(1), [(0.0, A), (1.0, B), (2.0, A)])
    assert [x.hit for x in v] == [False, False, False]


def test_lru_capacity_two_retains():
    v = _drive(LruPolicy(2), [(0.0, A), (1.0, B), (2.0, A)])
    assert [x.hit for x in v] == [False, False, True]


def test_lru_textbook_eviction():
    v = _drive(LruPolicy(2), [(0.0, A), (1.0, B), (2.0, C_ITEM), (3.0, A)])
    assert [x.hit for x in v] == [False, False, False, False]
    assert v[2].evicted == (A,)


def test_lru_hit_refreshes_recency():
    v = _drive(LruPolicy(2), [(0.0, A), (1.0, B), (2.0, A), (3.0, C_ITEM)])
    assert v[3].evicted == (B,)


def test_lru_never_exceeds_capacity():
    policy = LruPolicy(3)
    pm = PopulationModel(ZipfLaw(20, 0.5), ZipfLaw(3, 0.5), 40.0)
    for time, item in gen_synthetic(pm, 25.0, seed=2):
        policy.on_request(item, time)
        assert len(policy) <= 3


def test_lru_store_until_is_open_ended():
    v = LruPolicy(2).on_request(A, 0.0)
    assert v.store_until == math.inf


def test_lru_rejects_bad_capacity():
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError):
            LruPolicy(bad)


# --- cross-policy dominance -------------------------------------------------


def test_lower_bound_ledger_dominates_all_policies():
    pm = PopulationModel(ZipfLaw(30, 0.7), ZipfLaw(5, 0.9), 5.0)
    for seed in (1, 2, 3):
        reqs = list(gen_synthetic(pm, 200.0, seed=seed))
        floor = run(reqs, LowerBoundPolicy(COSTS, next_request_times(reqs)), COSTS)
        rivals = [
            GlobalTtlPolicy(0.0),
            GlobalTtlPolicy(60.0),
            GlobalTtlPolicy(math.inf),
            IndividualTtlPolicy(BREAK_EVEN_WINDOW, COSTS),
            LruPolicy(8),
        ]
        for policy in rivals:
            ledger = run(reqs, policy, COSTS)
            assert floor.total_dollars <= ledger.total_dollars * (1 + 1e-9)
