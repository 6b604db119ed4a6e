"""Closed-form evaluators against hand values and independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachecost.analytic import (
    CostModel,
    KeepDecision,
    MonteCarloSpec,
    PopulationModel,
    ZipfLaw,
    expected_item_cost,
    global_ttl_cost,
    harmonic,
    individual_ttl_cost,
    keep_decision,
    keeps,
    lower_bound_cost,
    optimal_global_ttl,
    sample_item_rates,
)
from cachecost.engine import run
from cachecost.policies import GlobalTtlPolicy, IndividualTtlPolicy, LruPolicy
from cachecost.presets import default_cost_model, default_population
from cachecost.workload import CountTraceRecord, gen_synthetic, subsample_records

COSTS = default_cost_model()
S = COSTS.storage_per_item_hour
C = COSTS.compute_per_item
X = COSTS.transmission_per_item

# independently computed with math.fsum over the raw terms
FSUM_HARMONICS = {
    (10_000, 0.8): 27.110644282579962,
    (5_000, 0.94): 11.68982906837556,
    (500, 0.91): 8.899852479254626,
}

# arbitrary-precision evaluation of the per-item cost at rate = 2S/C,
# ttl = C/S; analytically C * (1 + e^-2) / 2
EQ3_AT_DOUBLE_RATE = 4.087207019651806e-4


def _spec(samples=25_000, seed=0):
    return MonteCarloSpec(samples=samples, seed=seed)


def _single_item_population(lam):
    return PopulationModel(movies=ZipfLaw(1, 0.8), ads=ZipfLaw(1, 0.94), lambda_global=lam)


# --- cost model -------------------------------------------------------------


def test_break_even_values():
    assert COSTS.break_even_rate() == S / C
    assert COSTS.break_even_window() == C / S
    assert COSTS.break_even_rate() == pytest.approx(6.75e-4, rel=1e-12)
    assert COSTS.break_even_window() == pytest.approx(1481.481481, rel=1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(storage_per_item_hour=0.0, compute_per_item=C, transmission_per_item=X),
        dict(storage_per_item_hour=-S, compute_per_item=C, transmission_per_item=X),
        dict(storage_per_item_hour=S, compute_per_item=0.0, transmission_per_item=X),
        dict(storage_per_item_hour=S, compute_per_item=C, transmission_per_item=-1e-9),
        dict(storage_per_item_hour=math.inf, compute_per_item=C, transmission_per_item=X),
        dict(storage_per_item_hour=S, compute_per_item=math.nan, transmission_per_item=X),
    ],
)
def test_cost_model_rejects_bad_prices(kwargs):
    with pytest.raises(ValueError):
        CostModel(**kwargs)


def test_transmission_may_be_zero():
    cm = CostModel(S, C, 0.0)
    assert cm.transmission_per_item == 0.0


# --- harmonic numbers -------------------------------------------------------


def test_harmonic_single_term():
    assert harmonic(1, 0.8) == 1.0


def test_harmonic_three_unit_terms():
    assert harmonic(3, 1.0) == pytest.approx(11.0 / 6.0, abs=1e-9)


@pytest.mark.parametrize("n,s", sorted(FSUM_HARMONICS))
def test_harmonic_matches_compensated_oracle(n, s):
    assert harmonic(n, s) == pytest.approx(FSUM_HARMONICS[(n, s)], rel=1e-12)


def test_harmonic_zero_exponent_counts_ranks():
    assert harmonic(1000, 0.0) == 1000.0


def test_harmonic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        harmonic(0, 0.8)
    with pytest.raises(ValueError):
        harmonic(10, -0.1)
    with pytest.raises(ValueError):
        harmonic(10.5, 0.8)


# --- Zipf law ---------------------------------------------------------------


def test_zipf_pmf_degenerate_catalog():
    assert ZipfLaw(1, 3.7).probabilities[0] == 1.0


def test_zipf_pmf_two_ranks_by_hand():
    law = ZipfLaw(2, 1.0)
    assert law.probabilities[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert law.probabilities[1] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_zipf_pmf_top_rank_is_reciprocal_harmonic():
    law = ZipfLaw(10_000, 0.8)
    assert law.probabilities[0] == pytest.approx(1.0 / harmonic(10_000, 0.8), rel=1e-12)


@pytest.mark.parametrize("n,s", [(10_000, 0.8), (5_000, 0.94), (500, 0.91), (7, 0.0)])
def test_zipf_pmf_sums_to_one_and_is_nonincreasing(n, s):
    law = ZipfLaw(n, s)
    p = law.probabilities
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(np.diff(p) <= 0.0)
    assert law.cumulative[-1] == 1.0


def test_zipf_law_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfLaw(0, 0.8)
    with pytest.raises(ValueError):
        ZipfLaw(10, -0.5)
    with pytest.raises(ValueError):
        ZipfLaw(10, math.inf)


def test_zipf_sampling_is_deterministic_and_in_range():
    law = ZipfLaw(500, 0.91)
    a = law.sample(np.random.default_rng(7), 10_000)
    b = law.sample(np.random.default_rng(7), 10_000)
    assert np.array_equal(a, b)
    assert a.min() >= 1 and a.max() <= 500


def test_zipf_sampling_prefers_low_ranks():
    law = ZipfLaw(1000, 0.9)
    draws = law.sample(np.random.default_rng(3), 50_000)
    top = np.mean(draws == 1)
    assert top == pytest.approx(law.probabilities[0], rel=0.1)


@pytest.mark.parametrize("n,s", [(100_000, 3.0), (10**6, 2.5)])
def test_zipf_cdf_is_sorted_and_draws_as_the_unclipped_cdf(n, s):
    # the running sum rounds past 1 before its last entry at these laws
    law = ZipfLaw(n, s)
    assert np.all(np.diff(law.cumulative) >= 0.0)
    assert law.cumulative[-1] == 1.0
    unclipped = np.cumsum(law.probabilities)
    assert np.any(unclipped[:-1] > 1.0)
    unclipped[-1] = 1.0
    u = np.random.default_rng(5).random(200_000)
    want = np.searchsorted(unclipped, u, side="right") + 1
    assert np.array_equal(law.sample(np.random.default_rng(5), u.size), want)


def _edge_uniforms(cdf: np.ndarray) -> np.ndarray:
    """Every cdf entry and its neighbours, every bucket edge j / 2**16 (a
    multiple of every guide table's 1/K), 0 and the largest double below 1."""
    near = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)))
    u = np.concatenate((near, np.arange(2**16) / 2**16, [0.0, np.nextafter(1.0, 0.0)]))
    return u[(u >= 0.0) & (u < 1.0)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200_000), st.floats(0.0, 3.0), st.integers(0, 2**32))
@example(10_000, 0.8, 0)
@example(5_000, 0.94, 0)
@example(1, 0.0, 0)
@example(200_000, 3.0, 0)
def test_zipf_ranks_equal_the_inverse_cdf_search(n, s, seed):
    law = ZipfLaw(n, s)
    u = np.concatenate((_edge_uniforms(law.cumulative), np.random.default_rng(seed).random(5_000)))
    ranks = law._ranks(u)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, np.searchsorted(law.cumulative, u, side="right") + 1)


def test_zipf_sampling_memory_is_bounded():
    # 1.5x the 22.9 MiB peak of sampling by one searchsorted over all the
    # draws; the uniforms and the int64 ranks alone take 15.3 MiB
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        ZipfLaw(10_000, 0.8).sample(np.random.default_rng(1), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 22.9 * 2**20


# --- population model -------------------------------------------------------


def test_population_joint_pmf_factorizes():
    pm = default_population(100.0)
    assert pm.rates(3, 17) == pytest.approx(
        100.0 * pm.movies.probabilities[2] * pm.ads.probabilities[16], rel=1e-15
    )
    rates = pm.rates(np.array([3, 1]), np.array([17, 5]))
    assert rates.tolist() == [pm.rates(3, 17), pm.rates(1, 5)]


def test_population_joint_pmf_sums_to_one():
    pm = default_population(100.0)
    pa = pm.ads.probabilities
    total = math.fsum(
        float(pm.movies.probabilities[i] * pa.sum()) for i in range(pm.movies.n)
    )
    assert abs(total - 1.0) < 1e-10


def test_population_item_rates_sum_to_lambda():
    pm = default_population(300.0)
    pa_sum = pm.ads.probabilities.sum()
    total = math.fsum(
        float(pm.lambda_global * p * pa_sum) for p in pm.movies.probabilities
    )
    assert abs(total - 300.0) < 1e-10 * 300.0


def test_population_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        default_population(0.0)
    with pytest.raises(ValueError):
        default_population(-5.0)


def test_monte_carlo_spec_validation():
    with pytest.raises(ValueError):
        MonteCarloSpec(samples=0, seed=1)
    with pytest.raises(ValueError):
        MonteCarloSpec(samples=10, seed=-1)
    with pytest.raises(ValueError):
        MonteCarloSpec(samples=True, seed=1)


_RECORDS = [
    CountTraceRecord(movie=m, upload_time=0.0, total_views=5, horizon=48.0) for m in range(1, 21)
]

# Every integer argument passes one rule: (checked name, lowest value,
# the call, the int it keeps or None when it keeps none).
INTEGER_CALLERS = {
    "harmonic": ("n", 1, lambda v: harmonic(v, 0.0), None),
    "ZipfLaw": ("catalog size", 1, lambda v: ZipfLaw(v, 0.5), lambda law: law.n),
    "MonteCarloSpec.samples": ("samples", 1, lambda v: MonteCarloSpec(v, 0), lambda mc: mc.samples),
    "MonteCarloSpec.seed": ("seed", 0, lambda v: MonteCarloSpec(1, v), lambda mc: mc.seed),
    "LruPolicy": ("capacity", 1, LruPolicy, lambda policy: policy.capacity),
    "subsample_records": ("seed", 0, lambda v: subsample_records(_RECORDS, 0.5, v), None),
}


@pytest.mark.parametrize("caller", INTEGER_CALLERS)
@pytest.mark.parametrize("bad", [True, 2.0, "3", "low - 1"])
def test_integer_rule_rejects_with_the_exact_message(caller, bad):
    name, low, call, _ = INTEGER_CALLERS[caller]
    if bad == "low - 1":
        bad, message = low - 1, f"{name} must be >= {low}, got {low - 1}"
    else:
        message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("caller", INTEGER_CALLERS)
def test_integer_rule_accepts_numpy_integers_as_plain_ints(caller):
    _, low, call, kept = INTEGER_CALLERS[caller]
    out = call(np.int64(low))
    if kept is None:
        assert out == call(low)
    else:
        assert kept(out) == low and type(kept(out)) is int


# Every real-valued argument passes one rule: (checked name, bound, whether
# the bound itself is out, what the rule admits on top: None for finite
# values only, or an inclusive ceiling, the call, the float it keeps or None
# when it keeps none).
REAL_CALLERS = {
    "CostModel.storage": ("storage_per_item_hour", 0, True, None,
                          lambda v: CostModel(v, C, X), lambda m: m.storage_per_item_hour),
    "CostModel.compute": ("compute_per_item", 0, True, None,
                          lambda v: CostModel(S, v, X), lambda m: m.compute_per_item),
    "CostModel.transmission": ("transmission_per_item", 0, False, None,
                               lambda v: CostModel(S, C, v), lambda m: m.transmission_per_item),
    "harmonic": ("s", 0, False, None, lambda v: harmonic(3, v), None),
    "ZipfLaw": ("exponent", 0, False, None, lambda v: ZipfLaw(3, v), lambda law: law.s),
    "PopulationModel": ("lambda_global", 0, True, None,
                        lambda v: PopulationModel(ZipfLaw(2, 0.5), ZipfLaw(2, 0.5), v),
                        lambda pm: pm.lambda_global),
    "expected_item_cost.rate": ("rate", 0, True, None,
                                lambda v: expected_item_cost(v, 1.0, COSTS), None),
    "keep_decision": ("rate", 0, False, None, lambda v: keep_decision(v, COSTS), None),
    "GlobalTtlPolicy": ("ttl", 0, False, math.inf, GlobalTtlPolicy, lambda p: p.ttl),
    "run.warmup": ("warmup", 0, False, None,
                   lambda v: run(iter(()), GlobalTtlPolicy(1.0), COSTS, warmup=v), None),
    "IndividualTtlPolicy": ("window", 0, True, None,
                            lambda v: IndividualTtlPolicy(v, COSTS), lambda p: p.window),
    "gen_synthetic": ("duration", 0, True, None,
                      lambda v: next(gen_synthetic(default_population(1.0), v, 0), None), None),
    "CountTraceRecord.upload_time": ("upload_time", 0, False, None,
                                     lambda v: CountTraceRecord(1, v, 0, 10.0),
                                     lambda rec: rec.upload_time),
    "CountTraceRecord.horizon": ("horizon", 2.0, True, None,
                                 lambda v: CountTraceRecord(1, 2.0, 0, v), lambda rec: rec.horizon),
    "subsample_records": ("fraction", 0, True, 1,
                          lambda v: subsample_records(_RECORDS, v, 0), None),
}


def _real_cases(name, low, above, top):
    """(value, message or None when the value is accepted) at NaN, -inf, the
    bound, just inside it, +inf and, below a finite ceiling, around that."""
    op = ">" if above else ">="
    cases = [
        (math.nan, f"{name} must be {op} {low}, got nan"),
        (-math.inf, f"{name} must be {op} {low}, got -inf"),
        (float(low), f"{name} must be {op} {low}, got {float(low)!r}" if above else None),
        (math.nextafter(low, math.inf), None),
    ]
    if top is None:
        return cases + [(math.inf, f"{name} must be finite, got inf")]
    if top == math.inf:
        return cases + [(math.inf, None)]
    over = math.nextafter(top, math.inf)
    return cases + [
        (float(top), None),
        (over, f"{name} must be <= {top}, got {over!r}"),
        (math.inf, f"{name} must be <= {top}, got inf"),
    ]


@pytest.mark.parametrize("caller", REAL_CALLERS)
def test_real_rule_rejects_with_the_exact_message_and_keeps_the_float(caller):
    name, low, above, top, call, kept = REAL_CALLERS[caller]
    for value, message in _real_cases(name, low, above, top):
        if message is None:
            out = call(value)
            if kept is not None:
                assert kept(out) == value and type(kept(out)) is float
            continue
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message


# --- per-item expected cost -------------------------------------------------


def test_item_cost_zero_ttl_is_compute_exactly():
    for rate in (1e-9, 6.75e-4, 3.0, 1e6):
        assert expected_item_cost(rate, 0.0, COSTS) == C


def test_item_cost_infinite_ttl_is_storage_exactly():
    for rate in (1e-6, 0.5, 40.0):
        assert expected_item_cost(rate, math.inf, COSTS) == S / rate


def test_item_cost_at_break_even_rate_is_compute_for_any_ttl():
    rate = COSTS.break_even_rate()
    for ttl in (0.0, 1.0, 60.0, 1481.0, 1e7, math.inf):
        assert abs(expected_item_cost(rate, ttl, COSTS) - C) < 1e-12 * C


def test_item_cost_frozen_point():
    rate = 2.0 * COSTS.break_even_rate()
    ttl = COSTS.break_even_window()
    value = expected_item_cost(rate, ttl, COSTS)
    assert value == pytest.approx(EQ3_AT_DOUBLE_RATE, rel=1e-14)
    assert value == pytest.approx(C * (1.0 + math.exp(-2.0)) / 2.0, rel=1e-14)


def test_item_cost_rejects_bad_arguments():
    with pytest.raises(ValueError):
        expected_item_cost(0.0, 10.0, COSTS)
    with pytest.raises(ValueError):
        expected_item_cost(-1.0, 10.0, COSTS)
    with pytest.raises(ValueError):
        expected_item_cost(1.0, -0.5, COSTS)
    with pytest.raises(ValueError):
        expected_item_cost(1.0, math.nan, COSTS)


def test_item_cost_monotone_on_each_side_of_threshold():
    # strictness is meaningful only while e^(-rate*ttl) is far from the
    # float plateau, so the ttl grid is capped at rate*ttl ~ 16
    rng = np.random.default_rng(11)
    threshold = COSTS.break_even_rate()
    for rate in threshold * rng.uniform(0.01, 0.9, size=20):
        ttls = np.linspace(0.0, 16.0 / rate, 10)
        costs = [expected_item_cost(rate, t, COSTS) for t in ttls]
        assert all(a < b for a, b in zip(costs, costs[1:]))
    for rate in threshold * 10.0 ** rng.uniform(math.log10(1.1), 3.0, size=20):
        ttls = np.linspace(0.0, 16.0 / rate, 10)
        costs = [expected_item_cost(rate, t, COSTS) for t in ttls]
        assert all(a > b for a, b in zip(costs, costs[1:]))


def test_item_cost_bounded_by_extremes():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rate = 10.0 ** rng.uniform(-6, 3)
        ttl = 10.0 ** rng.uniform(-2, 5)
        cost = expected_item_cost(rate, ttl, COSTS)
        assert 0.0 < cost <= max(C, S / rate) * (1 + 1e-12)


def test_item_cost_tiny_exponent_stays_stable():
    # rate*ttl near underflow must not amplify into 0/0 noise; compare
    # against the first-order expansion C + ttl*(S - C*rate)
    rate, ttl = 1e-9, 1e-3
    cost = expected_item_cost(rate, ttl, COSTS)
    assert cost == pytest.approx(C + ttl * (S - C * rate), rel=1e-12)


def test_gap_rule_lower_bounds_every_ttl():
    rng = np.random.default_rng(23)
    for _ in range(300):
        rate = 10.0 ** rng.uniform(-5, 2)
        ttl = 10.0 ** rng.uniform(-1, 5)
        floor = (S / rate) * -math.expm1(-(C / S) * rate)
        assert floor <= expected_item_cost(rate, ttl, COSTS) * (1 + 1e-12)


# --- keep decision ----------------------------------------------------------


def test_keep_decision_cases():
    assert keep_decision(0.0, COSTS) is KeepDecision.NEVER_CACHE
    assert keep_decision(COSTS.break_even_rate(), COSTS) is KeepDecision.NEVER_CACHE
    assert keep_decision(1.0, COSTS) is KeepDecision.CACHE_FOREVER
    with pytest.raises(ValueError):
        keep_decision(-1e-9, COSTS)


# --- population evaluators --------------------------------------------------


def test_global_ttl_cost_zero_ttl_is_compute_plus_transmission():
    pm = default_population(100.0)
    cost = global_ttl_cost(pm, 0.0, COSTS, _spec())
    assert cost == pytest.approx(C + X, rel=1e-12)


def test_global_ttl_cost_single_item_matches_item_cost():
    pm = _single_item_population(40.0)
    for ttl in (0.0, 5.0, 720.0, math.inf):
        want = expected_item_cost(40.0, ttl, COSTS) + X
        assert global_ttl_cost(pm, ttl, COSTS, _spec(samples=100)) == pytest.approx(
            want, rel=1e-12
        )


def test_individual_ttl_cost_all_items_below_threshold():
    # global rate below break-even means every item rate is below too
    pm = PopulationModel(ZipfLaw(10, 0.8), ZipfLaw(10, 0.94), 1e-4)
    assert individual_ttl_cost(pm, COSTS, _spec(samples=500)) == pytest.approx(
        C + X, rel=1e-12
    )


def test_break_even_tie_never_caches_in_every_evaluator():
    costs = CostModel(2e-7, 7e-4, 0.0)
    rate = costs.break_even_rate()
    one = ZipfLaw(1, 0.0)
    pm = PopulationModel(one, one, rate)
    assert not keeps(rate, costs)
    assert keep_decision(rate, costs) is KeepDecision.NEVER_CACHE
    # recompute on every request, not S / rate (7.000000000000001e-4)
    assert individual_ttl_cost(pm, costs, MonteCarloSpec(1, 0)) == 7e-4


def test_individual_ttl_cost_single_hot_item():
    pm = _single_item_population(2.0)
    assert individual_ttl_cost(pm, COSTS, _spec(samples=100)) == pytest.approx(
        S / 2.0 + X, rel=1e-12
    )


def test_lower_bound_limits_per_item():
    cold = _single_item_population(1e-9)
    assert lower_bound_cost(cold, COSTS, _spec(samples=10)) == pytest.approx(
        C + X, rel=1e-6
    )
    hot = _single_item_population(1e6)
    assert lower_bound_cost(hot, COSTS, _spec(samples=10)) == pytest.approx(
        S / 1e6 + X, rel=1e-9
    )


@pytest.mark.parametrize("lam", [10.0, 100.0, 300.0])
def test_policy_ordering_with_shared_samples(lam):
    pm = default_population(lam)
    mc = _spec()
    lb = lower_bound_cost(pm, COSTS, mc)
    indiv = individual_ttl_cost(pm, COSTS, mc)
    best_global = min(global_ttl_cost(pm, t, COSTS, mc) for t in (0.0, 60.0, 120.0, 300.0))
    assert lb <= indiv <= best_global <= C + X


def test_individual_beats_optimal_global():
    pm = default_population(100.0)
    mc = _spec()
    _, best = optimal_global_ttl(pm, COSTS, mc, [30.0 * k for k in range(21)])
    assert individual_ttl_cost(pm, COSTS, mc) < best


def test_evaluators_are_deterministic():
    pm = default_population(100.0)
    mc = _spec()
    assert global_ttl_cost(pm, 60.0, COSTS, mc) == global_ttl_cost(pm, 60.0, COSTS, mc)
    assert individual_ttl_cost(pm, COSTS, mc) == individual_ttl_cost(pm, COSTS, mc)
    assert lower_bound_cost(pm, COSTS, mc) == lower_bound_cost(pm, COSTS, mc)
    assert np.array_equal(sample_item_rates(pm, mc), sample_item_rates(pm, mc))


def test_different_seed_changes_samples():
    pm = default_population(100.0)
    a = sample_item_rates(pm, _spec(seed=0))
    b = sample_item_rates(pm, _spec(seed=1))
    assert not np.array_equal(a, b)


# --- optimal TTL search -----------------------------------------------------


def test_optimal_ttl_single_cold_item_prefers_zero():
    pm = _single_item_population(1e-4)
    best, cost = optimal_global_ttl(pm, COSTS, _spec(samples=50), [0.0, 100.0, 400.0])
    assert best == 0.0
    assert cost == pytest.approx(C + X, rel=1e-12)


def test_optimal_ttl_single_hot_item_prefers_keep_forever():
    # rate clears break-even, so cost decreases in ttl; infinity is legal
    pm = _single_item_population(0.01)
    best, cost = optimal_global_ttl(
        pm, COSTS, _spec(samples=50), [0.0, 10.0, 500.0, math.inf]
    )
    assert best == math.inf
    assert cost == pytest.approx(S / 0.01 + X, rel=1e-12)


def test_optimal_ttl_is_grid_order_independent():
    pm = default_population(100.0)
    mc = _spec(samples=2_000)
    grid = [0.0, 30.0, 60.0, 90.0, 300.0]
    a = optimal_global_ttl(pm, COSTS, mc, grid)
    b = optimal_global_ttl(pm, COSTS, mc, grid[::-1])
    assert a == b


def test_optimal_ttl_tie_prefers_smaller():
    pm = default_population(100.0)
    best, _ = optimal_global_ttl(pm, COSTS, _spec(samples=500), [300.0, 60.0, 60.0])
    assert best == 60.0


def test_optimal_ttl_cost_matches_evaluator():
    pm = default_population(10.0)
    mc = _spec(samples=5_000)
    best, cost = optimal_global_ttl(pm, COSTS, mc, [0.0, 60.0, 120.0])
    assert cost == global_ttl_cost(pm, best, COSTS, mc)


def test_optimal_ttl_rejects_empty_grid():
    pm = default_population(10.0)
    with pytest.raises(ValueError):
        optimal_global_ttl(pm, COSTS, _spec(samples=10), [])
