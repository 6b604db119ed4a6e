"""End-to-end acceptance battery.

Nine checks covering the whole package: the per-item cost rule, simulation
against every closed-form evaluator, the grid-searched optimum, paired
LRU-vs-TTL sweeps, the policy cost ordering on synthetic and bundled
workloads, estimation-window sensitivity, the clairvoyant floor against an
independent oracle, and deterministic replay of the bundled miniatures.

Each test prints one [PASS]/[FAIL] line with the measured margins. Battery
sizes were chosen so every statistical tolerance holds with wide margin on
seeds 1..5; the full module takes a few minutes on one core.
"""

import math
import time
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest

from cachecost.analytic import (
    expected_item_cost,
    global_ttl_cost,
    individual_ttl_cost,
    lower_bound_cost,
    optimal_global_ttl,
)
from cachecost.cli import EXIT_OK, main
from cachecost.engine import (
    by_item,
    cost_per_request,
    global_ttl_verdicts,
    lower_bound_verdicts,
    lru_ledgers,
    run,
    run_length_ledger,
)
from cachecost.policies import (
    GlobalTtlPolicy,
    IndividualTtlPolicy,
    LowerBoundPolicy,
    LruPolicy,
    PerfectRatePolicy,
    next_request_times,
)
from cachecost.presets import (
    default_cost_model,
    default_monte_carlo,
    default_population,
)
from cachecost.workload import (
    _synthetic_blocks,
    gen_synthetic,
    parse_count_trace,
    requests_of,
)

COSTS = default_cost_model()
MC = default_monte_carlo()
S = COSTS.storage_per_item_hour
C = COSTS.compute_per_item
X = COSTS.transmission_per_item
THRESHOLD_RATE = COSTS.break_even_rate()      # S/C
BREAK_EVEN_W = COSTS.break_even_window()      # C/S
NO_CACHE_COST = C + X

SEEDS = (1, 2, 3, 4, 5)

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "cachecost" / "data"
CONFIGS = REPO / "configs"

# (ad_catalog, ad_exponent) used when replaying each bundled miniature
MINIATURES = {
    "vod_premium.csv": (20, 0.9),
    "ugc_large.csv": (12, 0.8),
    "ugc_small.csv": (8, 0.7),
}


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _materialize(lam: float, duration: float, seed: int):
    return list(gen_synthetic(default_population(lam), duration, seed))


def _mean_cost(trace, policy, warmup: float) -> float:
    return cost_per_request(run(trace, policy, COSTS, warmup=warmup))


def _kernel_floor(blocks, warmup: float = 0.0):
    """The clairvoyant floor priced as a run is: sorted by item, verdicts as
    arrays, then the run-length kernel."""
    items = by_item(blocks)
    return run_length_ledger(items, lower_bound_verdicts(items, COSTS), COSTS, warmup=warmup)


# --- 1: per-item cost rule ----------------------------------------------------


def test_threshold_rule_matches_expected_cost(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(101)
    n = 10_000
    below = THRESHOLD_RATE * rng.uniform(0.01, 0.9, n // 2)
    above = THRESHOLD_RATE * 10.0 ** rng.uniform(math.log10(1.1), 3.0, n // 2)
    rates = np.concatenate([below, above])
    # lifetimes scaled to each rate, keeping exp(-rate*ttl) off its float
    # plateau so monotonicity is strict
    base = rng.uniform(0.5, 12.0, n)
    growth = rng.uniform(1.1, 1.3, n)

    decision_ok = monotone_ok = True
    for rate, b, g in zip(rates, base, growth):
        ttl = b / rate
        cost_short = expected_item_cost(rate, ttl, COSTS)
        cost_long = expected_item_cost(rate, ttl * g, COSTS)
        forever = expected_item_cost(rate, 1e3 / rate, COSTS)
        if (forever < C) != (rate > THRESHOLD_RATE):
            decision_ok = False
        if rate > THRESHOLD_RATE:
            monotone_ok &= cost_long < cost_short < C
        else:
            monotone_ok &= cost_long > cost_short > C

    indifferent = max(
        abs(expected_item_cost(THRESHOLD_RATE, ttl, COSTS) - C)
        for ttl in (0.0, 100.0, BREAK_EVEN_W, 1e7, math.inf)
    )
    elapsed = time.monotonic() - started
    ok = decision_ok and monotone_ok and indifferent < 1e-12 * C and elapsed < 1.0
    _report(
        capsys,
        "per-item threshold rule",
        ok,
        f"{n} rate/lifetime pairs, threshold indifference {indifferent:.2e}, "
        f"{elapsed:.2f}s",
    )


# --- 2: fixed shared lifetime and floor vs closed form --------------------------


FIXED_TTL_BATTERY = {
    10.0: (32_000.0, 1000.0),
    100.0: (4100.0, 1000.0),
    300.0: (1640.0, 600.0),
}
FIXED_TTLS = (0.0, 60.0, 120.0, 300.0)


def test_simulated_costs_match_closed_form(capsys):
    worst_ttl = worst_floor = 0.0
    fewest_requests = math.inf
    columnar_mismatches = []
    floor_mismatches = []
    for lam, (duration, warmup) in FIXED_TTL_BATTERY.items():
        pm = default_population(lam)
        ttl_costs = {ttl: [] for ttl in FIXED_TTLS}
        floor_costs = []
        for seed in SEEDS:
            trace = _materialize(lam, duration, seed)
            blocks = list(_synthetic_blocks(pm, duration, seed))
            items = by_item(blocks)
            for ttl in FIXED_TTLS:
                ledger = run(trace, GlobalTtlPolicy(ttl), COSTS, warmup=warmup)
                verdicts = global_ttl_verdicts(items, ttl)
                if run_length_ledger(items, verdicts, COSTS, warmup=warmup) != ledger:
                    columnar_mismatches.append((lam, seed, ttl))
                fewest_requests = min(fewest_requests, ledger.requests)
                ttl_costs[ttl].append(cost_per_request(ledger))
            floor = LowerBoundPolicy(COSTS, next_request_times(trace))
            ledger = run(trace, floor, COSTS, warmup=warmup)
            if _kernel_floor(blocks, warmup) != ledger:
                floor_mismatches.append((lam, seed))
            fewest_requests = min(fewest_requests, ledger.requests)
            floor_costs.append(cost_per_request(ledger))
        for ttl in FIXED_TTLS:
            want = global_ttl_cost(pm, ttl, COSTS, MC)
            worst_ttl = max(worst_ttl, abs(fmean(ttl_costs[ttl]) - want) / want)
        want = lower_bound_cost(pm, COSTS, MC)
        worst_floor = max(worst_floor, abs(fmean(floor_costs) - want) / want)
    ok = worst_ttl < 0.02 and worst_floor < 0.02 and fewest_requests >= 300_000
    _report(
        capsys,
        "simulation vs closed form",
        ok,
        f"rel err: shared lifetime {worst_ttl:.2e}, floor {worst_floor:.2e} "
        f"(tol 2e-2); min {fewest_requests} measured requests per run; "
        f"columnar shared-lifetime ledgers differing from the engine: {columnar_mismatches}; "
        f"columnar floor ledgers differing: {floor_mismatches}",
    )
    assert not columnar_mismatches
    assert not floor_mismatches


# --- 3: windowed policy vs the per-item ideal ------------------------------------


WINDOWED_BATTERY = {10.0: 13_000.0, 100.0: 5000.0, 300.0: 4000.0}
WINDOWED_WARMUP = 3000.0


def _true_rate_fn(pm):
    movie_p = pm.movies.probabilities
    ad_p = pm.ads.probabilities
    lam = pm.lambda_global

    def rate_of(item):
        movie, ad = item
        return lam * movie_p[movie - 1] * ad_p[ad - 1]

    return rate_of


def test_windowed_policy_lands_above_ideal_and_floor(capsys):
    margins, known_errs = [], []
    above_floor = True
    for lam, duration in WINDOWED_BATTERY.items():
        pm = default_population(lam)
        ideal = individual_ttl_cost(pm, COSTS, MC)
        floor = lower_bound_cost(pm, COSTS, MC)
        est_costs, known_costs = [], []
        for seed in SEEDS:
            trace = _materialize(lam, duration, seed)
            est_costs.append(
                _mean_cost(trace, IndividualTtlPolicy(BREAK_EVEN_W, COSTS), WINDOWED_WARMUP)
            )
            known_costs.append(
                _mean_cost(trace, PerfectRatePolicy(COSTS, _true_rate_fn(pm)), WINDOWED_WARMUP)
            )
        est, known = fmean(est_costs), fmean(known_costs)
        margins.append((est - ideal) / ideal)
        known_errs.append(abs(known - ideal) / ideal)
        above_floor &= est >= floor
    ok = (
        all(0.0 < m <= 0.05 for m in margins)
        and above_floor
        and all(e < 0.02 for e in known_errs)
    )
    _report(
        capsys,
        "windowed estimation vs ideal",
        ok,
        "estimated-rate margins "
        + ", ".join(f"{m:+.3%}" for m in margins)
        + " (need (0, +5%]); known-rate errs "
        + ", ".join(f"{e:.3%}" for e in known_errs)
        + " (tol 2%)",
    )


# --- 4: grid-searched shared lifetime ---------------------------------------------


def test_grid_searched_ttl_matches_known_optima(capsys):
    grid = [30.0 * k for k in range(21)]
    found = {}
    for lam in (10.0, 100.0, 300.0):
        best_ttl, _ = optimal_global_ttl(default_population(lam), COSTS, MC, grid)
        found[lam] = best_ttl
    ok = (
        found[10.0] == 0.0
        and abs(found[100.0] - 60.0) <= 30.0
        and abs(found[300.0] - 120.0) <= 30.0
    )
    _report(
        capsys,
        "grid-searched optimum",
        ok,
        f"argmin lifetimes {found[10.0]:.0f}/{found[100.0]:.0f}/{found[300.0]:.0f}h "
        "for rates 10/100/300 (want 0, 60+-30, 120+-30)",
    )


# --- 5: paired LRU vs shared-lifetime sweeps ---------------------------------------


LRU_BATTERY = {
    10.0: (8400.0, 400.0, (0.0, 30.0, 60.0), (1, 5, 25, 100, 300)),
    50.0: (3400.0, 400.0, (0.0, 30.0, 60.0, 90.0), (250, 700, 1500, 3000, 6000)),
    100.0: (2400.0, 400.0, (0.0, 30.0, 60.0, 90.0, 120.0), (1000, 2500, 5500, 11000, 22000)),
}


def _kernel_ttl(items, ttl: float, warmup: float):
    """A shared lifetime priced as a run is: verdicts as arrays, then the
    run-length kernel."""
    return run_length_ledger(items, global_ttl_verdicts(items, ttl), COSTS, warmup=warmup)


def test_lru_and_ttl_sweeps_agree_on_minimum_cost(capsys):
    """Priced through the shipped kernels; `test_lru_battery_kernels_equal_the_engine`
    holds them to the engine on every battery row."""
    gaps = {}
    for lam, (duration, warmup, ttls, capacities) in LRU_BATTERY.items():
        ttl_costs = {t: [] for t in ttls}
        cap_costs = {c: [] for c in capacities}
        for seed in SEEDS:
            items = by_item(_synthetic_blocks(default_population(lam), duration, seed))
            for t in ttls:
                ttl_costs[t].append(cost_per_request(_kernel_ttl(items, t, warmup)))
            for c, ledger in zip(capacities, lru_ledgers(items, capacities, COSTS, warmup=warmup)):
                cap_costs[c].append(cost_per_request(ledger))
        best_ttl = min(fmean(v) for v in ttl_costs.values())
        best_cap = min(fmean(v) for v in cap_costs.values())
        gaps[lam] = abs(best_cap - best_ttl) / best_ttl
    ok = all(g <= 0.03 for g in gaps.values())
    _report(
        capsys,
        "LRU vs shared lifetime",
        ok,
        "min-cost gaps "
        + ", ".join(f"{lam:.0f}/h: {g:.3%}" for lam, g in gaps.items())
        + " (tol 3%)",
    )


@pytest.mark.parametrize("lam", list(LRU_BATTERY))
def test_lru_battery_kernels_equal_the_engine(lam):
    """On a full-size trace of each battery row, the smallest and largest
    capacity and the longest lifetime give the engine's ledger exactly."""
    duration, warmup, ttls, capacities = LRU_BATTERY[lam]
    blocks = list(_synthetic_blocks(default_population(lam), duration, SEEDS[0]))
    trace = list(requests_of(blocks))
    ends = (capacities[0], capacities[-1])
    items = by_item(blocks)
    assert lru_ledgers(items, ends, COSTS, warmup=warmup) == [
        run(trace, LruPolicy(c), COSTS, warmup=warmup) for c in ends
    ]
    assert _kernel_ttl(items, ttls[-1], warmup) == run(
        trace, GlobalTtlPolicy(ttls[-1]), COSTS, warmup=warmup
    )


# --- 6: policy ordering on synthetic and bundled workloads --------------------------


ORDERING_GRID = (0.0, 60.0, 240.0, 960.0, BREAK_EVEN_W, 4000.0)


def _ordering_battery(traces):
    """Per-seed floor dominance plus mean ordering across policies."""
    floor_means, est_means, best_global_means = [], [], []
    exact = True
    per_seed = {"floor": [], "est": [], "global": {t: [] for t in ORDERING_GRID}}
    for trace in traces:
        floor_ledger = run(trace, LowerBoundPolicy(COSTS, next_request_times(trace)), COSTS)
        est_ledger = run(trace, IndividualTtlPolicy(BREAK_EVEN_W, COSTS), COSTS)
        rivals = [est_ledger.total_dollars]
        per_seed["floor"].append(cost_per_request(floor_ledger))
        per_seed["est"].append(cost_per_request(est_ledger))
        for ttl in ORDERING_GRID:
            ledger = run(trace, GlobalTtlPolicy(ttl), COSTS)
            rivals.append(ledger.total_dollars)
            per_seed["global"][ttl].append(cost_per_request(ledger))
        exact &= all(
            floor_ledger.total_dollars <= other * (1 + 1e-9) for other in rivals
        )
    floor_means = fmean(per_seed["floor"])
    est_means = fmean(per_seed["est"])
    best_global_means = min(fmean(v) for v in per_seed["global"].values())
    chain_ok = floor_means <= est_means <= best_global_means <= NO_CACHE_COST
    return exact, chain_ok, floor_means, est_means, best_global_means


def _miniature_traces(name, seeds):
    from cachecost.experiments import build_trace, parse_config

    ads, ad_exp = MINIATURES[name]
    cfg = parse_config(f"""
[costs]
storage_per_item_hour = {S!r}
compute_per_item = {C!r}
transmission_per_item = {X!r}

[policy]
kind = lower_bound

[workload]
source = count_trace
path = {DATA / name}
ad_catalog = {ads}
ad_exponent = {ad_exp}
""")
    return [list(requests_of(build_trace(cfg, seed))) for seed in seeds]


def test_policy_cost_ordering_holds_everywhere(capsys):
    reports = []
    all_ok = True
    synth = [_materialize(100.0, 1000.0, seed) for seed in (1, 2, 3)]
    exact, chain, floor, est, best = _ordering_battery(synth)
    all_ok &= exact and chain
    reports.append(f"synthetic {floor:.3e}<={est:.3e}<={best:.3e} exact={exact}")
    for name in MINIATURES:
        traces = _miniature_traces(name, SEEDS)
        exact, chain, floor, est, best = _ordering_battery(traces)
        all_ok &= exact and chain
        reports.append(
            f"{name.removesuffix('.csv')} {floor:.3e}<={est:.3e}<={best:.3e} exact={exact}"
        )
    _report(
        capsys,
        "policy cost ordering",
        all_ok,
        "; ".join(reports) + f"; ceiling {NO_CACHE_COST:.3e}",
    )


# --- 7: estimation-window sensitivity ------------------------------------------------


WINDOW_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def test_window_sensitivity_around_break_even(capsys):
    duration, warmup = 8000.0, 6000.0
    window_costs = {f: [] for f in WINDOW_FACTORS}
    for seed in SEEDS:
        trace = _materialize(100.0, duration, seed)
        for f in WINDOW_FACTORS:
            policy = IndividualTtlPolicy(f * BREAK_EVEN_W, COSTS)
            window_costs[f].append(_mean_cost(trace, policy, warmup))
    means = {f: fmean(v) for f, v in window_costs.items()}
    pivot = means[1.0]
    short_ok = all(pivot < means[f] for f in WINDOW_FACTORS if f < 1.0)
    flat = {f: abs(pivot - means[f]) / means[f] for f in WINDOW_FACTORS if f > 1.0}
    flat_ok = all(d < 0.02 for d in flat.values())
    _report(
        capsys,
        "estimation-window sensitivity",
        short_ok and flat_ok,
        f"break-even window cost {pivot:.4e}; short-window penalties "
        + ", ".join(f"{f}x {means[f] / pivot - 1:+.1%}" for f in WINDOW_FACTORS if f < 1.0)
        + "; flat-region gaps "
        + ", ".join(f"{f}x {d:.2%}" for f, d in flat.items())
        + " (tol 2%)",
    )


# --- 8: clairvoyant floor vs gap-scan oracle ------------------------------------------


def _gap_scan_price(trace) -> float:
    """First access pays a recompute; every revisit pays min(gap*S, C)."""
    last_seen = {}
    total = len(trace) * X
    for time, item in trace:
        prev = last_seen.get(item)
        if prev is None:
            total += C
        else:
            total += min((time - prev) * S, C)
        last_seen[item] = time
    return total


def test_clairvoyant_floor_matches_gap_scan_oracle(capsys):
    from cachecost.analytic import PopulationModel, ZipfLaw

    started = time.monotonic()
    rng = np.random.default_rng(808)
    worst = 0.0
    trials = 100
    kernel_mismatches = []
    for trial in range(trials):
        lam = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0)))
        pm = PopulationModel(
            movies=ZipfLaw(int(rng.integers(10, 60)), float(rng.uniform(0.5, 1.1))),
            ads=ZipfLaw(int(rng.integers(1, 7)), float(rng.uniform(0.5, 1.0))),
            lambda_global=lam,
        )
        trace = list(gen_synthetic(pm, 1000.0 / lam, seed=trial))
        ledger = run(trace, LowerBoundPolicy(COSTS, next_request_times(trace)), COSTS)
        if _kernel_floor(_synthetic_blocks(pm, 1000.0 / lam, trial)) != ledger:
            kernel_mismatches.append(trial)
        want = _gap_scan_price(trace)
        worst = max(worst, abs(ledger.total_dollars - want) / want)
    elapsed = time.monotonic() - started
    ok = worst < 1e-9 and elapsed < 10.0
    _report(
        capsys,
        "clairvoyant floor vs oracle",
        ok,
        f"{trials} random ~1000-request traces, worst rel diff {worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s; columnar floor ledgers differing from the "
        f"engine: {kernel_mismatches}",
    )
    assert not kernel_mismatches


# --- 9: bundled miniatures and frozen outputs ------------------------------------------


def test_bundled_miniatures_replay_reproducibly(capsys, tmp_path):
    parse_ok = True
    for name in MINIATURES:
        with open(DATA / name, encoding="utf-8") as handle:
            records = parse_count_trace(handle)
        parse_ok &= len(records) > 100 and all(r.horizon > r.upload_time for r in records)
        one = _miniature_traces(name, (42,))[0]
        two = _miniature_traces(name, (42,))[0]
        other = _miniature_traces(name, (43,))[0]
        parse_ok &= one == two and one != other and len(one) > 5000

    mismatched = []
    sweeps = {
        "vod_ttl_sweep.csv": (
            "trace_vod_ttl_sweep.ini", "--ttl-grid", "0,240,960,4000",
        ),
        "ugc_large_capacity_sweep.csv": (
            "trace_ugc_large_capacity_sweep.ini", "--capacity-grid", "50,200,800",
        ),
        "ugc_small_window_sweep.csv": (
            "trace_ugc_small_window_sweep.ini", "--window-grid", "740.74,1481.48,2962.96",
        ),
    }
    for golden, (config, flag, grid) in sweeps.items():
        out = tmp_path / golden
        code = main([
            "sweep", "--config", str(CONFIGS / config), flag, grid, "--out", str(out),
        ])
        if code != EXIT_OK or out.read_bytes() != (CONFIGS / "golden" / golden).read_bytes():
            mismatched.append(golden)
    golden_ok = not mismatched

    ok = parse_ok and golden_ok
    _report(
        capsys,
        "bundled miniatures",
        ok,
        f"3 count traces parse and synthesize deterministically; "
        f"frozen sweep outputs regenerate byte-identically (golden_ok={golden_ok}; "
        f"not regenerated: {', '.join(mismatched) or 'none'})",
    )
