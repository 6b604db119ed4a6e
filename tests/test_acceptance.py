"""End-to-end acceptance battery.

Nine checks covering the whole package: the per-item cost rule, simulation
against every closed-form evaluator, the grid-searched optimum, paired
LRU-vs-TTL sweeps, the policy cost ordering on synthetic and bundled
workloads, estimation-window sensitivity, the clairvoyant floor against an
independent oracle, and deterministic replay of the bundled miniatures.

The statistical checks price through `sweep` and `run_experiment`, as users
do; `test_battery_rows_equal_the_engine` holds each battery row and kind
to the event engine, field for field, on a full-size trace.

Each test prints one [PASS]/[FAIL] line with the measured margins. Battery
sizes were chosen so every statistical tolerance holds with wide margin on
seeds 1..5; the full module takes about a minute on two cores.
"""

import functools
import math
import time
from pathlib import Path

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
from cachecost.engine import by_item, lower_bound_verdicts, run, run_length_ledger
from cachecost.experiments import (
    _policy_param,
    _run_single,
    build_trace,
    parse_config,
    run_experiment,
    sweep,
)
from cachecost.policies import LowerBoundPolicy, next_request_times
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

from engine_oracle import engine_fields, row_fields

COSTS = default_cost_model()
MC = default_monte_carlo()
S = COSTS.storage_per_item_hour
C = COSTS.compute_per_item
X = COSTS.transmission_per_item
THRESHOLD_RATE = COSTS.break_even_rate()      # S/C
BREAK_EVEN_W = COSTS.break_even_window()      # C/S
NO_CACHE_COST = C + X

SEEDS = (1, 2, 3, 4, 5)
JOBS = 2  # worker processes of each battery run or sweep

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


def _config(kind, workload: dict, population=None, *, warmup=0.0, seeds=SEEDS, **param):
    """An in-memory config of one policy kind at the preset prices."""
    sections = {
        "costs": {"storage_per_item_hour": S, "compute_per_item": C, "transmission_per_item": X},
        "population": population or {},
        "policy": {"kind": kind, **param},
        "workload": workload,
        "run": {"seeds": ",".join(map(str, seeds)), "warmup": warmup},
    }
    return parse_config("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items() if keys
    ))


def _synthetic(lam, duration, warmup=0.0, seeds=SEEDS):
    """A battery row on the preset population at rate `lam`: kind -> config."""
    pm = default_population(lam)
    population = {"movies": pm.movies.n, "movie_exponent": pm.movies.s,
                  "ads": pm.ads.n, "ad_exponent": pm.ads.s, "lambda": lam}
    workload = {"source": "synthetic", "duration": duration}
    return functools.partial(_config, workload=workload, population=population,
                             warmup=warmup, seeds=seeds)


def _miniature(name):
    """A bundled count trace overlaid with its ads: kind -> config."""
    ads, ad_exp = MINIATURES[name]
    return functools.partial(_config, workload={
        "source": "count_trace", "path": DATA / name, "ad_catalog": ads, "ad_exponent": ad_exp
    })


def _listed(cfg, seed: int) -> list:
    """The trace of (cfg, seed) as the event engine takes it."""
    return list(requests_of(build_trace(cfg, seed)))


def _means(rows) -> list:
    return [row for row in rows if row.seed == "mean"]


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
    for lam, (duration, warmup) in FIXED_TTL_BATTERY.items():
        pm, row = default_population(lam), _synthetic(lam, duration, warmup)
        shared = sweep(row("global_ttl", ttl=FIXED_TTLS[0]), "ttl", FIXED_TTLS, jobs=JOBS)
        floor = run_experiment(row("lower_bound"), jobs=JOBS)
        runs = [r.requests for r in shared + floor if r.seed.isdigit()]
        fewest_requests = min(fewest_requests, *runs)
        for mean in _means(shared):
            want = global_ttl_cost(pm, mean.param_value, COSTS, MC)
            worst_ttl = max(worst_ttl, abs(mean.cost_per_request - want) / want)
        want = lower_bound_cost(pm, COSTS, MC)
        worst_floor = max(worst_floor, abs(floor[-1].cost_per_request - want) / want)
    ok = worst_ttl < 0.02 and worst_floor < 0.02 and fewest_requests >= 300_000
    _report(
        capsys,
        "simulation vs closed form",
        ok,
        f"rel err: shared lifetime {worst_ttl:.2e}, floor {worst_floor:.2e} "
        f"(tol 2e-2); min {fewest_requests} measured requests per run",
    )


# --- 3: windowed policy vs the per-item ideal ------------------------------------


WINDOWED_BATTERY = {10.0: 13_000.0, 100.0: 5000.0, 300.0: 4000.0}
WINDOWED_WARMUP = 3000.0


def test_windowed_policy_lands_above_ideal_and_floor(capsys):
    margins, known_errs = [], []
    above_floor = True
    for lam, duration in WINDOWED_BATTERY.items():
        pm = default_population(lam)
        ideal = individual_ttl_cost(pm, COSTS, MC)
        floor = lower_bound_cost(pm, COSTS, MC)
        row = _synthetic(lam, duration, WINDOWED_WARMUP)
        est = run_experiment(row("individual_ttl", window=BREAK_EVEN_W), jobs=JOBS)[-1]
        known = run_experiment(row("known_rate"), jobs=JOBS)[-1]
        margins.append((est.cost_per_request - ideal) / ideal)
        known_errs.append(abs(known.cost_per_request - ideal) / ideal)
        above_floor &= est.cost_per_request >= floor
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


def test_lru_and_ttl_sweeps_agree_on_minimum_cost(capsys):
    gaps = {}
    for lam, (duration, warmup, ttls, capacities) in LRU_BATTERY.items():
        row = _synthetic(lam, duration, warmup)
        # the argmin row of a sweep holds its lowest mean cost
        best_ttl = sweep(row("global_ttl", ttl=ttls[0]), "ttl", ttls, jobs=JOBS)[-1]
        best_cap = sweep(row("lru", capacity=capacities[0]), "capacity", capacities, jobs=JOBS)[-1]
        best_ttl, best_cap = best_ttl.cost_per_request, best_cap.cost_per_request
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


# --- 6: policy ordering on synthetic and bundled workloads --------------------------


ORDERING_GRID = (0.0, 60.0, 240.0, 960.0, BREAK_EVEN_W, 4000.0)
ORDERING_WORKLOADS = {
    "synthetic": _synthetic(100.0, 1000.0, seeds=(1, 2, 3)),
    **{name.removesuffix(".csv"): _miniature(name) for name in MINIATURES},
}


def _total(row) -> float:
    """A row's dollars, summed as `CostLedger.total_dollars` sums them."""
    return row.compute_d + row.storage_d + row.transmission_d


def _ordering_battery(config):
    """Per-seed floor dominance on one trace plus mean ordering across policies."""
    floor = run_experiment(config("lower_bound"), jobs=JOBS)
    est = run_experiment(config("individual_ttl", window=BREAK_EVEN_W), jobs=JOBS)
    shared = sweep(config("global_ttl", ttl=ORDERING_GRID[0]), "ttl", ORDERING_GRID, jobs=JOBS)
    per_seed = {}  # seed -> its floor row, then every rival's
    for row in floor + est + shared:
        if row.seed.isdigit():
            per_seed.setdefault(row.seed, []).append(row)
    one_trace = all(len({r.trace_checksum for r in rows}) == 1 for rows in per_seed.values())
    assert one_trace, "a seed's rows price different traces"
    exact = all(
        _total(rows[0]) <= _total(other) * (1 + 1e-9)
        for rows in per_seed.values()
        for other in rows[1:]
    )
    floor_mean, est_mean = floor[-1].cost_per_request, est[-1].cost_per_request
    best_global_mean = shared[-1].cost_per_request  # the argmin row
    chain_ok = floor_mean <= est_mean <= best_global_mean <= NO_CACHE_COST
    return exact, chain_ok, floor_mean, est_mean, best_global_mean


def test_policy_cost_ordering_holds_everywhere(capsys):
    reports = []
    all_ok = True
    for name, config in ORDERING_WORKLOADS.items():
        exact, chain, floor, est, best = _ordering_battery(config)
        all_ok &= exact and chain
        reports.append(f"{name} {floor:.3e}<={est:.3e}<={best:.3e} exact={exact}")
    _report(
        capsys,
        "policy cost ordering",
        all_ok,
        "; ".join(reports) + f"; ceiling {NO_CACHE_COST:.3e}",
    )


# --- 7: estimation-window sensitivity ------------------------------------------------


WINDOW_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
WINDOW_ROW = _synthetic(100.0, 8000.0, 6000.0)


def test_window_sensitivity_around_break_even(capsys):
    windows = [f * BREAK_EVEN_W for f in WINDOW_FACTORS]
    rows = sweep(WINDOW_ROW("individual_ttl", window=windows[0]), "window", windows, jobs=JOBS)
    means = {f: row.cost_per_request for f, row in zip(WINDOW_FACTORS, _means(rows))}
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


# --- the battery rows against the event engine --------------------------------------


def _differential_cases():
    """(battery row, kind) -> the points one `_run_single` call prices on the
    row's trace: the battery's parameters there, or the ends of its grid."""
    for lam, (duration, warmup) in FIXED_TTL_BATTERY.items():
        row = _synthetic(lam, duration, warmup)
        yield f"fixed_ttl-{lam:g}-global_ttl", [row("global_ttl", ttl=FIXED_TTLS[-1])]
        yield f"fixed_ttl-{lam:g}-lower_bound", [row("lower_bound")]
    for lam, duration in WINDOWED_BATTERY.items():
        row = _synthetic(lam, duration, WINDOWED_WARMUP)
        yield f"windowed-{lam:g}-individual_ttl", [row("individual_ttl", window=BREAK_EVEN_W)]
        yield f"windowed-{lam:g}-known_rate", [row("known_rate")]
    f = WINDOW_FACTORS[0]
    yield f"window-{f:g}-individual_ttl", [WINDOW_ROW("individual_ttl", window=f * BREAK_EVEN_W)]
    for lam, (duration, warmup, ttls, capacities) in LRU_BATTERY.items():
        row = _synthetic(lam, duration, warmup)
        yield f"lru-{lam:g}-lru", [row("lru", capacity=c) for c in (capacities[0], capacities[-1])]
        yield f"lru-{lam:g}-global_ttl", [row("global_ttl", ttl=ttls[-1])]
    for name, config in ORDERING_WORKLOADS.items():
        yield f"ordering-{name}-lower_bound", [config("lower_bound")]
        yield f"ordering-{name}-individual_ttl", [config("individual_ttl", window=BREAK_EVEN_W)]
        yield f"ordering-{name}-global_ttl", [config("global_ttl", ttl=ORDERING_GRID[-1])]


@pytest.mark.parametrize("points", [pytest.param(p, id=case) for case, p in _differential_cases()])
def test_battery_rows_equal_the_engine(points):
    """On the full-size trace of a battery row at SEEDS[0], the rows that a
    run gives for a kind are the ledgers that `engine.run` gives with the
    kind's policy class, field for field."""
    cfg = points[0]
    rows = _run_single(cfg, SEEDS[0], [(point, _policy_param(point)) for point in points])
    trace = _listed(cfg, SEEDS[0])
    assert [row_fields(row) for row in rows] == [engine_fields(point, trace) for point in points]


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
        items = by_item(_synthetic_blocks(pm, 1000.0 / lam, trial))
        if run_length_ledger(items, lower_bound_verdicts(items, COSTS), COSTS) != ledger:
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
        cfg = _miniature(name)("lower_bound")
        one, two, other = _listed(cfg, 42), _listed(cfg, 42), _listed(cfg, 43)
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
