"""Config parsing, experiment runs, sweeps and the CSV contract."""

import csv
import dataclasses
import functools
import io
import math
import statistics
import struct
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cachecost import experiments
from cachecost.experiments import (
    ANALYTIC_COLUMNS,
    CSV_COLUMNS,
    VALIDATION_COLUMNS,
    ConfigError,
    ResultRow,
    _run_single,
    _summary_row,
    _trace_child_seeds,
    analytic_table,
    build_trace,
    emit_csv,
    load_config,
    override,
    parse_config,
    run_experiment,
    serialize_config,
    sweep,
    validation_report,
)
from cachecost.analytic import (
    MonteCarloSpec,
    ZipfLaw,
    global_ttl_cost,
    individual_ttl_cost,
    lower_bound_cost,
    optimal_global_ttl,
)
from cachecost.engine import cost_per_request, run
from cachecost.policies import (
    GlobalTtlPolicy,
    IndividualTtlPolicy,
    LowerBoundPolicy,
    LruPolicy,
    PerfectRatePolicy,
    next_request_times,
)
from cachecost.workload import (
    TraceFormatError,
    columns_of,
    gen_synthetic,
    requests_of,
)

BASE_COSTS = """
[costs]
storage_per_item_hour = 4.86e-7
compute_per_item = 7.2e-4
transmission_per_item = 5.25e-4
"""

SMALL_SYNTH = BASE_COSTS + """
[population]
movies = 50
movie_exponent = 0.8
ads = 6
ad_exponent = 0.9
lambda = 40.0

[policy]
kind = global_ttl
ttl = 60.0

[workload]
source = synthetic
duration = 30.0

[run]
seeds = 1,2,3
warmup = 0.0
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _cfg(text=SMALL_SYNTH, **kwargs):
    return parse_config(text, **kwargs)


# --- parsing and validation ---------------------------------------------------


def test_parse_minimal_config_applies_defaults():
    cfg = _cfg(BASE_COSTS + """
[population]
movies = 10
movie_exponent = 0.5
ads = 2
ad_exponent = 0.5
lambda = 5.0

[policy]
kind = lower_bound

[workload]
source = synthetic
duration = 10.0
""")
    assert cfg.seeds == (1, 2, 3, 4, 5)
    assert cfg.warmup == 0.0
    assert cfg.mc == MonteCarloSpec(25_000, 0)
    assert cfg.policy.ttl is None and cfg.policy.capacity is None


def test_seeds_accept_commas_and_whitespace():
    cfg = _cfg(SMALL_SYNTH.replace("seeds = 1,2,3", "seeds = 4 5  6"))
    assert cfg.seeds == (4, 5, 6)


def test_config_round_trips_through_serialization():
    cfg = _cfg()
    assert parse_config(serialize_config(cfg)) == cfg


def test_trace_config_round_trips(tmp_path):
    trace = tmp_path / "reqs.csv"
    trace.write_text("0.0,1,1\n1.5,2,1\n")
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = lru
capacity = 4

[workload]
source = request_trace
path = {trace}
""")
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_bundled_config_round_trips(name):
    cfg = load_config(CONFIGS / name)
    assert parse_config(serialize_config(cfg)) == cfg


def test_relative_trace_path_resolves_beside_config(tmp_path):
    (tmp_path / "reqs.csv").write_text("0.0,1,1\n")
    config_file = tmp_path / "exp.ini"
    config_file.write_text(BASE_COSTS + """
[policy]
kind = global_ttl
ttl = 10.0

[workload]
source = request_trace
path = reqs.csv
""")
    cfg = load_config(config_file)
    assert cfg.workload.path == str(tmp_path / "reqs.csv")


@pytest.mark.parametrize(
    "mutation",
    [
        ("[run]", "[runs]"),                              # unknown section
        ("seeds = 1,2,3", "seed_list = 1,2,3"),           # unknown key
        ("kind = global_ttl", "kind = newest_first"),     # unknown policy
        ("ttl = 60.0", "ttl = sixty"),                    # not a number
        ("ttl = 60.0", "ttl = -5"),                       # bad ttl
        ("ttl = 60.0", "capacity = 9"),                   # param kind mismatch
        ("source = synthetic", "source = packets"),       # unknown source
        ("duration = 30.0", "duration = 0"),              # bad duration
        ("seeds = 1,2,3", "seeds = 1,-2"),                # negative seed
        ("seeds = 1,2,3", "seeds ="),                     # empty seed list
        ("warmup = 0.0", "warmup = 30.0"),                # warmup >= duration
        ("lambda = 40.0", "lambda = -1"),                 # bad rate
    ],
)
def test_invalid_configs_are_rejected(mutation):
    old, new = mutation
    with pytest.raises(ConfigError):
        _cfg(SMALL_SYNTH.replace(old, new))


def test_missing_required_sections():
    for drop in ("[costs]", "[policy]", "[workload]"):
        broken = "\n".join(
            line for line in SMALL_SYNTH.splitlines() if drop not in line
        )
        with pytest.raises(ConfigError):
            _cfg(broken)


def test_unparseable_text_is_a_config_error():
    with pytest.raises(ConfigError):
        _cfg("costs]\nnope")


def test_synthetic_workload_rejects_trace_keys():
    with pytest.raises(ConfigError, match="does not apply"):
        _cfg(SMALL_SYNTH.replace("duration = 30.0", "duration = 30.0\nsubsample = 0.5"))


def test_synthetic_workload_requires_population():
    no_pop = SMALL_SYNTH.replace("[population]", "[population_off]")
    with pytest.raises(ConfigError):
        _cfg(no_pop)


def test_missing_trace_file_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {tmp_path / "absent.csv"}
""")


def test_ad_overlay_keys_must_come_together(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1\n")
    with pytest.raises(ConfigError, match="together"):
        _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
ad_catalog = 10
""")


def test_subsample_only_for_count_traces(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1,1\n")
    with pytest.raises(ConfigError, match="count traces"):
        _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
subsample = 0.5
""")


def test_count_trace_requires_ad_overlay(tmp_path):
    trace = tmp_path / "counts.csv"
    trace.write_text("1,0.0,100,48.0\n")
    with pytest.raises(ConfigError, match="ad_catalog"):
        _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = count_trace
path = {trace}
""")


def test_known_rate_requires_synthetic(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1,1\n")
    with pytest.raises(ConfigError, match="synthetic"):
        _cfg(BASE_COSTS + f"""
[policy]
kind = known_rate

[workload]
source = request_trace
path = {trace}
""")


VOD_COUNTS = CONFIGS.parent / "src" / "cachecost" / "data" / "vod_premium.csv"


def _key_config(key, value):
    """SMALL_SYNTH with `key` set to `value`, under a policy kind or
    workload source it applies to."""
    if key in ("ttl", "window", "capacity", "lambda"):
        return _axis_config(key, value)
    if key == "subsample":
        return BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 60.0

[workload]
source = count_trace
path = {VOD_COUNTS}
ad_catalog = 20
ad_exponent = 0.9
subsample = {value}
"""
    line = {"duration": "duration = 30.0", "warmup": "warmup = 0.0", "seeds": "seeds = 1,2,3"}[key]
    return SMALL_SYNTH.replace(line, f"{key} = {value}")


# Each real-valued config key checked by a library rule: (section.key, the
# library's name for it, bound, whether the bound itself is out, what it
# admits on top: None for finite values only, or an inclusive ceiling, and
# where the parsed config keeps it).
REAL_KEYS = {
    "lambda": ("population.lambda", "lambda_global", 0, True, None,
               lambda cfg: cfg.population.lambda_global),
    "window": ("policy.window", "window", 0, True, None, lambda cfg: cfg.policy.window),
    "duration": ("workload.duration", "duration", 0, True, None, lambda cfg: cfg.workload.duration),
    "ttl": ("policy.ttl", "ttl", 0, False, math.inf, lambda cfg: cfg.policy.ttl),
    "warmup": ("run.warmup", "warmup", 0, False, None, lambda cfg: cfg.warmup),
    "subsample": ("workload.subsample", "fraction", 0, True, 1, lambda cfg: cfg.workload.subsample),
}


def _real_key_cases(where, name, low, above, top):
    """(value, ConfigError message or None when accepted) at NaN, -inf, the
    bound, just inside it, +inf and, below a finite ceiling, around that."""
    op = ">" if above else ">="
    cases = [
        (math.nan, f"{where}: {name} must be {op} {low}, got nan"),
        (-math.inf, f"{where}: {name} must be {op} {low}, got -inf"),
        (0.0, f"{where}: {name} must be {op} {low}, got 0.0" if above else None),
        (math.nextafter(low, math.inf), None),
    ]
    if top is None:
        return cases + [(math.inf, f"{where}: {name} must be finite, got inf")]
    if top == math.inf:
        return cases + [(math.inf, None)]
    over = math.nextafter(top, math.inf)
    return cases + [
        (float(top), None),
        (over, f"{where}: {name} must be <= {top}, got {over!r}"),
        (math.inf, f"{where}: {name} must be <= {top}, got inf"),
    ]


@pytest.mark.parametrize("key", REAL_KEYS)
def test_real_key_uses_the_library_rule(key):
    where, name, low, above, top, kept = REAL_KEYS[key]
    for value, message in _real_key_cases(where, name, low, above, top):
        text = _key_config(key, repr(value))
        if message is None:
            out = kept(_cfg(text))
            assert out == value and type(out) is float
            continue
        with pytest.raises(ConfigError) as err:
            _cfg(text)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "key,text,message,kept",
    [
        ("capacity", "nan", "policy.capacity: not an integer: 'nan'", None),
        ("capacity", "inf", "policy.capacity: not an integer: 'inf'", None),
        ("capacity", "0", "policy.capacity: capacity must be >= 1, got 0", None),
        ("capacity", "1", None, lambda cfg: cfg.policy.capacity == 1),
        ("seeds", "nan", "run.seeds: not an integer: 'nan'", None),
        ("seeds", "1,-1", "run.seeds: seed must be >= 0, got -1", None),
        ("seeds", "", "run.seeds: must list at least one seed", None),
        ("seeds", "0", None, lambda cfg: cfg.seeds == (0,)),
    ],
)
def test_integer_key_uses_the_library_rule(key, text, message, kept):
    if message is None:
        assert kept(_cfg(_key_config(key, text)))
        return
    with pytest.raises(ConfigError) as err:
        _cfg(_key_config(key, text))
    assert str(err.value) == message


def test_synthetic_arrivals_are_accepted_up_to_the_limit_only():
    at_limit = SMALL_SYNTH.replace("lambda = 40.0", "lambda = 100.0")
    assert _cfg(at_limit.replace("duration = 30.0", "duration = 1e7")).workload.duration == 1e7
    with pytest.raises(ConfigError, match="above the limit of 1e"):
        _cfg(at_limit.replace("duration = 30.0", "duration = 1.0000001e7"))
    # a lambda sweep checks every grid point's config
    with pytest.raises(ConfigError, match="above the limit of 1e"):
        sweep(_cfg(), "lambda", [40.0, 1e308])


def test_bad_monte_carlo_is_rejected():
    with pytest.raises(ConfigError):
        _cfg(SMALL_SYNTH + "\n[monte_carlo]\nsamples = 0\n")


# --- request stream assembly ---------------------------------------------------


def _requests(cfg, seed):
    return list(requests_of(build_trace(cfg, seed)))


def test_synthetic_requests_match_generator_directly():
    cfg = _cfg()
    want = list(gen_synthetic(cfg.population, 30.0, seed=2))
    assert _requests(cfg, 2) == want


def test_request_trace_with_ads_streams_verbatim(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,3,2\n1.0,4,1\n")
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
""")
    reqs = _requests(cfg, 1)
    assert [(t, movie, ad) for t, (movie, ad) in reqs] == [
        (0.0, 3, 2),
        (1.0, 4, 1),
    ]


def test_request_trace_without_ads_gets_overlay(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("".join(f"{t}.0,7\n" for t in range(10)))
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
ad_catalog = 5
ad_exponent = 0.9
""")
    reqs = _requests(cfg, 3)
    assert [t for t, _ in reqs] == [float(t) for t in range(10)]
    assert all(movie == 7 for _, (movie, _) in reqs)
    assert all(ad != -1 and 1 <= ad <= 5 for _, (_, ad) in reqs)
    assert _requests(cfg, 3) == reqs
    assert _requests(cfg, 4) != reqs


def test_request_trace_without_ads_and_no_overlay_errors(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,7\n")
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
""")
    with pytest.raises(TraceFormatError, match="no ad ids"):
        _requests(cfg, 1)


def test_empty_request_trace_yields_no_requests(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("# header only\n\n")
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
""")
    assert _requests(cfg, 1) == []


def test_count_trace_synthesis_is_seeded(tmp_path):
    trace = tmp_path / "counts.csv"
    trace.write_text("1,0.0,200,48.0\n2,10.0,80,48.0\n")
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = count_trace
path = {trace}
ad_catalog = 4
ad_exponent = 0.8
subsample = 1.0
""")
    reqs = _requests(cfg, 5)
    assert reqs
    assert all(ad != -1 for _, (_, ad) in reqs)
    assert all(0.0 <= t <= 48.0 for t, _ in reqs)
    assert _requests(cfg, 5) == reqs
    assert _requests(cfg, 6) != reqs


def _long_trace_config(tmp_path, kind, ads):
    """A request trace of a little over two blocks, with or without ad ids."""
    n = 2 * 4096 + 900
    trace = tmp_path / "long.csv"
    trace.write_text(
        "".join(
            f"{i * 0.01!r},{i * 7919 % 60 + 1}" + (f",{i % 4 + 1}" if ads else "") + "\n"
            for i in range(n)
        )
    )
    policy = {
        "global_ttl": "ttl = 1.5",
        "individual_ttl": "window = 1481.48",
        "lru": "capacity = 8",
        "lower_bound": "",
    }[kind]
    overlay = "" if ads else "ad_catalog = 7\nad_exponent = 0.9\n"
    return n, _cfg(BASE_COSTS + f"""
[policy]
kind = {kind}
{policy}

[workload]
source = request_trace
path = {trace}
{overlay}""")


def test_overlay_ads_are_zipf_draws_from_the_overlay_seed(tmp_path):
    # drawn per block of 4096 requests, as the overlay sees the trace
    n, cfg = _long_trace_config(tmp_path, "global_ttl", ads=False)
    trace = columns_of(build_trace(cfg, 9))
    rng = np.random.default_rng(_trace_child_seeds(9)[2])
    law = ZipfLaw(7, 0.9)
    sizes = [4096, 4096, n - 2 * 4096]
    want = np.concatenate([law.sample(rng, size) for size in sizes])
    assert trace.ads.tolist() == want.tolist()
    assert trace.times.tolist() == [i * 0.01 for i in range(n)]
    assert trace.movies.tolist() == [i * 7919 % 60 + 1 for i in range(n)]


def _event_checksum(requests):
    """crc32 folded over each request packed alone as `<dqq`."""
    crc = 0
    for time, (movie, ad) in requests:
        crc = zlib.crc32(struct.pack("<dqq", time, movie, ad), crc)
    return format(crc & 0xFFFFFFFF, "08x")


@pytest.mark.parametrize("kind", ["global_ttl", "lru", "lower_bound"])
@pytest.mark.parametrize("ads", [True, False])
def test_trace_checksum_equals_a_per_event_fold(tmp_path, kind, ads):
    # the trace spans three blocks, so the fold crosses block boundaries
    _, cfg = _long_trace_config(tmp_path, kind, ads)
    [row] = _run_single(cfg, 4)
    requests = _requests(cfg, 4)
    assert row.requests == len(requests)
    assert row.trace_checksum == _event_checksum(requests)


def test_synthetic_trace_checksum_equals_a_per_event_fold():
    # about 24k arrivals: three draw blocks of 8192
    cfg = _cfg(SMALL_SYNTH.replace("lambda = 40.0", "lambda = 800.0"))
    [row] = _run_single(cfg, 2)
    requests = list(gen_synthetic(cfg.population, 30.0, seed=2))
    assert len(requests) > 2 * 8192
    assert row.trace_checksum == _event_checksum(requests)


# --- runs and sweeps ------------------------------------------------------------


def test_run_experiment_emits_per_seed_rows_and_mean():
    cfg = _cfg()
    rows = run_experiment(cfg)
    assert len(rows) == 4
    assert [r.seed for r in rows] == ["1", "2", "3", "mean"]
    per_seed, mean = rows[:3], rows[3]
    for r in per_seed:
        assert len(r.trace_checksum) == 8
        int(r.trace_checksum, 16)
        assert r.cost_sd is None
    assert mean.trace_checksum == ""
    costs = [r.cost_per_request for r in per_seed]
    assert mean.cost_per_request == pytest.approx(sum(costs) / 3, rel=1e-12)
    # Documented definition: sqrt of the correctly rounded sample variance.
    # statistics.variance is exact on Fractions; math.sqrt rounds it once.
    assert mean.cost_sd == math.sqrt(statistics.variance(map(Fraction, costs)))


@pytest.mark.parametrize(
    "costs, expected",
    [
        # Per-seed costs of the window=1481.48 rows of the frozen
        # ugc_small_window_sweep.csv golden; its mean row holds this cost_sd.
        ((0.0006833029184120362, 0.0008802277153621689), 0.00013924685930722283),
        # Mean 7/5, squared deviations sum to 380/25, variance 19/5 = 3.8,
        # so cost_sd = sqrt(3.8). The correctly rounded sqrt(19/5) is one
        # ulp away at 1.949358868961793.
        ((0.0, 0.0, 0.0, 3.0, 4.0), 1.9493588689617927),
    ],
)
def test_cost_sd_rounds_the_exact_variance_once(costs, expected):
    template = ResultRow(
        policy="global_ttl",
        param_name="ttl",
        param_value=1.0,
        seed="1",
        requests=1,
        hits=0,
        cost_per_request=0.0,
        compute_d=0.0,
        storage_d=0.0,
        transmission_d=0.0,
        trace_checksum="00000000",
    )
    rows = [dataclasses.replace(template, cost_per_request=c) for c in costs]
    assert _summary_row(rows).cost_sd == expected


def test_single_seed_mean_has_no_spread():
    cfg = _cfg(SMALL_SYNTH.replace("seeds = 1,2,3", "seeds = 9"))
    rows = run_experiment(cfg)
    assert len(rows) == 2
    assert rows[1].cost_sd is None
    assert rows[1].cost_per_request == rows[0].cost_per_request


def test_run_experiment_is_deterministic():
    cfg = _cfg()
    assert run_experiment(cfg) == run_experiment(cfg)


def test_run_experiment_parallel_matches_serial():
    cfg = _cfg()
    assert run_experiment(cfg, jobs=2) == run_experiment(cfg, jobs=1)


def test_lower_bound_experiment_runs():
    cfg = _cfg(SMALL_SYNTH.replace("kind = global_ttl\nttl = 60.0", "kind = lower_bound"))
    rows = run_experiment(cfg)
    assert rows[-1].policy == "lower_bound"
    assert rows[-1].param_name == ""


@pytest.mark.parametrize(
    "policy",
    [
        "kind = global_ttl\nttl = 2.0",
        "kind = individual_ttl\nwindow = 1481.48",
        "kind = individual_ttl\nwindow = 30.0",
        "kind = lower_bound",
        "kind = known_rate",
        "kind = lru\ncapacity = 3",
    ],
)
def test_run_rows_equal_the_engine_with_the_policy_class(policy):
    """A run prices every kind through its fast path; its rows must be the
    ones the event engine gives with that kind's policy class."""
    cfg = _cfg(SMALL_SYNTH.replace("kind = global_ttl\nttl = 60.0", policy)
               .replace("warmup = 0.0", "warmup = 5.0"))
    pm = cfg.population

    def rate_of(item):
        return pm.rates(*item)

    for seed in cfg.seeds:
        requests = _requests(cfg, seed)
        policy_of = {
            "global_ttl": lambda: GlobalTtlPolicy(cfg.policy.ttl),
            "individual_ttl": lambda: IndividualTtlPolicy(cfg.policy.window, cfg.costs),
            "lower_bound": lambda: LowerBoundPolicy(cfg.costs, next_request_times(requests)),
            "known_rate": lambda: PerfectRatePolicy(cfg.costs, rate_of),
            "lru": lambda: LruPolicy(cfg.policy.capacity),
        }
        ledger = run(requests, policy_of[cfg.policy.kind](), cfg.costs, warmup=cfg.warmup)
        [row] = _run_single(cfg, seed)
        assert (row.requests, row.hits) == (ledger.requests, ledger.hits)
        assert row.cost_per_request == cost_per_request(ledger)
        assert (row.compute_d, row.storage_d, row.transmission_d) == (
            ledger.compute_dollars, ledger.storage_dollars, ledger.transmission_dollars
        )


def test_sweep_layout_and_argmin():
    cfg = _cfg()
    grid = [0.0, 60.0, 600.0]
    rows = sweep(cfg, "ttl", grid)
    # 3 seeds + 1 mean per point, then the argmin echo
    assert len(rows) == 3 * 4 + 1
    means = [r for r in rows if r.seed == "mean"]
    assert [r.param_value for r in means] == grid
    argmin = rows[-1]
    assert argmin.seed == "argmin"
    best = min(means, key=lambda r: (r.cost_per_request, r.param_value))
    assert argmin.param_value == best.param_value
    assert argmin.cost_per_request == best.cost_per_request


def test_sweep_tie_breaks_to_smaller_parameter():
    # both TTLs exceed every gap and the trace end, so the runs are
    # identical and the argmin must fall back to the smaller value
    cfg = _cfg()
    rows = sweep(cfg, "ttl", [2e6, 1e6])
    assert rows[-1].param_value == 1e6


def test_sweep_shares_traces_across_policy_grid():
    cfg = _cfg()
    rows = sweep(cfg, "ttl", [0.0, 60.0])
    by_seed = {}
    for r in rows:
        if r.seed in ("mean", "argmin"):
            continue
        by_seed.setdefault(r.seed, set()).add(r.trace_checksum)
    assert set(by_seed) == {"1", "2", "3"}
    for checksums in by_seed.values():
        assert len(checksums) == 1


def test_lambda_sweep_changes_the_trace():
    cfg = _cfg()
    rows = sweep(cfg, "lambda", [20.0, 40.0])
    seed1 = [r for r in rows if r.seed == "1"]
    assert len(seed1) == 2
    assert seed1[0].trace_checksum != seed1[1].trace_checksum
    assert all(r.param_name == "lambda" for r in seed1)


def _trace_sweeps(tmp_path):
    """(config, axis, grid) of sweeps whose grid leaves the trace alone."""
    synthetic = _cfg(SMALL_SYNTH.replace("warmup = 0.0", "warmup = 5.0"))
    counts = load_config(CONFIGS / "trace_vod_ttl_sweep.ini")
    _, overlaid = _long_trace_config(tmp_path, "individual_ttl", ads=False)
    return [
        (synthetic, "ttl", [0.0, 0.7, 60.0, math.inf]),
        (counts, "ttl", [0.0, 240.0, math.inf]),
        (overlaid, "window", [740.74, 2962.96, 5000.0]),
    ]


def test_grouped_sweep_rows_equal_one_task_per_point_and_seed(tmp_path):
    # run_experiment makes one task per seed for its one point
    for cfg, axis, grid in _trace_sweeps(tmp_path):
        rows = sweep(cfg, axis, grid)
        assert rows[-1].seed == "argmin"
        per_point = [r for v in grid for r in run_experiment(override(cfg, "policy", axis, v))]
        assert rows[:-1] == per_point


@pytest.mark.parametrize(
    "policy, axis, grid, builds_per_seed",
    [
        ("kind = global_ttl\nttl = 60.0", "ttl", [0.0, 60.0, 600.0], 1),
        ("kind = individual_ttl\nwindow = 100.0", "window", [100.0, 1481.48, 3000.0], 1),
        ("kind = lru\ncapacity = 4", "capacity", [2, 8, 32], 3),
        ("kind = global_ttl\nttl = 60.0", "lambda", [20.0, 40.0, 80.0], 3),
    ],
    ids=["ttl", "window", "lru-capacity", "lambda"],
)
def test_sweep_builds_a_trace_per_seed_unless_points_cannot_share_it(
    monkeypatch, policy, axis, grid, builds_per_seed
):
    seeds = []
    build = experiments.build_trace

    def counted(cfg, seed):
        seeds.append(seed)
        return build(cfg, seed)

    monkeypatch.setattr(experiments, "build_trace", counted)
    cfg = _cfg(SMALL_SYNTH.replace("kind = global_ttl\nttl = 60.0", policy))
    sweep(cfg, axis, grid)
    assert sorted(seeds) == sorted(cfg.seeds * builds_per_seed)


@pytest.mark.parametrize(
    "axis,grid,pattern",
    [
        ("capacity", [4], "requires policy.kind = lru"),
        ("window", [100.0], "requires policy.kind = individual_ttl"),
        ("ttl", [], "must not be empty"),
        ("ttl", [-1.0], ">= 0"),
        ("altitude", [1.0], "unknown sweep axis"),
    ],
)
def test_sweep_rejects_mismatched_axes(axis, grid, pattern):
    with pytest.raises(ConfigError, match=pattern):
        sweep(_cfg(), axis, grid)


def _axis_config(axis, value):
    """SMALL_SYNTH with the key that `axis` sweeps set to `value`."""
    policy = {
        "ttl": "kind = global_ttl\nttl = {}",
        "window": "kind = individual_ttl\nwindow = {}",
        "capacity": "kind = lru\ncapacity = {}",
        "lambda": "kind = global_ttl\nttl = 60.0",
    }[axis]
    text = SMALL_SYNTH.replace("kind = global_ttl\nttl = 60.0", policy)
    if axis == "lambda":
        text = text.replace("lambda = 40.0", "lambda = {}")
    return text.format(value)


@pytest.mark.parametrize(
    "axis,bad",
    [
        ("ttl", math.nan),
        ("ttl", -1),
        ("window", 0),
        ("window", math.inf),
        ("window", math.nan),
        ("capacity", 0),
        ("capacity", 4.5),
        ("capacity", True),
        ("lambda", 0),
        ("lambda", -1),
        ("lambda", math.inf),
        ("lambda", math.nan),
    ],
)
def test_sweep_rejects_what_the_config_key_rejects(axis, bad):
    good = {"ttl": 60.0, "window": 100.0, "capacity": 10, "lambda": 40.0}[axis]
    cfg = _cfg(_axis_config(axis, good))
    with pytest.raises(ConfigError):
        _cfg(_axis_config(axis, bad))
    with pytest.raises(ConfigError):
        sweep(cfg, axis, [bad])


def test_lambda_sweep_requires_synthetic(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1,1\n")
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
""")
    with pytest.raises(ConfigError, match="synthetic"):
        sweep(cfg, "lambda", [1.0])


# --- CSV contract ----------------------------------------------------------------


def test_csv_header_and_cells_round_trip():
    rows = run_experiment(_cfg())
    buf = io.StringIO()
    emit_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(parsed) == len(rows)
    for row, cells in zip(rows, parsed):
        assert cells["policy"] == row.policy
        assert cells["seed"] == row.seed
        assert float(cells["cost_per_request"]) == row.cost_per_request
        assert float(cells["param_value"]) == row.param_value
        if row.cost_sd is None:
            assert cells["cost_sd"] == ""
        else:
            assert float(cells["cost_sd"]) == row.cost_sd


def test_csv_bytes_are_stable_and_file_equal(tmp_path):
    rows = run_experiment(_cfg())
    one, two = io.StringIO(), io.StringIO()
    emit_csv(rows, one)
    emit_csv(rows, two)
    assert one.getvalue() == two.getvalue()
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    assert out.read_text(encoding="utf-8") == one.getvalue()


def test_parallel_sweep_emits_identical_csv():
    cfg = _cfg()
    serial, parallel = io.StringIO(), io.StringIO()
    emit_csv(sweep(cfg, "ttl", [0.0, 60.0], jobs=1), serial)
    emit_csv(sweep(cfg, "ttl", [0.0, 60.0], jobs=2), parallel)
    assert serial.getvalue() == parallel.getvalue()


def test_integer_cells_have_no_decimal_point():
    row = ResultRow(
        policy="lru",
        param_name="capacity",
        param_value=32,
        seed="1",
        requests=100,
        hits=40,
        cost_per_request=1e-3,
        compute_d=0.0432,
        storage_d=0.0,
        transmission_d=0.0525,
        trace_checksum="00000000",
    )
    buf = io.StringIO()
    emit_csv([row], buf)
    cells = buf.getvalue().splitlines()[1].split(",")
    assert cells[2] == "32"
    assert cells[4] == "100"
    assert cells[11] == ""


# --- report tables ----------------------------------------------------------------


def test_analytic_table_structure_and_ordering():
    cfg = _cfg()
    rows = analytic_table(cfg, ttl_grid=[0.0, 60.0])
    assert [r["evaluator"] for r in rows] == [
        "global_ttl",
        "global_ttl",
        "optimal_global_ttl",
        "individual_ttl",
        "lower_bound",
    ]
    assert set(rows[0]) == set(ANALYTIC_COLUMNS)
    t0 = rows[0]["cost_per_request"]
    assert t0 == pytest.approx(
        cfg.costs.compute_per_item + cfg.costs.transmission_per_item, rel=1e-12
    )
    best = rows[2]["cost_per_request"]
    assert best == min(rows[0]["cost_per_request"], rows[1]["cost_per_request"])
    lb = rows[4]["cost_per_request"]
    indiv = rows[3]["cost_per_request"]
    assert lb <= indiv <= best


def test_analytic_table_lambda_grid():
    rows = analytic_table(_cfg(), lambda_grid=[10.0, 40.0])
    lam_rows = [r for r in rows if r["param_name"] == "lambda"]
    assert [r["param_value"] for r in lam_rows] == [10.0, 40.0]
    for r in lam_rows:
        assert r["evaluator"] == "optimal_global_ttl"
        assert r["ttl"] >= 0.0
    with pytest.raises(ConfigError):
        analytic_table(_cfg(), lambda_grid=[-3.0])


@pytest.mark.parametrize(
    "ttl_grid, lambda_grid",
    [([0.0, 60.0, 120.0, math.inf], None), (None, [10.0, 1e3]), ([60.0, 0.0, 60.0], [10.0])],
    ids=["ttl", "lambda", "both"],
)
def test_analytic_table_rows_equal_the_public_evaluators(ttl_grid, lambda_grid):
    """The table prices its rows on one draw; each row is still exactly what
    the public evaluator of its kind gives on its own draw."""
    cfg = load_config(CONFIGS / "smoke_analytic.ini")
    pm, costs, mc = cfg.population, cfg.costs, cfg.mc
    want = []
    if ttl_grid is not None:
        want += [("global_ttl", "ttl", t, t, global_ttl_cost(pm, t, costs, mc)) for t in ttl_grid]
        best_ttl, best_cost = optimal_global_ttl(pm, costs, mc, ttl_grid)
        want.append(("optimal_global_ttl", "ttl", best_ttl, best_ttl, best_cost))
    want.append(("individual_ttl", "", "", "", individual_ttl_cost(pm, costs, mc)))
    want.append(("lower_bound", "", "", "", lower_bound_cost(pm, costs, mc)))
    base = ttl_grid if ttl_grid is not None else [30.0 * k for k in range(21)]
    for lam in lambda_grid or ():
        best = optimal_global_ttl(dataclasses.replace(pm, lambda_global=lam), costs, mc, base)
        want.append(("optimal_global_ttl", "lambda", lam, *best))
    rows = analytic_table(cfg, ttl_grid=ttl_grid, lambda_grid=lambda_grid)
    assert [tuple(row[c] for c in ANALYTIC_COLUMNS) for row in rows] == want


def test_every_empty_grid_is_a_config_error():
    cfg = _cfg()
    with pytest.raises(ConfigError, match="policy.ttl: grid must not be empty"):
        analytic_table(cfg, ttl_grid=[])
    with pytest.raises(ConfigError, match="population.lambda: grid must not be empty"):
        analytic_table(cfg, lambda_grid=[])
    with pytest.raises(ConfigError, match="population.lambda: grid must not be empty"):
        sweep(cfg, "lambda", [])


def test_validation_report_compares_sim_to_closed_form():
    cfg = _cfg(SMALL_SYNTH.replace("duration = 30.0", "duration = 400.0"))
    (report,) = validation_report(cfg)
    assert set(report) == set(VALIDATION_COLUMNS)
    assert report["policy"] == "global_ttl"
    assert report["seeds"] == 3
    assert report["rel_err"] == pytest.approx(
        abs(report["sim_mean"] - report["analytic_cost"]) / report["analytic_cost"],
        rel=1e-12,
    )
    assert report["rel_err"] < 0.05


def test_validation_report_rejects_unsupported_setups(tmp_path):
    with pytest.raises(ConfigError, match="closed-form"):
        validation_report(
            _cfg(SMALL_SYNTH.replace("kind = global_ttl\nttl = 60.0", "kind = lru\ncapacity = 10"))
        )
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1,1\n")
    cfg = _cfg(BASE_COSTS + f"""
[policy]
kind = global_ttl
ttl = 1.0

[workload]
source = request_trace
path = {trace}
""")
    with pytest.raises(ConfigError, match="synthetic"):
        validation_report(cfg)


def test_emit_dict_csv_writes_fixed_columns():
    rows = [{"a": 1, "b": "x", "c": 0.5}, {"a": 2, "b": "", "c": None}]
    buf = io.StringIO()
    emit_csv(rows, buf, ("a", "b", "c"))
    assert buf.getvalue() == "a,b,c\n1,x,0.5\n2,,\n"


# --- one object per law ---------------------------------------------------------


@pytest.fixture
def guide_builds(monkeypatch):
    """The laws whose guide table gets built, one entry per build."""
    built = []
    build = ZipfLaw._guide.func

    def counted(law):
        built.append(law)
        return build(law)

    guide = functools.cached_property(counted)
    guide.__set_name__(ZipfLaw, "_guide")
    monkeypatch.setattr(ZipfLaw, "_guide", guide)
    return built


def test_a_synthetic_run_builds_each_law_once(guide_builds):
    cfg = _cfg(SMALL_SYNTH.replace("seeds = 1,2,3", "seeds = 1,2,3,4,5"))
    run_experiment(cfg, jobs=1)
    assert len(guide_builds) == 2
    assert guide_builds[0] is cfg.population.movies and guide_builds[1] is cfg.population.ads


def test_a_request_trace_run_builds_its_overlay_law_once(tmp_path, guide_builds):
    _, cfg = _long_trace_config(tmp_path, "global_ttl", ads=False)
    run_experiment(override(cfg, "run", "seeds", (1, 2)), jobs=1)
    assert len(guide_builds) == 1
    assert guide_builds[0] == ZipfLaw(7, 0.9)


def test_validate_builds_each_law_once(guide_builds):
    cfg = load_config(CONFIGS / "validate_global_ttl.ini")
    validation_report(cfg, jobs=1)
    assert len(guide_builds) == 2
    assert guide_builds[0] is cfg.population.movies and guide_builds[1] is cfg.population.ads
