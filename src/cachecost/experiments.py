"""Config-driven experiments: runs, sweeps and CSV reporting.

A config is a flat INI-style text with one level of sections. It pins the
prices, the policy and its parameter, the workload source and the run
discipline (seeds, warmup), so a result is reproducible from the config
file alone. Execution fans out over independent (grid point, seed) runs,
optionally on a process pool, and is collected in a stable order: the
emitted CSV is byte-identical no matter how many workers ran it.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import statistics
import struct
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .analytic import (
    CostModel,
    MonteCarloSpec,
    PopulationModel,
    ZipfLaw,
    global_ttl_cost,
    individual_ttl_cost,
    lower_bound_cost,
    optimal_global_ttl,
)
from .engine import CostLedger, cost_per_request, global_ttl_ledger, run
from .policies import (
    IndividualTtlPolicy,
    LowerBoundPolicy,
    LruPolicy,
    PerfectRatePolicy,
)
from .workload import (
    Columns,
    Request,
    TraceFormatError,
    collect_columns,
    gen_synthetic,
    overlay_ads,
    parse_count_trace,
    parse_request_trace,
    subsample_records,
    synthesize_from_counts,
    synthetic_columns,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PolicySpec",
    "PopulationSpec",
    "ResultRow",
    "WorkloadSpec",
    "CSV_COLUMNS",
    "analytic_table",
    "emit_csv",
    "load_config",
    "parse_config",
    "run_experiment",
    "serialize_config",
    "sweep",
    "validation_report",
]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


POLICY_KINDS = ("global_ttl", "individual_ttl", "lower_bound", "lru", "known_rate")
WORKLOAD_SOURCES = ("synthetic", "request_trace", "count_trace")

SWEEP_AXES = ("ttl", "capacity", "window", "lambda")

CSV_COLUMNS = (
    "policy",
    "param_name",
    "param_value",
    "seed",
    "requests",
    "hits",
    "cost_per_request",
    "compute_d",
    "storage_d",
    "transmission_d",
    "trace_checksum",
    "cost_sd",
)


@dataclass(frozen=True)
class PopulationSpec:
    movies: int
    movie_exponent: float
    ads: int
    ad_exponent: float
    lambda_global: float


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    ttl: "float | None" = None
    window: "float | None" = None
    capacity: "int | None" = None


@dataclass(frozen=True)
class WorkloadSpec:
    source: str
    duration: "float | None" = None
    path: "str | None" = None
    ad_catalog: "int | None" = None
    ad_exponent: "float | None" = None
    subsample: "float | None" = None


@dataclass(frozen=True)
class ExperimentConfig:
    costs: CostModel
    policy: PolicySpec
    workload: WorkloadSpec
    population: "PopulationSpec | None"
    seeds: tuple[int, ...]
    warmup: float
    mc_samples: int
    mc_seed: int

    def population_model(self) -> PopulationModel:
        if self.population is None:
            raise ConfigError("this configuration has no population section")
        p = self.population
        return PopulationModel(
            movies=ZipfLaw(p.movies, p.movie_exponent),
            ads=ZipfLaw(p.ads, p.ad_exponent),
            lambda_global=p.lambda_global,
        )

    def monte_carlo(self) -> MonteCarloSpec:
        return MonteCarloSpec(samples=self.mc_samples, seed=self.mc_seed)


# --- parsing ---------------------------------------------------------------

_SECTION_KEYS = {
    "population": {"movies", "movie_exponent", "ads", "ad_exponent", "lambda"},
    "costs": {"storage_per_item_hour", "compute_per_item", "transmission_per_item"},
    "policy": {"kind", "ttl", "window", "capacity"},
    "workload": {"source", "duration", "path", "ad_catalog", "ad_exponent", "subsample"},
    "run": {"seeds", "warmup"},
    "monte_carlo": {"samples", "seed"},
}


def _get_float(section, key: str, where: str) -> float:
    raw = section[key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}.{key}: not a number: {raw!r}") from None


def _get_int(section, key: str, where: str) -> int:
    raw = section[key]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}.{key}: not an integer: {raw!r}") from None


def parse_config(text: str, *, base_dir: "str | Path | None" = None) -> ExperimentConfig:
    """Parse and validate a config. Relative paths resolve against base_dir."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"unparseable config: {err}") from None

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    for required in ("costs", "policy", "workload"):
        if required not in parser:
            raise ConfigError(f"missing section [{required}]")

    sec = parser["costs"]
    for key in sorted(_SECTION_KEYS["costs"]):
        if key not in sec:
            raise ConfigError(f"costs.{key} is required")
    try:
        costs = CostModel(
            storage_per_item_hour=_get_float(sec, "storage_per_item_hour", "costs"),
            compute_per_item=_get_float(sec, "compute_per_item", "costs"),
            transmission_per_item=_get_float(sec, "transmission_per_item", "costs"),
        )
    except ValueError as err:
        raise ConfigError(f"costs: {err}") from None

    population = None
    if "population" in parser:
        sec = parser["population"]
        for key in sorted(_SECTION_KEYS["population"]):
            if key not in sec:
                raise ConfigError(f"population.{key} is required")
        population = PopulationSpec(
            movies=_get_int(sec, "movies", "population"),
            movie_exponent=_get_float(sec, "movie_exponent", "population"),
            ads=_get_int(sec, "ads", "population"),
            ad_exponent=_get_float(sec, "ad_exponent", "population"),
            lambda_global=_get_float(sec, "lambda", "population"),
        )
        try:
            ZipfLaw(population.movies, population.movie_exponent)
            ZipfLaw(population.ads, population.ad_exponent)
            if not (math.isfinite(population.lambda_global) and population.lambda_global > 0):
                raise ValueError(f"lambda must be positive, got {population.lambda_global}")
        except ValueError as err:
            raise ConfigError(f"population: {err}") from None

    sec = parser["policy"]
    if "kind" not in sec:
        raise ConfigError("policy.kind is required")
    kind = sec["kind"].strip()
    if kind not in POLICY_KINDS:
        raise ConfigError(f"policy.kind must be one of {POLICY_KINDS}, got {kind!r}")
    wants = {"global_ttl": "ttl", "individual_ttl": "window", "lru": "capacity"}.get(kind)
    for key in ("ttl", "window", "capacity"):
        if key in sec and key != wants:
            raise ConfigError(f"policy.{key} does not apply to kind {kind!r}")
    policy = PolicySpec(kind=kind)
    if kind == "global_ttl":
        if "ttl" not in sec:
            raise ConfigError("policy.ttl is required for global_ttl")
        ttl = _get_float(sec, "ttl", "policy")
        if math.isnan(ttl) or ttl < 0:
            raise ConfigError(f"policy.ttl must be >= 0, got {ttl}")
        policy = PolicySpec(kind=kind, ttl=ttl)
    elif kind == "individual_ttl":
        if "window" not in sec:
            raise ConfigError("policy.window is required for individual_ttl")
        window = _get_float(sec, "window", "policy")
        if not (math.isfinite(window) and window > 0):
            raise ConfigError(f"policy.window must be positive, got {window}")
        policy = PolicySpec(kind=kind, window=window)
    elif kind == "lru":
        if "capacity" not in sec:
            raise ConfigError("policy.capacity is required for lru")
        capacity = _get_int(sec, "capacity", "policy")
        if capacity < 1:
            raise ConfigError(f"policy.capacity must be >= 1, got {capacity}")
        policy = PolicySpec(kind=kind, capacity=capacity)

    sec = parser["workload"]
    if "source" not in sec:
        raise ConfigError("workload.source is required")
    source = sec["source"].strip()
    if source not in WORKLOAD_SOURCES:
        raise ConfigError(f"workload.source must be one of {WORKLOAD_SOURCES}, got {source!r}")
    workload = WorkloadSpec(source=source)
    if source == "synthetic":
        for key in ("path", "subsample", "ad_catalog", "ad_exponent"):
            if key in sec:
                raise ConfigError(f"workload.{key} does not apply to a synthetic workload")
        if "duration" not in sec:
            raise ConfigError("workload.duration is required for a synthetic workload")
        duration = _get_float(sec, "duration", "workload")
        if not (math.isfinite(duration) and duration > 0):
            raise ConfigError(f"workload.duration must be positive, got {duration}")
        if population is None:
            raise ConfigError("a synthetic workload requires a [population] section")
        workload = WorkloadSpec(source=source, duration=duration)
    else:
        if "duration" in sec:
            raise ConfigError("workload.duration only applies to a synthetic workload")
        if "path" not in sec:
            raise ConfigError(f"workload.path is required for source {source!r}")
        raw_path = sec["path"].strip()
        path = Path(raw_path)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        if not path.is_file():
            raise ConfigError(f"workload.path does not exist: {path}")
        ad_catalog = ad_exponent = None
        if ("ad_catalog" in sec) != ("ad_exponent" in sec):
            raise ConfigError("ad_catalog and ad_exponent must be given together")
        if "ad_catalog" in sec:
            ad_catalog = _get_int(sec, "ad_catalog", "workload")
            ad_exponent = _get_float(sec, "ad_exponent", "workload")
            try:
                ZipfLaw(ad_catalog, ad_exponent)
            except ValueError as err:
                raise ConfigError(f"workload: {err}") from None
        subsample = None
        if "subsample" in sec:
            if source != "count_trace":
                raise ConfigError("workload.subsample only applies to count traces")
            subsample = _get_float(sec, "subsample", "workload")
            if not 0.0 < subsample <= 1.0:
                raise ConfigError(f"workload.subsample must be in (0, 1], got {subsample}")
        if source == "count_trace" and ad_catalog is None:
            raise ConfigError("a count-trace workload requires ad_catalog and ad_exponent")
        workload = WorkloadSpec(
            source=source,
            path=str(path),
            ad_catalog=ad_catalog,
            ad_exponent=ad_exponent,
            subsample=subsample,
        )

    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    warmup = 0.0
    if "run" in parser:
        sec = parser["run"]
        if "seeds" in sec:
            parts = sec["seeds"].replace(",", " ").split()
            if not parts:
                raise ConfigError("run.seeds must list at least one seed")
            try:
                seeds = tuple(int(p) for p in parts)
            except ValueError:
                raise ConfigError(f"run.seeds: not integers: {sec['seeds']!r}") from None
            if any(s < 0 for s in seeds):
                raise ConfigError("run.seeds must be >= 0")
        if "warmup" in sec:
            warmup = _get_float(sec, "warmup", "run")
            if not (math.isfinite(warmup) and warmup >= 0):
                raise ConfigError(f"run.warmup must be finite and >= 0, got {warmup}")
    if workload.source == "synthetic" and warmup >= workload.duration:
        raise ConfigError(
            f"run.warmup ({warmup}) must be smaller than workload.duration ({workload.duration})"
        )

    mc_samples, mc_seed = 25_000, 0
    if "monte_carlo" in parser:
        sec = parser["monte_carlo"]
        if "samples" in sec:
            mc_samples = _get_int(sec, "samples", "monte_carlo")
        if "seed" in sec:
            mc_seed = _get_int(sec, "seed", "monte_carlo")
        try:
            MonteCarloSpec(samples=mc_samples, seed=mc_seed)
        except ValueError as err:
            raise ConfigError(f"monte_carlo: {err}") from None

    if policy.kind == "known_rate" and workload.source != "synthetic":
        raise ConfigError("known_rate requires a synthetic workload (true rates are unknown otherwise)")

    return ExperimentConfig(
        costs=costs,
        policy=policy,
        workload=workload,
        population=population,
        seeds=seeds,
        warmup=warmup,
        mc_samples=mc_samples,
        mc_seed=mc_seed,
    )


def load_config(path: "str | Path") -> ExperimentConfig:
    """Read a config file; relative workload paths resolve beside it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text, base_dir=path.parent)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to its text form; parse round-trips exactly."""
    parser = configparser.ConfigParser(interpolation=None)
    if cfg.population is not None:
        parser["population"] = {
            "movies": str(cfg.population.movies),
            "movie_exponent": repr(cfg.population.movie_exponent),
            "ads": str(cfg.population.ads),
            "ad_exponent": repr(cfg.population.ad_exponent),
            "lambda": repr(cfg.population.lambda_global),
        }
    parser["costs"] = {
        "storage_per_item_hour": repr(cfg.costs.storage_per_item_hour),
        "compute_per_item": repr(cfg.costs.compute_per_item),
        "transmission_per_item": repr(cfg.costs.transmission_per_item),
    }
    pol = {"kind": cfg.policy.kind}
    if cfg.policy.ttl is not None:
        pol["ttl"] = repr(cfg.policy.ttl)
    if cfg.policy.window is not None:
        pol["window"] = repr(cfg.policy.window)
    if cfg.policy.capacity is not None:
        pol["capacity"] = str(cfg.policy.capacity)
    parser["policy"] = pol
    wl = {"source": cfg.workload.source}
    if cfg.workload.duration is not None:
        wl["duration"] = repr(cfg.workload.duration)
    if cfg.workload.path is not None:
        wl["path"] = cfg.workload.path
    if cfg.workload.ad_catalog is not None:
        wl["ad_catalog"] = str(cfg.workload.ad_catalog)
        wl["ad_exponent"] = repr(cfg.workload.ad_exponent)
    if cfg.workload.subsample is not None:
        wl["subsample"] = repr(cfg.workload.subsample)
    parser["workload"] = wl
    parser["run"] = {
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "warmup": repr(cfg.warmup),
    }
    parser["monte_carlo"] = {"samples": str(cfg.mc_samples), "seed": str(cfg.mc_seed)}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


# --- workload assembly -----------------------------------------------------

_PACKER = struct.Struct("<dqq")


class _ChecksumStream:
    """Pass-through request iterator that crc32-folds each record."""

    def __init__(self, requests: Iterable[Request]):
        self._requests = requests
        self.crc = 0
        self.count = 0
        self.last_time: "float | None" = None

    def __iter__(self) -> Iterator[Request]:
        pack = _PACKER.pack
        crc = 0
        count = 0
        time = None
        for req in self._requests:
            time, (movie, ad) = req
            crc = zlib.crc32(pack(time, movie, -1 if ad is None else ad), crc)
            count += 1
            yield req
        self.crc = crc
        self.count = count
        self.last_time = time

    @property
    def hexdigest(self) -> str:
        return format(self.crc & 0xFFFFFFFF, "08x")


def _file_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="utf-8") as handle:
        yield from handle


def _trace_child_seeds(seed: int) -> tuple[int, int, int]:
    sub, synth, overlay = np.random.SeedSequence(seed).generate_state(3).tolist()
    return sub, synth, overlay


def build_requests(cfg: ExperimentConfig, seed: int) -> Iterator[Request]:
    """The request stream of one run, fully determined by (cfg, seed)."""
    source = cfg.workload.source
    if source == "synthetic":
        return gen_synthetic(cfg.population_model(), cfg.workload.duration, seed)
    sub_seed, synth_seed, overlay_seed = _trace_child_seeds(seed)
    if source == "count_trace":
        records = parse_count_trace(_file_lines(cfg.workload.path))
        if cfg.workload.subsample is not None:
            records = subsample_records(records, cfg.workload.subsample, sub_seed)
        stream = synthesize_from_counts(records, synth_seed)
        law = ZipfLaw(cfg.workload.ad_catalog, cfg.workload.ad_exponent)
        return overlay_ads(stream, law, overlay_seed)
    # request trace: overlay only when the file carries no ad ids
    stream = parse_request_trace(_file_lines(cfg.workload.path))
    iterator = iter(stream)
    try:
        first = next(iterator)
    except StopIteration:
        return iter(())
    rest = chain([first], iterator)
    if first.item.ad is not None:
        return rest
    if cfg.workload.ad_catalog is None:
        raise TraceFormatError(
            "trace has no ad ids and no ad overlay is configured "
            "(set workload.ad_catalog and workload.ad_exponent)"
        )
    law = ZipfLaw(cfg.workload.ad_catalog, cfg.workload.ad_exponent)
    return overlay_ads(rest, law, overlay_seed)


def _build_policy(cfg: ExperimentConfig, requests: "Sequence[Request] | None"):
    kind = cfg.policy.kind
    if kind == "individual_ttl":
        return IndividualTtlPolicy(cfg.policy.window, cfg.costs)
    if kind == "lru":
        return LruPolicy(cfg.policy.capacity)
    if kind == "known_rate":
        pm = cfg.population_model()
        movie_p = pm.movies.probabilities
        ad_p = pm.ads.probabilities
        lam = pm.lambda_global

        def rate_of(item):
            return lam * movie_p[item.movie - 1] * ad_p[item.ad - 1]

        return PerfectRatePolicy(cfg.costs, rate_of)
    if kind == "lower_bound":
        if requests is None:
            raise ValueError("lower_bound needs the materialized trace")
        return LowerBoundPolicy.for_trace(cfg.costs, requests)
    raise ConfigError(f"unknown policy kind {kind!r}")


@dataclass(frozen=True)
class ResultRow:
    policy: str
    param_name: str
    param_value: "float | int | str"
    seed: str
    requests: "int | float"
    hits: "int | float"
    cost_per_request: float
    compute_d: float
    storage_d: float
    transmission_d: float
    trace_checksum: str
    cost_sd: "float | None" = None


def _policy_param(cfg: ExperimentConfig) -> tuple[str, "float | int | str"]:
    p = cfg.policy
    if p.kind == "global_ttl":
        return "ttl", p.ttl
    if p.kind == "individual_ttl":
        return "window", p.window
    if p.kind == "lru":
        return "capacity", p.capacity
    return "", ""


def _trace_columns(cfg: ExperimentConfig, seed: int) -> Columns:
    """The trace of `build_requests(cfg, seed)` as columns."""
    if cfg.workload.source == "synthetic":
        return synthetic_columns(cfg.population_model(), cfg.workload.duration, seed)
    return collect_columns(build_requests(cfg, seed))


def _column_checksum(trace: Columns) -> str:
    """crc32 of the packed records; equals `_ChecksumStream.hexdigest`."""
    records = np.empty(trace.times.size, dtype=[("t", "<f8"), ("m", "<i8"), ("a", "<i8")])
    records["t"], records["m"], records["a"] = trace
    return format(zlib.crc32(records) & 0xFFFFFFFF, "08x")


def _run_single(
    cfg: ExperimentConfig, seed: int, param: "tuple[str, float | int | str] | None" = None
) -> ResultRow:
    """One (config, seed) simulation producing one CSV row.

    Global TTL is priced from columns; the other policies replay the
    request stream through the event engine.
    """
    if cfg.policy.kind == "global_ttl":
        trace = _trace_columns(cfg, seed)
        checksum = _column_checksum(trace)
        ledger = global_ttl_ledger(trace, cfg.policy.ttl, cfg.costs, warmup=cfg.warmup)
        last_time = float(trace.times[-1]) if trace.times.size else None
    else:
        checker = _ChecksumStream(build_requests(cfg, seed))
        if cfg.policy.kind == "lower_bound":
            requests = list(checker)
            ledger = run(requests, _build_policy(cfg, requests), cfg.costs, warmup=cfg.warmup)
        else:
            ledger = run(iter(checker), _build_policy(cfg, None), cfg.costs, warmup=cfg.warmup)
        checksum = checker.hexdigest
        last_time = checker.last_time
    if ledger.requests == 0:
        if last_time is None:
            raise TraceFormatError("the trace holds no requests")
        raise ConfigError(
            f"run.warmup ({cfg.warmup!r}) lies past the last request of the trace "
            f"(at {last_time!r} h); no request is priced"
        )
    name, value = param if param is not None else _policy_param(cfg)
    return ResultRow(
        policy=cfg.policy.kind,
        param_name=name,
        param_value=value,
        seed=str(seed),
        requests=ledger.requests,
        hits=ledger.hits,
        cost_per_request=cost_per_request(ledger),
        compute_d=ledger.compute_dollars,
        storage_d=ledger.storage_dollars,
        transmission_d=ledger.transmission_dollars,
        trace_checksum=checksum,
    )


def _summary_row(rows: Sequence[ResultRow]) -> ResultRow:
    costs = [r.cost_per_request for r in rows]
    sd = None
    if len(costs) > 1:
        # Exact rational variance, rounded to float once, then one sqrt.
        # statistics.stdev rounds differently on 3.10 and on 3.11+.
        exact = [Fraction(c) for c in costs]
        mean = sum(exact) / len(exact)
        variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
        sd = math.sqrt(float(variance))
    first = rows[0]
    return ResultRow(
        policy=first.policy,
        param_name=first.param_name,
        param_value=first.param_value,
        seed="mean",
        requests=statistics.fmean(r.requests for r in rows),
        hits=statistics.fmean(r.hits for r in rows),
        cost_per_request=statistics.fmean(costs),
        compute_d=statistics.fmean(r.compute_d for r in rows),
        storage_d=statistics.fmean(r.storage_d for r in rows),
        transmission_d=statistics.fmean(r.transmission_d for r in rows),
        trace_checksum="",
        cost_sd=sd,
    )


def _execute(tasks: "list[tuple[ExperimentConfig, int, tuple]]", jobs: int) -> list[ResultRow]:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        return [_run_single(cfg, seed, param) for cfg, seed, param in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_single, cfg, seed, param) for cfg, seed, param in tasks]
        return [f.result() for f in futures]


def run_experiment(cfg: ExperimentConfig, *, jobs: int = 1) -> list[ResultRow]:
    """Run the config once per seed; per-seed rows plus one mean row.

    The mean row averages the numeric columns across seeds and carries the
    sample standard deviation of cost_per_request in cost_sd (empty with a
    single seed): the square root of the correctly rounded sample variance,
    the same on every supported Python.
    """
    param = _policy_param(cfg)
    tasks = [(cfg, seed, param) for seed in cfg.seeds]
    rows = _execute(tasks, jobs)
    rows.append(_summary_row(rows))
    return rows


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "ttl":
        if cfg.policy.kind != "global_ttl":
            raise ConfigError("a ttl sweep requires policy.kind = global_ttl")
        v = float(value)
        if math.isnan(v) or v < 0:
            raise ConfigError(f"ttl grid values must be >= 0, got {value}")
        return replace(cfg, policy=replace(cfg.policy, ttl=v))
    if axis == "window":
        if cfg.policy.kind != "individual_ttl":
            raise ConfigError("a window sweep requires policy.kind = individual_ttl")
        v = float(value)
        if not (math.isfinite(v) and v > 0):
            raise ConfigError(f"window grid values must be positive, got {value}")
        return replace(cfg, policy=replace(cfg.policy, window=v))
    if axis == "capacity":
        if cfg.policy.kind != "lru":
            raise ConfigError("a capacity sweep requires policy.kind = lru")
        v = int(value)
        if v < 1:
            raise ConfigError(f"capacity grid values must be >= 1, got {value}")
        return replace(cfg, policy=replace(cfg.policy, capacity=v))
    if axis == "lambda":
        if cfg.workload.source != "synthetic":
            raise ConfigError("a lambda sweep requires a synthetic workload")
        v = float(value)
        if not (math.isfinite(v) and v > 0):
            raise ConfigError(f"lambda grid values must be positive, got {value}")
        return replace(cfg, population=replace(cfg.population, lambda_global=v))
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(
    cfg: ExperimentConfig, axis: str, grid: Sequence, *, jobs: int = 1
) -> list[ResultRow]:
    """Sweep one axis over a grid: per-seed rows, per-point means, argmin.

    Seeds are shared across grid points, so on axes that do not touch the
    workload every point replays the identical trace per seed (the
    trace_checksum column proves it). The final row, seed = "argmin",
    repeats the grid point with the lowest mean cost; ties resolve to the
    smaller parameter value.
    """
    if len(grid) == 0:
        raise ConfigError("sweep grid must not be empty")
    points = [_apply_axis(cfg, axis, value) for value in grid]
    values = [
        (int(v) if axis == "capacity" else float(v)) for v in grid
    ]
    tasks = []
    for point_cfg, value in zip(points, values):
        for seed in point_cfg.seeds:
            tasks.append((point_cfg, seed, (axis, value)))
    flat = _execute(tasks, jobs)

    rows: list[ResultRow] = []
    summaries: list[ResultRow] = []
    n_seeds = len(cfg.seeds)
    for i in range(len(points)):
        point_rows = flat[i * n_seeds : (i + 1) * n_seeds]
        summary = _summary_row(point_rows)
        rows.extend(point_rows)
        rows.append(summary)
        summaries.append(summary)
    best = min(summaries, key=lambda r: (r.cost_per_request, r.param_value))
    rows.append(replace(best, seed="argmin"))
    return rows


# --- CSV -------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("unexpected bool in a CSV cell")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_csv(rows: Iterable[ResultRow], destination) -> None:
    """Write rows in the fixed column order; byte-stable for fixed inputs."""

    def _write(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.policy,
                    row.param_name,
                    _fmt(row.param_value),
                    row.seed,
                    _fmt(row.requests),
                    _fmt(row.hits),
                    _fmt(row.cost_per_request),
                    _fmt(row.compute_d),
                    _fmt(row.storage_d),
                    _fmt(row.transmission_d),
                    row.trace_checksum,
                    _fmt(row.cost_sd),
                ]
            )

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            _write(handle)


# --- analytic and validation reports ---------------------------------------


def analytic_table(
    cfg: ExperimentConfig,
    *,
    ttl_grid: "Sequence[float] | None" = None,
    lambda_grid: "Sequence[float] | None" = None,
) -> list[dict]:
    """Closed-form evaluator table for the config's population and prices.

    Returns dict rows with keys evaluator, param_name, param_value, ttl,
    cost_per_request. With a ttl grid: one shared-TTL row per point plus
    the grid argmin. With a lambda grid: the argmin search repeated at each
    rate (population otherwise unchanged).
    """
    pm = cfg.population_model()
    mc = cfg.monte_carlo()
    rows: list[dict] = []
    base_ttls = list(ttl_grid) if ttl_grid is not None else [30.0 * k for k in range(21)]
    if ttl_grid is not None:
        for ttl in ttl_grid:
            cost = global_ttl_cost(pm, ttl, cfg.costs, mc)
            rows.append(
                {
                    "evaluator": "global_ttl",
                    "param_name": "ttl",
                    "param_value": float(ttl),
                    "ttl": float(ttl),
                    "cost_per_request": cost,
                }
            )
        best_ttl, best_cost = optimal_global_ttl(pm, cfg.costs, mc, ttl_grid)
        rows.append(
            {
                "evaluator": "optimal_global_ttl",
                "param_name": "ttl",
                "param_value": best_ttl,
                "ttl": best_ttl,
                "cost_per_request": best_cost,
            }
        )
    rows.append(
        {
            "evaluator": "individual_ttl",
            "param_name": "",
            "param_value": "",
            "ttl": "",
            "cost_per_request": individual_ttl_cost(pm, cfg.costs, mc),
        }
    )
    rows.append(
        {
            "evaluator": "lower_bound",
            "param_name": "",
            "param_value": "",
            "ttl": "",
            "cost_per_request": lower_bound_cost(pm, cfg.costs, mc),
        }
    )
    if lambda_grid is not None:
        for lam in lambda_grid:
            lam = float(lam)
            if not (math.isfinite(lam) and lam > 0):
                raise ConfigError(f"lambda grid values must be positive, got {lam}")
            pm_l = PopulationModel(movies=pm.movies, ads=pm.ads, lambda_global=lam)
            best_ttl, best_cost = optimal_global_ttl(pm_l, cfg.costs, mc, base_ttls)
            rows.append(
                {
                    "evaluator": "optimal_global_ttl",
                    "param_name": "lambda",
                    "param_value": lam,
                    "ttl": best_ttl,
                    "cost_per_request": best_cost,
                }
            )
    return rows


ANALYTIC_COLUMNS = ("evaluator", "param_name", "param_value", "ttl", "cost_per_request")
VALIDATION_COLUMNS = (
    "policy",
    "param_name",
    "param_value",
    "analytic_cost",
    "sim_mean",
    "sim_sd",
    "rel_err",
    "seeds",
)


def validation_report(cfg: ExperimentConfig, *, jobs: int = 1) -> list[dict]:
    """Simulate the config and compare with its closed-form counterpart.

    Supported for global_ttl, individual_ttl, known_rate and lower_bound on
    synthetic workloads. The individual-TTL simulations (estimated or known
    rates) are both compared with the per-item ideal-TTL evaluator.
    """
    if cfg.workload.source != "synthetic":
        raise ConfigError("validate requires a synthetic workload")
    kind = cfg.policy.kind
    pm = cfg.population_model()
    mc = cfg.monte_carlo()
    if kind == "global_ttl":
        analytic = global_ttl_cost(pm, cfg.policy.ttl, cfg.costs, mc)
    elif kind in ("individual_ttl", "known_rate"):
        analytic = individual_ttl_cost(pm, cfg.costs, mc)
    elif kind == "lower_bound":
        analytic = lower_bound_cost(pm, cfg.costs, mc)
    else:
        raise ConfigError(f"no closed-form counterpart for policy kind {kind!r}")
    rows = run_experiment(cfg, jobs=jobs)
    mean = rows[-1]
    name, value = _policy_param(cfg)
    return [
        {
            "policy": kind,
            "param_name": name,
            "param_value": value,
            "analytic_cost": analytic,
            "sim_mean": mean.cost_per_request,
            "sim_sd": mean.cost_sd if mean.cost_sd is not None else "",
            "rel_err": abs(mean.cost_per_request - analytic) / analytic,
            "seeds": len(cfg.seeds),
        }
    ]


def emit_dict_csv(rows: Iterable[dict], columns: Sequence[str], destination) -> None:
    """Write dict rows under a fixed header; used by the report tables."""

    def _write(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) if not isinstance(row[c], str) else row[c] for c in columns])

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            _write(handle)
