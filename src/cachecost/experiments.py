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
import operator
import statistics
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .analytic import (
    CostModel,
    MonteCarloSpec,
    PopulationModel,
    ZipfLaw,
    _validate_ttl,
    global_ttl_cost,
    individual_ttl_cost,
    lower_bound_cost,
    optimal_global_ttl,
)
from .engine import (
    ItemOrder,
    Verdicts,
    _check_warmup,
    by_item,
    cost_per_request,
    global_ttl_verdicts,
    individual_ttl_verdicts,
    known_rate_verdicts,
    lower_bound_verdicts,
    run,
    run_length_ledger,
)
from .policies import LruPolicy, count_threshold
from .presets import DEFAULT_MC_SAMPLES, DEFAULT_SEEDS
from .workload import (
    Columns,
    TraceFormatError,
    _synthetic_blocks,
    columns_of,
    overlay_ads,
    parse_count_trace,
    parse_request_trace,
    requests_of,
    subsample_records,
    synthesize_from_counts,
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


# --- the config keys -------------------------------------------------------
#
# Every `[section] key` is one row of `_KEYS`. parse_config walks the rows to
# check a config, serialize_config walks them back to text, and sweeps and
# the CLI's --seed set a key through the same rows, so each range rule is
# written once. CostModel, ZipfLaw and MonteCarloSpec keep their own ranges;
# the rows build them and report their ValueError as a ConfigError.

_REQUIRED = object()


def _float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"not a number: {value!r}") from None


def _int(value) -> int:
    """An integer from its text or from an integral number, not from a bool."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    try:
        if not isinstance(value, bool):
            return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"not an integer: {value!r}")


def _text(value) -> str:
    return str(value).strip()


def _seeds(value) -> tuple[int, ...]:
    parts = value.replace(",", " ").split() if isinstance(value, str) else value
    return tuple(_int(part) for part in parts)


def _positive(value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {value!r}")


def _fraction(value) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"must be in (0, 1], got {value!r}")


def _seed_list(seeds) -> None:
    if not seeds:
        raise ValueError("must list at least one seed")
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be >= 0, got {seeds}")


def _one_of(choices):
    def rule(value) -> None:
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")

    return rule


def _catalog(n) -> None:
    ZipfLaw(n, 0.0)


def _exponent(s) -> None:
    ZipfLaw(1, s)


class _Key(NamedTuple):
    """One `[section] key`: its type, its range rule, the policy kinds or
    workload sources it applies to (all when empty), its default and the
    spec field it fills (the key's own name unless given)."""

    section: str
    key: str
    convert: Callable
    rule: "Callable | None" = None
    only: tuple[str, ...] = ()
    default: object = _REQUIRED
    field: "str | None" = None


_SYNTHETIC = ("synthetic",)
_TRACES = ("request_trace", "count_trace")

_KEYS = (
    _Key("population", "movies", _int, _catalog),
    _Key("population", "movie_exponent", _float, _exponent),
    _Key("population", "ads", _int, _catalog),
    _Key("population", "ad_exponent", _float, _exponent),
    _Key("population", "lambda", _float, _positive, field="lambda_global"),
    _Key("costs", "storage_per_item_hour", _float),
    _Key("costs", "compute_per_item", _float),
    _Key("costs", "transmission_per_item", _float),
    _Key("policy", "kind", _text, _one_of(POLICY_KINDS)),
    _Key("policy", "ttl", _float, _validate_ttl, ("global_ttl",)),
    _Key("policy", "window", _float, _positive, ("individual_ttl",)),
    _Key("policy", "capacity", _int, _positive, ("lru",)),
    _Key("workload", "source", _text, _one_of(WORKLOAD_SOURCES)),
    _Key("workload", "duration", _float, _positive, _SYNTHETIC),
    _Key("workload", "path", _text, None, _TRACES),
    _Key("workload", "ad_catalog", _int, _catalog, _TRACES, None),
    _Key("workload", "ad_exponent", _float, _exponent, _TRACES, None),
    _Key("workload", "subsample", _float, _fraction, ("count_trace",), None),
    _Key("run", "seeds", _seeds, _seed_list, default=DEFAULT_SEEDS),
    _Key("run", "warmup", _float, _check_warmup, default=0.0),
    _Key("monte_carlo", "samples", _int, lambda n: MonteCarloSpec(n, 0),
         default=DEFAULT_MC_SAMPLES, field="mc_samples"),
    _Key("monte_carlo", "seed", _int, lambda s: MonteCarloSpec(1, s), default=0, field="mc_seed"),
)
_KEYS = tuple(row._replace(field=row.field or row.key) for row in _KEYS)
_ROWS = {(row.section, row.key): row for row in _KEYS}
_SECTIONS = {row.section for row in _KEYS}
# Sections that build a spec held in the ExperimentConfig field of their
# name; [run] and [monte_carlo] fill ExperimentConfig fields directly.
_SPEC_SECTIONS = ("population", "costs", "policy", "workload")
# The key whose value decides which of its section's keys apply; it is the
# section's first row, so it is read before the keys it scopes.
_SCOPE_KEY = {"policy": "kind", "workload": "source"}
_SCOPE_NAMES = {
    "synthetic": "a synthetic workload",
    "request_trace": "request traces",
    "count_trace": "count traces",
}

# sweep axis -> the [section] key it sets
SWEEP_AXES = {
    "ttl": ("policy", "ttl"),
    "capacity": ("policy", "capacity"),
    "window": ("policy", "window"),
    "lambda": ("population", "lambda"),
}


def _scope_name(value: str) -> str:
    return _SCOPE_NAMES.get(value, f"kind {value!r}")


def _convert(row: _Key, value):
    try:
        value = row.convert(value)
        if row.rule is not None:
            row.rule(value)
    except ValueError as err:
        raise ConfigError(f"{row.section}.{row.key}: {err}") from None
    return value


def _get(cfg: ExperimentConfig, row: _Key):
    holder = getattr(cfg, row.section) if row.section in _SPEC_SECTIONS else cfg
    return None if holder is None else getattr(holder, row.field)


def _build(given: "dict[str, dict]", base_dir: "str | Path | None" = None) -> ExperimentConfig:
    """Check `{section: {key: text or value}}` against the key table."""
    for section, keys in given.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in keys:
            if (section, key) not in _ROWS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("costs", "policy", "workload"):
        if required not in given:
            raise ConfigError(f"missing section [{required}]")

    fields: dict[str, dict] = {}
    for row in _KEYS:
        if row.section == "population" and "population" not in given:
            continue
        keys = given.get(row.section, {})
        values = fields.setdefault(row.section, {})
        scope = values.get(_SCOPE_KEY.get(row.section))
        applies = not row.only or scope in row.only
        where = f"{row.section}.{row.key}"
        if row.key in keys:
            if not applies:
                raise ConfigError(
                    f"{where} does not apply to {_scope_name(scope)}; "
                    f"only to {' or '.join(map(_scope_name, row.only))}"
                )
            values[row.field] = _convert(row, keys[row.key])
        elif applies and row.default is _REQUIRED:
            needed_by = f" for {_scope_name(scope)}" if row.only else ""
            raise ConfigError(f"{where} is required{needed_by}")
        elif applies:
            values[row.field] = row.default

    workload = fields["workload"]
    if "path" in workload:
        path = Path(workload["path"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        if not path.is_file():
            raise ConfigError(f"workload.path does not exist: {path}")
        workload["path"] = str(path)
    try:
        costs = CostModel(**fields["costs"])
    except ValueError as err:
        raise ConfigError(f"costs: {err}") from None
    cfg = ExperimentConfig(
        costs=costs,
        policy=PolicySpec(**fields["policy"]),
        workload=WorkloadSpec(**workload),
        population=PopulationSpec(**fields["population"]) if "population" in fields else None,
        **fields["run"],
        **fields["monte_carlo"],
    )

    source = cfg.workload.source
    if (cfg.workload.ad_catalog is None) != (cfg.workload.ad_exponent is None):
        raise ConfigError("ad_catalog and ad_exponent must be given together")
    if source == "count_trace" and cfg.workload.ad_catalog is None:
        raise ConfigError("a count-trace workload requires ad_catalog and ad_exponent")
    if source == "synthetic" and cfg.population is None:
        raise ConfigError("a synthetic workload requires a [population] section")
    if cfg.policy.kind == "known_rate" and source != "synthetic":
        raise ConfigError("known_rate requires a synthetic workload (true rates are unknown otherwise)")
    if cfg.policy.kind == "individual_ttl":
        try:
            count_threshold(cfg.policy.window, cfg.costs)
        except ValueError as err:
            raise ConfigError(f"policy.{err}") from None
    if source == "synthetic" and cfg.warmup >= cfg.workload.duration:
        raise ConfigError(
            f"run.warmup ({cfg.warmup}) must be smaller than "
            f"workload.duration ({cfg.workload.duration})"
        )
    return cfg


def _values(cfg: ExperimentConfig) -> "dict[str, dict]":
    """`{section: {key: value}}` of a config; unset keys are left out."""
    given: dict[str, dict] = {}
    for row in _KEYS:
        value = _get(cfg, row)
        if value is not None:
            given.setdefault(row.section, {})[row.key] = value
    return given


def _sections(text: str, source: str) -> "dict[str, dict]":
    """`{section: {key: text}}` of a config; a syntax error is one line
    naming `source`."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source)
    except configparser.Error as err:
        raise ConfigError(f"unparseable config: {' '.join(str(err).split())}") from None
    return {section: dict(parser.items(section, raw=True)) for section in parser.sections()}


def parse_config(text: str, *, base_dir: "str | Path | None" = None) -> ExperimentConfig:
    """Parse and validate a config. Relative paths resolve against base_dir."""
    return _build(_sections(text, "<string>"), base_dir)


def load_config(path: "str | Path") -> ExperimentConfig:
    """Read a UTF-8 config file, with or without a byte-order mark;
    relative workload paths resolve beside it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(
            f"line {_undecodable_line(path)}: {path} is not UTF-8 text: {err.reason}"
        ) from None
    return _build(_sections(text, str(path)), path.parent)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to its text form; parse round-trips exactly."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, values in _values(cfg).items():
        parser[section] = {
            key: ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            for key, value in values.items()
        }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def override(cfg: ExperimentConfig, section: str, key: str, value) -> ExperimentConfig:
    """`cfg` with `[section] key` set to `value`, checked as in a config file."""
    given = _values(cfg)
    given.setdefault(section, {})[key] = value
    return _build(given)


def _grid(section: str, key: str, grid: Sequence) -> list:
    """Grid values converted and range-checked by the `[section] key` row."""
    if len(grid) == 0:
        raise ConfigError(f"{section}.{key}: grid must not be empty")
    row = _ROWS[section, key]
    try:
        return [_convert(row, value) for value in grid]
    except ConfigError as err:
        raise ConfigError(f"bad grid value: {err}") from None


# --- workload assembly -----------------------------------------------------


def _file_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            yield from handle
        except UnicodeDecodeError as err:
            raise TraceFormatError(
                f"{path} is not UTF-8 text: {err.reason}", _undecodable_line(path)
            ) from None


def _undecodable_line(path: str) -> int:
    """The line, counted as text-mode reading counts lines, of the file's
    first byte that is not UTF-8; text-mode errors do not say where it is."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start].decode("utf-8")
    return head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1


def _trace_child_seeds(seed: int) -> tuple[int, int, int]:
    sub, synth, overlay = np.random.SeedSequence(seed).generate_state(3).tolist()
    return sub, synth, overlay


def build_trace(cfg: ExperimentConfig, seed: int) -> Iterator[Columns]:
    """The trace of one run as `Columns` blocks, fully determined by (cfg, seed)."""
    source = cfg.workload.source
    if source == "synthetic":
        return _synthetic_blocks(cfg.population_model(), cfg.workload.duration, seed)
    sub_seed, synth_seed, overlay_seed = _trace_child_seeds(seed)
    if source == "count_trace":
        records = parse_count_trace(_file_lines(cfg.workload.path))
        if cfg.workload.subsample is not None:
            records = subsample_records(records, cfg.workload.subsample, sub_seed)
        blocks = synthesize_from_counts(records, synth_seed)
    else:
        # request trace: overlay only when the file carries no ad ids
        blocks = parse_request_trace(_file_lines(cfg.workload.path))
        first = next(blocks, None)
        if first is None:
            return iter(())
        blocks = chain([first], blocks)
        if first.ads[0] != -1:
            return blocks
        if cfg.workload.ad_catalog is None:
            raise TraceFormatError(
                "trace has no ad ids and no ad overlay is configured "
                "(set workload.ad_catalog and workload.ad_exponent)"
            )
    law = ZipfLaw(cfg.workload.ad_catalog, cfg.workload.ad_exponent)
    return overlay_ads(blocks, law, overlay_seed)


def _verdicts(cfg: ExperimentConfig, trace: Columns, items: ItemOrder) -> Verdicts:
    """The configured policy's verdicts on every request of a non-LRU run."""
    kind = cfg.policy.kind
    if kind == "global_ttl":
        return global_ttl_verdicts(items, cfg.policy.ttl)
    if kind == "individual_ttl":
        return individual_ttl_verdicts(items, cfg.policy.window, cfg.costs)
    if kind == "lower_bound":
        return lower_bound_verdicts(items, cfg.costs)
    if kind == "known_rate":
        rates = cfg.population_model().rates(trace.movies, trace.ads)
        return known_rate_verdicts(items, rates, cfg.costs)
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
    for row in _KEYS:
        if row.section == "policy" and cfg.policy.kind in row.only:
            return row.key, _get(cfg, row)
    return "", ""


_RECORD = np.dtype([("t", "<f8"), ("m", "<i8"), ("a", "<i8")])


def _checksum(block: Columns, crc: int) -> int:
    """`crc` folded with crc32 over the block's packed `<dqq` records."""
    records = np.empty(block.times.size, dtype=_RECORD)
    records["t"], records["m"], records["a"] = block
    return zlib.crc32(records, crc)


def _run_single(
    cfg: ExperimentConfig, seed: int, param: "tuple[str, float | int | str] | None" = None
) -> ResultRow:
    """One (config, seed) simulation producing one CSV row.

    The trace streams through as blocks, each folded into the checksum as
    it passes. LRU replays its requests through the event engine. Every
    other policy is priced from the blocks joined into columns: the trace
    is sorted by item, the policy's verdicts come as arrays and
    `run_length_ledger` prices them. A ledger with a non-finite dollar
    field is rejected.
    """
    crc, last_time = 0, None

    def checked(blocks: Iterator[Columns]) -> Iterator[Columns]:
        nonlocal crc, last_time
        for block in blocks:
            crc = _checksum(block, crc)
            if block.times.size:
                last_time = float(block.times[-1])
            yield block

    trace = checked(build_trace(cfg, seed))
    if cfg.policy.kind == "lru":
        policy = LruPolicy(cfg.policy.capacity)
        ledger = run(requests_of(trace), policy, cfg.costs, warmup=cfg.warmup)
    else:
        trace = columns_of(trace)
        items = by_item(trace)
        verdicts = _verdicts(cfg, trace, items)
        del trace  # the sorted copy is all the pricing reads
        ledger = run_length_ledger(items, verdicts, cfg.costs, warmup=cfg.warmup)
    if ledger.requests == 0:
        if last_time is None:
            raise TraceFormatError("the trace holds no requests")
        raise ConfigError(
            f"run.warmup ({cfg.warmup!r}) lies past the last request of the trace "
            f"(at {last_time!r} h); no request is priced"
        )
    name, value = param if param is not None else _policy_param(cfg)
    dollars = {
        "compute_d": ledger.compute_dollars,
        "storage_d": ledger.storage_dollars,
        "transmission_d": ledger.transmission_dollars,
        "cost_per_request": cost_per_request(ledger),
    }
    for field, amount in dollars.items():
        if not math.isfinite(amount):
            raise ConfigError(
                f"{field} overflows float range ({amount!r}) for seed {seed}; "
                "the prices are too large for this trace"
            )
    return ResultRow(
        policy=cfg.policy.kind,
        param_name=name,
        param_value=value,
        seed=str(seed),
        requests=ledger.requests,
        hits=ledger.hits,
        **dollars,
        trace_checksum=format(crc & 0xFFFFFFFF, "08x"),
    )


def _summary_row(rows: Sequence[ResultRow]) -> ResultRow:
    costs = [r.cost_per_request for r in rows]
    sd = None
    first = rows[0]
    try:
        if len(costs) > 1:
            # Exact rational variance, rounded to float once, then one sqrt.
            # statistics.stdev rounds differently on 3.10 and on 3.11+.
            exact = [Fraction(c) for c in costs]
            mean = sum(exact) / len(exact)
            variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
            sd = math.sqrt(float(variance))
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
    except OverflowError:
        raise ConfigError(
            f"the mean row of {first.policy} {first.param_name} {first.param_value} "
            "overflows float range across seeds; the prices are too large"
        ) from None


def _execute(tasks: "list[tuple[ExperimentConfig, int, tuple]]", jobs: int) -> list[ResultRow]:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
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


def sweep(
    cfg: ExperimentConfig, axis: str, grid: Sequence, *, jobs: int = 1
) -> list[ResultRow]:
    """Sweep one axis over a grid: per-seed rows, per-point means, argmin.

    Seeds are shared across grid points, so on axes that do not touch the
    workload every point replays the identical trace per seed (the
    trace_checksum column proves it). The final row, seed = "argmin",
    repeats the grid point with the lowest mean cost; ties resolve to the
    smaller parameter value. Grid values obey the rules of the config key
    the axis sets (SWEEP_AXES).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    section, key = SWEEP_AXES[axis]
    kinds = _ROWS[section, key].only
    if kinds and cfg.policy.kind not in kinds:
        raise ConfigError(f"a {axis} sweep requires policy.kind = {' or '.join(kinds)}")
    if axis == "lambda" and cfg.workload.source != "synthetic":
        raise ConfigError("a lambda sweep requires a synthetic workload")
    values = _grid(section, key, grid)
    points = [override(cfg, section, key, value) for value in values]
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


def emit_csv(
    rows: "Iterable[ResultRow | dict]", destination, columns: Sequence[str] = CSV_COLUMNS
) -> None:
    """Write `ResultRow`s or dict rows under a fixed header; byte-stable for
    fixed inputs. `destination` is an open text file or a path."""

    def _write(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = row if isinstance(row, dict) else vars(row)
            writer.writerow([_fmt(cells[c]) for c in columns])

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            _write(handle)


# --- analytic and validation reports ---------------------------------------


ANALYTIC_COLUMNS = ("evaluator", "param_name", "param_value", "ttl", "cost_per_request")


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
    if ttl_grid is not None:
        ttl_grid = _grid("policy", "ttl", ttl_grid)
    if lambda_grid is not None:
        lambda_grid = _grid("population", "lambda", lambda_grid)
    pm = cfg.population_model()
    mc = cfg.monte_carlo()
    rows: list[dict] = []

    def row(evaluator, name, value, ttl, cost) -> None:
        rows.append(dict(zip(ANALYTIC_COLUMNS, (evaluator, name, value, ttl, cost))))

    if ttl_grid is not None:
        for ttl in ttl_grid:
            row("global_ttl", "ttl", ttl, ttl, global_ttl_cost(pm, ttl, cfg.costs, mc))
        best_ttl, best_cost = optimal_global_ttl(pm, cfg.costs, mc, ttl_grid)
        row("optimal_global_ttl", "ttl", best_ttl, best_ttl, best_cost)
    row("individual_ttl", "", "", "", individual_ttl_cost(pm, cfg.costs, mc))
    row("lower_bound", "", "", "", lower_bound_cost(pm, cfg.costs, mc))
    if lambda_grid is not None:
        base_ttls = ttl_grid if ttl_grid is not None else [30.0 * k for k in range(21)]
        for lam in lambda_grid:
            pm_l = PopulationModel(movies=pm.movies, ads=pm.ads, lambda_global=lam)
            best_ttl, best_cost = optimal_global_ttl(pm_l, cfg.costs, mc, base_ttls)
            row("optimal_global_ttl", "lambda", lam, best_ttl, best_cost)
    return rows


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
