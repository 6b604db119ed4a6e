"""Config-driven experiments: runs, sweeps and CSV reporting.

A config is a flat INI-style text with one level of sections. It pins the
prices, the policy and its parameter, the workload source and the run
discipline (seeds, warmup), so a result is reproducible from the config
file alone. Execution fans out over independent tasks, one per seed or per
(grid point, seed), optionally on a process pool, and is collected in a
stable order: the emitted CSV is byte-identical no matter how many workers
ran it.
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
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import analytic
from .analytic import (
    CostModel,
    MonteCarloSpec,
    PopulationModel,
    ZipfLaw,
    _argmin_ttl,
    _floor_item_costs,
    _ideal_item_costs,
    _mean_cost,
    _ttl_item_costs,
    _validate_ttl,
)
from .engine import (
    CostLedger,
    ItemOrder,
    Verdicts,
    _check_warmup,
    by_item,
    cost_per_request,
    global_ttl_verdicts,
    individual_ttl_verdicts,
    known_rate_verdicts,
    lower_bound_verdicts,
    lru_ledger,
    run_length_ledger,
)
from .policies import LruPolicy, _check_window, count_threshold
from .presets import DEFAULT_MC_SAMPLES, DEFAULT_SEEDS
from .workload import (
    Columns,
    TraceFormatError,
    _check_duration,
    _synthetic_blocks,
    columns_of,
    overlay_ads,
    parse_count_trace,
    parse_request_trace,
    subsample_records,
    synthesize_from_counts,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PolicySpec",
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
    ads: "ZipfLaw | None" = None  # the ad overlay's popularity law
    subsample: "float | None" = None


@dataclass(frozen=True)
class ExperimentConfig:
    costs: CostModel
    policy: PolicySpec
    workload: WorkloadSpec
    population: "PopulationModel | None"
    seeds: tuple[int, ...]
    warmup: float
    mc: MonteCarloSpec


# --- the config keys -------------------------------------------------------
#
# Every `[section] key` is one row of `_KEYS`. parse_config walks the rows to
# check a config, serialize_config walks them back to text, and sweeps and
# the CLI's --seed set a key through the same rows. A row gives a key its
# type and scope but no bound: its rule is the check of the module that owns
# the quantity, called directly (`_validate_ttl`, `_check_window`) or by
# building the object that checks it (`ZipfLaw`, `LruPolicy`). The [costs]
# keys are checked together by CostModel. Each ValueError is reported as a
# ConfigError naming the key.

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


def _one_of(choices):
    def rule(value) -> None:
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")

    return rule


def _catalog(n) -> None:
    ZipfLaw(n, 0.0)


def _exponent(s) -> None:
    ZipfLaw(1, s)


def _lambda(lam) -> None:
    PopulationModel(ZipfLaw(1, 0.0), ZipfLaw(1, 0.0), lam)


def _seed(seed) -> None:
    MonteCarloSpec(1, seed)


def _seed_list(seeds) -> None:
    if not seeds:
        raise ValueError("must list at least one seed")
    for seed in seeds:
        _seed(seed)


def _subsample(fraction) -> None:
    subsample_records((), fraction, 0)


class _Key(NamedTuple):
    """One `[section] key`: its type, its range rule, the policy kinds or
    workload sources it applies to (all when empty), its default and its
    value's attribute path in an ExperimentConfig (`section.key` unless given)."""

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
    _Key("population", "movies", _int, _catalog, field="population.movies.n"),
    _Key("population", "movie_exponent", _float, _exponent, field="population.movies.s"),
    _Key("population", "ads", _int, _catalog, field="population.ads.n"),
    _Key("population", "ad_exponent", _float, _exponent, field="population.ads.s"),
    _Key("population", "lambda", _float, _lambda, field="population.lambda_global"),
    _Key("costs", "storage_per_item_hour", _float),
    _Key("costs", "compute_per_item", _float),
    _Key("costs", "transmission_per_item", _float),
    _Key("policy", "kind", _text, _one_of(POLICY_KINDS)),
    _Key("policy", "ttl", _float, _validate_ttl, ("global_ttl",)),
    _Key("policy", "window", _float, _check_window, ("individual_ttl",)),
    _Key("policy", "capacity", _int, LruPolicy, ("lru",)),
    _Key("workload", "source", _text, _one_of(WORKLOAD_SOURCES)),
    _Key("workload", "duration", _float, _check_duration, _SYNTHETIC),
    _Key("workload", "path", _text, None, _TRACES),
    _Key("workload", "ad_catalog", _int, _catalog, _TRACES, None, "workload.ads.n"),
    _Key("workload", "ad_exponent", _float, _exponent, _TRACES, None, "workload.ads.s"),
    _Key("workload", "subsample", _float, _subsample, ("count_trace",), None),
    _Key("run", "seeds", _seeds, _seed_list, default=DEFAULT_SEEDS, field="seeds"),
    _Key("run", "warmup", _float, _check_warmup, default=0.0, field="warmup"),
    _Key("monte_carlo", "samples", _int, lambda n: MonteCarloSpec(n, 0),
         default=DEFAULT_MC_SAMPLES, field="mc.samples"),
    _Key("monte_carlo", "seed", _int, _seed, default=0, field="mc.seed"),
)
_KEYS = tuple(row._replace(field=row.field or f"{row.section}.{row.key}") for row in _KEYS)
_ROWS = {(row.section, row.key): row for row in _KEYS}
_SECTIONS = {row.section for row in _KEYS}
# The key whose value decides which of its section's keys apply; it is the
# section's first row, so it is read before the keys it scopes.
_SCOPE_KEY = {"policy": "kind", "workload": "source"}
_SCOPE_NAMES = {
    "synthetic": "a synthetic workload",
    "request_trace": "request traces",
    "count_trace": "count traces",
}

# Most expected arrivals, lambda * duration, of a synthetic run: about 24 GB
# of trace columns. A longer run could not finish.
MAX_ARRIVALS = 1e9

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
    value = cfg
    for name in row.field.split("."):
        value = None if value is None else getattr(value, name)
    return value


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
            values[row.key] = _convert(row, keys[row.key])
        elif applies and row.default is _REQUIRED:
            needed_by = f" for {_scope_name(scope)}" if row.only else ""
            raise ConfigError(f"{where} is required{needed_by}")
        elif applies:
            values[row.key] = row.default

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
    catalog, exponent = workload.pop("ad_catalog", None), workload.pop("ad_exponent", None)
    if (catalog is None) != (exponent is None):
        raise ConfigError("ad_catalog and ad_exponent must be given together")
    if catalog is not None:
        workload["ads"] = ZipfLaw(catalog, exponent)
    p = fields.get("population")
    cfg = ExperimentConfig(
        costs=costs,
        policy=PolicySpec(**fields["policy"]),
        workload=WorkloadSpec(**workload),
        population=None if p is None else PopulationModel(
            ZipfLaw(p["movies"], p["movie_exponent"]),
            ZipfLaw(p["ads"], p["ad_exponent"]),
            p["lambda"],
        ),
        mc=MonteCarloSpec(**fields["monte_carlo"]),
        **fields["run"],
    )

    source = cfg.workload.source
    if source == "count_trace" and cfg.workload.ads is None:
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
    if source == "synthetic":
        arrivals = cfg.population.lambda_global * cfg.workload.duration
        if arrivals > MAX_ARRIVALS:
            raise ConfigError(
                f"population.lambda * workload.duration is {arrivals!r} expected "
                f"arrivals, above the limit of {MAX_ARRIVALS:g}"
            )
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
    naming `source` and the line."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source)
    except configparser.MissingSectionHeaderError as err:
        line, what = err.lineno, "a line before the first [section] header"
    except configparser.ParsingError as err:
        line, what = err.errors[0][0], "a line that is not [section] or key = value"
    except configparser.DuplicateSectionError as err:
        line, what = err.lineno, f"section [{err.section}] given twice"
    except configparser.DuplicateOptionError as err:
        line, what = err.lineno, f"key {err.option!r} given twice in [{err.section}]"
    else:
        return {section: dict(parser.items(section, raw=True)) for section in parser.sections()}
    raise ConfigError(f"line {line}: {source} is not INI syntax: {what}")


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
        return _synthetic_blocks(cfg.population, cfg.workload.duration, seed)
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
        if cfg.workload.ads is None:
            raise TraceFormatError(
                "trace has no ad ids and no ad overlay is configured "
                "(set workload.ad_catalog and workload.ad_exponent)"
            )
    return overlay_ads(blocks, cfg.workload.ads, overlay_seed)


def _verdicts(cfg: ExperimentConfig, items: ItemOrder, rates: "np.ndarray | None") -> Verdicts:
    """The configured policy's verdicts on every request of a non-LRU run;
    `rates` are known_rate's true item rates in trace order."""
    kind = cfg.policy.kind
    if kind == "global_ttl":
        return global_ttl_verdicts(items, cfg.policy.ttl)
    if kind == "individual_ttl":
        return individual_ttl_verdicts(items, cfg.policy.window, cfg.costs)
    if kind == "lower_bound":
        return lower_bound_verdicts(items, cfg.costs)
    if kind == "known_rate":
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
    cfg: ExperimentConfig,
    seed: int,
    points: "Sequence[tuple[ExperimentConfig, tuple]] | None" = None,
) -> list[ResultRow]:
    """One task: the trace of (cfg, seed) priced at each (config, param)
    point, one CSV row per point.

    The points differ from cfg at most in the policy parameter, so they
    share its trace; by default cfg is the one point. The trace streams
    through as blocks, each folded into the checksum as it passes. Every
    kind has one fast path, and the policy classes replayed by `run` are
    its oracle. LRU streams the blocks through `lru_ledger` and takes one
    point. Every other policy is priced from the blocks joined into
    columns: the trace is sorted by item once, then point by point the
    policy's verdicts come as arrays and `run_length_ledger` prices them.
    A ledger with a non-finite dollar field is rejected; the first point
    that fails raises.
    """
    if points is None:
        points = [(cfg, _policy_param(cfg))]
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
        [(point, _)] = points
        ledgers = [lru_ledger(trace, point.policy.capacity, point.costs, warmup=point.warmup)]
    else:
        trace = columns_of(trace)
        items = by_item(trace)
        # known_rate has no sweep axis: its one point reads the trace's ids.
        rates = None
        if cfg.policy.kind == "known_rate":
            rates = cfg.population.rates(trace.movies, trace.ads)
        del trace  # the sorted copy is all the pricing reads
        ledgers = (
            run_length_ledger(
                items, _verdicts(point, items, rates), point.costs, warmup=point.warmup
            )
            for point, _ in points
        )

    def row(point: ExperimentConfig, param: tuple, ledger: CostLedger) -> ResultRow:
        if ledger.requests == 0:
            if last_time is None:
                raise TraceFormatError("the trace holds no requests")
            raise ConfigError(
                f"run.warmup ({point.warmup!r}) lies past the last request of the trace "
                f"(at {last_time!r} h); no request is priced"
            )
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
        name, value = param
        return ResultRow(
            policy=point.policy.kind,
            param_name=name,
            param_value=value,
            seed=str(seed),
            requests=ledger.requests,
            hits=ledger.hits,
            **dollars,
            trace_checksum=format(crc & 0xFFFFFFFF, "08x"),
        )

    return [row(point, param, ledger) for (point, param), ledger in zip(points, ledgers)]


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


def _execute(
    tasks: "list[tuple[ExperimentConfig, int, list]]", jobs: int
) -> "list[list[ResultRow]]":
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        return [_run_single(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_single, *task) for task in tasks]
        return [f.result() for f in futures]


def _run_points(
    points: "list[tuple[ExperimentConfig, tuple]]", jobs: int, *, shared: bool = False
) -> list[ResultRow]:
    """Run each (config, param) point once per seed, all on one pool; per
    point, its per-seed rows then its mean row. The points share their
    seeds. With `shared` they also share each seed's trace, and one task
    per seed prices them all; otherwise each (point, seed) is a task."""
    seeds = points[0][0].seeds
    groups = [points] if shared else [[point] for point in points]
    tasks = [(group[0][0], seed, group) for group in groups for seed in seeds]
    done = iter(_execute(tasks, jobs))
    rows: list[ResultRow] = []
    for _ in groups:
        # this group's tasks, seed by seed, each with a row per point
        for point_rows in zip(*islice(done, len(seeds))):
            rows += point_rows
            rows.append(_summary_row(point_rows))
    return rows


def run_experiment(cfg: ExperimentConfig, *, jobs: int = 1) -> list[ResultRow]:
    """Run the config once per seed; per-seed rows plus one mean row.

    The mean row averages the numeric columns across seeds and carries the
    sample standard deviation of cost_per_request in cost_sd (empty with a
    single seed): the square root of the correctly rounded sample variance,
    the same on every supported Python.
    """
    return _run_points([(cfg, _policy_param(cfg))], jobs)


def sweep(
    cfg: ExperimentConfig, axis: str, grid: Sequence, *, jobs: int = 1
) -> list[ResultRow]:
    """Sweep one axis over a grid: per-seed rows, per-point means, argmin.

    Seeds are shared across grid points, so on axes that do not touch the
    workload every point prices the identical trace per seed (the
    trace_checksum column proves it); on the ttl and window axes that trace
    is built, checksummed and sorted once per seed for all points. The
    final row, seed = "argmin", repeats the grid point with the lowest mean
    cost; ties resolve to the smaller parameter value. Grid values obey the rules of the config key
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
    points = [(override(cfg, section, key, v), (axis, v)) for v in _grid(section, key, grid)]
    # One task per seed when the axis leaves the trace alone and the kind
    # prices from columns; LRU streams each point's trace on its own.
    shared = section == "policy" and cfg.policy.kind != "lru"
    rows = _run_points(points, jobs, shared=shared)
    means = (r for r in rows if r.seed == "mean")
    best = min(means, key=lambda r: (r.cost_per_request, r.param_value))
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


# Closed-form evaluator -> the per-item cost of drawn item rates, given the
# prices and the policy parameter (only global_ttl reads it: its ttl). Each
# prices the policy kind of its name; known_rate is priced as individual_ttl.
CLOSED_FORMS = {
    "global_ttl": lambda rates, costs, ttl: _ttl_item_costs(rates, ttl, costs),
    "individual_ttl": lambda rates, costs, _: _ideal_item_costs(rates, costs),
    "lower_bound": lambda rates, costs, _: _floor_item_costs(rates, costs),
}

ANALYTIC_COLUMNS = ("evaluator", "param_name", "param_value", "ttl", "cost_per_request")


def analytic_table(
    cfg: ExperimentConfig,
    *,
    ttl_grid: "Sequence[float] | None" = None,
    lambda_grid: "Sequence[float] | None" = None,
) -> list[dict]:
    """Closed-form evaluator table for the config's population and prices.

    Returns dict rows with keys evaluator, param_name, param_value, ttl,
    cost_per_request: a row per evaluator of CLOSED_FORMS, in its order,
    but global_ttl, which prices each point of a ttl grid, then the grid
    argmin taken from those rows. All of them price one draw of item rates.
    With a lambda grid: the argmin search repeated on one draw per rate.
    """
    if ttl_grid is not None:
        ttl_grid = _grid("policy", "ttl", ttl_grid)
    if lambda_grid is not None:
        lambda_grid = _grid("population", "lambda", lambda_grid)
    if cfg.population is None:
        raise ConfigError("this configuration has no population section")

    def price(evaluator: str, rates: np.ndarray, param=None) -> float:
        return _mean_cost(CLOSED_FORMS[evaluator](rates, cfg.costs, param), cfg.costs)

    rates = analytic.sample_item_rates(cfg.population, cfg.mc)
    rows = []
    for evaluator in CLOSED_FORMS:
        if evaluator != "global_ttl":
            rows.append((evaluator, "", "", "", price(evaluator, rates)))
        elif ttl_grid is not None:
            curve = [price(evaluator, rates, ttl) for ttl in ttl_grid]
            rows += [(evaluator, "ttl", ttl, ttl, cost) for ttl, cost in zip(ttl_grid, curve)]
            best_ttl, best_cost = _argmin_ttl(ttl_grid, curve)
            rows.append(("optimal_global_ttl", "ttl", best_ttl, best_ttl, best_cost))
    base_ttls = ttl_grid if ttl_grid is not None else [30.0 * k for k in range(21)]
    for lam in lambda_grid or ():
        rates = analytic.sample_item_rates(replace(cfg.population, lambda_global=lam), cfg.mc)
        curve = [price("global_ttl", rates, ttl) for ttl in base_ttls]
        best_ttl, best_cost = _argmin_ttl(base_ttls, curve)
        rows.append(("optimal_global_ttl", "lambda", lam, best_ttl, best_cost))
    return [dict(zip(ANALYTIC_COLUMNS, row)) for row in rows]


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

    Supported on synthetic workloads for the kinds of CLOSED_FORMS and for
    known_rate, which is compared with individual_ttl's known-rate ideal.
    The simulation runs first, then one draw of item rates prices the form.
    """
    if cfg.workload.source != "synthetic":
        raise ConfigError("validate requires a synthetic workload")
    kind = cfg.policy.kind
    form = CLOSED_FORMS.get("individual_ttl" if kind == "known_rate" else kind)
    if form is None:
        raise ConfigError(f"no closed-form counterpart for policy kind {kind!r}")
    mean = run_experiment(cfg, jobs=jobs)[-1]
    rates = analytic.sample_item_rates(cfg.population, cfg.mc)
    closed_form = _mean_cost(form(rates, cfg.costs, cfg.policy.ttl), cfg.costs)
    sim, sd = mean.cost_per_request, ("" if mean.cost_sd is None else mean.cost_sd)
    rel_err = abs(sim - closed_form) / closed_form
    row = (kind, *_policy_param(cfg), closed_form, sim, sd, rel_err, len(cfg.seeds))
    return [dict(zip(VALIDATION_COLUMNS, row))]
