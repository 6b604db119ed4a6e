"""Trace generation and trace file parsing.

A trace is time-ordered, with timestamps in hours from an arbitrary zero.
Every producer streams it as `Columns` blocks: parallel arrays of times,
movie ids and ad ids, with an unassigned ad stored as -1. Pricing sorts
the blocks by item as they stream (`engine.by_item`); `columns_of` joins
them into one `Columns` for a caller that wants the whole trace. One
request on its own is a plain pair `(time, (movie, ad))`: `requests_of`
turns blocks into such pairs for the event engine. Only the count-trace
synthesizer, which sorts all its arrivals at once, the sort by item and a
caller that joins or lists the blocks hold a whole trace.

Two text formats are supported, both UTF-8, comma separated, with `#`
comment lines and `.` as the decimal point. Each field is read by Python's
`float` or `int`, so underscore digit groups and non-ASCII digits are
valid, and a `#` after data is part of its field, not a comment:

request trace    time_hours,movie_id[,ad_id]
count trace      movie_id,upload_time_hours,total_views,horizon_hours

A request trace either carries an ad id on every line or on none; in the
latter case ads are meant to be drawn afterwards with `overlay_ads`.
Movie and ad ids are integers from 1 to 2**63 - 1, so every trace fits
the int64 `Columns` form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .analytic import PopulationModel, ZipfLaw, _check_int, _check_real

__all__ = [
    "Columns",
    "CountTraceRecord",
    "TraceFormatError",
    "columns_of",
    "gen_synthetic",
    "overlay_ads",
    "parse_count_trace",
    "parse_request_trace",
    "requests_of",
    "subsample_records",
    "synthesize_from_counts",
]


MAX_ID = 2**63 - 1  # largest movie or ad id: the int64 maximum
# Requests per block of a parsed or synthesized trace.
BLOCK_REQUESTS = 4096
# Arrivals per synthetic draw block. The draws interleave per block, so
# this is part of what a seed means.
_SYNTHETIC_BLOCK = 8192
# Most expected arrivals of one trace: lambda * duration of a synthetic run,
# the summed views of a count trace. That is about 24 GB of trace columns;
# a longer run could not finish.
MAX_ARRIVALS = 1e9


class Columns(NamedTuple):
    """A time-ordered trace, or a block of one, as parallel arrays:
    float64 times, int64 ids.

    An unassigned ad is stored as -1.
    """

    times: np.ndarray
    movies: np.ndarray
    ads: np.ndarray


class TraceFormatError(ValueError):
    """Malformed or mis-ordered trace input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: "int | None" = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _check_duration(duration: float) -> float:
    return _check_real("duration", duration, 0, above=True)


def _synthetic_blocks(population: PopulationModel, duration: float, seed: int) -> Iterator[Columns]:
    """The draws behind `gen_synthetic`, block by block, cut at `duration`.

    Each block holds `_SYNTHETIC_BLOCK` arrivals; the last one ends just
    before the first arrival at or after `duration`.
    """
    duration = _check_duration(duration)
    seed = _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    scale = 1.0 / population.lambda_global
    t = 0.0
    while True:
        times = t + np.cumsum(rng.exponential(scale, _SYNTHETIC_BLOCK))
        movies = population.movies.sample(rng, _SYNTHETIC_BLOCK)
        ads = population.ads.sample(rng, _SYNTHETIC_BLOCK)
        if times[-1] >= duration:
            cut = int(np.searchsorted(times, duration, side="left"))
            yield Columns(times[:cut], movies[:cut], ads[:cut])
            return
        yield Columns(times, movies, ads)
        t = float(times[-1])


def gen_synthetic(
    population: PopulationModel, duration: float, seed: int
) -> Iterator[tuple[float, tuple[int, int]]]:
    """Poisson arrivals over [0, duration) with population-drawn items,
    as `(time, (movie, ad))` pairs.

    Interarrival gaps are exponential at the global rate; each arrival is
    an independent (movie, ad) draw. One seeded generator drives the whole
    stream, so a (population, duration, seed) triple is reproducible. The
    stream is produced block by block and never held in memory at once.
    """
    return requests_of(_synthetic_blocks(population, duration, seed))


def _block(times: Sequence[float], movies: Sequence[int], ads: Sequence[int]) -> Columns:
    return Columns(
        np.array(times, dtype=np.float64),
        np.array(movies, dtype=np.int64),
        np.array(ads, dtype=np.int64),
    )


_NO_REQUESTS = Columns(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def columns_of(blocks: Iterable[Columns]) -> Columns:
    """The blocks of a trace joined into one `Columns`; empty without blocks."""
    return Columns(*map(np.concatenate, zip(_NO_REQUESTS, *blocks)))


def requests_of(blocks: Iterable[Columns]) -> Iterator[tuple[float, tuple[int, int]]]:
    """The requests of a block stream as `(time, (movie, ad))` pairs, in trace order."""
    return chain.from_iterable(
        zip(times.tolist(), zip(movies.tolist(), ads.tolist())) for times, movies, ads in blocks
    )


def _data_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped content), skipping blanks and comments;
    the first line is number `start`."""
    for no, raw in enumerate(lines, start=start):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        yield no, text


def _parse_lines(
    lines: Iterable[str], start: int = 1, arity: "int | None" = None, prev: float = -1.0
) -> tuple[Columns, "int | None"]:
    """The request-trace line parser, which defines the format: every line
    split on commas and converted by `float` and `int`.

    Parses the lines as if they followed earlier lines of the same file:
    the first is line number `start`, `arity` is the field count the file
    started with (None before its first data line) and `prev` the last
    timestamp before them. Returns the requests as one `Columns` and the
    field count. Raises TraceFormatError with the offending line number.
    """
    times: list[float] = []
    movies: list[int] = []
    ads: list[int] = []
    for no, text in _data_lines(lines, start):
        fields = text.split(",")
        if len(fields) not in (2, 3):
            raise TraceFormatError(
                f"expected 2 or 3 comma separated fields, got {len(fields)}", no
            )
        if arity is None:
            arity = len(fields)
        elif len(fields) != arity:
            raise TraceFormatError(
                f"inconsistent field count: file started with {arity} fields", no
            )
        try:
            time = float(fields[0])
        except ValueError:
            raise TraceFormatError(f"bad timestamp {fields[0]!r}", no) from None
        if not (math.isfinite(time) and time >= 0.0):
            raise TraceFormatError(f"timestamp must be finite and >= 0, got {fields[0]!r}", no)
        if time < prev:
            raise TraceFormatError(
                f"timestamps must be nondecreasing ({time!r} after {prev!r})", no
            )
        prev = time
        try:
            movie = int(fields[1])
        except ValueError:
            raise TraceFormatError(f"bad movie id {fields[1]!r}", no) from None
        if not 1 <= movie <= MAX_ID:
            raise TraceFormatError(f"movie id must be in [1, 2**63 - 1], got {movie}", no)
        ad = -1
        if arity == 3:
            try:
                ad = int(fields[2])
            except ValueError:
                raise TraceFormatError(f"bad ad id {fields[2]!r}", no) from None
            if not 1 <= ad <= MAX_ID:
                raise TraceFormatError(f"ad id must be in [1, 2**63 - 1], got {ad}", no)
        times.append(time)
        movies.append(movie)
        ads.append(ad)
    return _block(times, movies, ads), arity


_ROW = {
    2: np.dtype([("t", "<f8"), ("m", "<i8")]),
    3: np.dtype([("t", "<f8"), ("m", "<i8"), ("a", "<i8")]),
}
_COMMENT_LINE = re.compile(r"^\s*#", re.MULTILINE)


def _columnar_chunk(chunk: list[str], arity: int, prev: float) -> "Columns | None":
    """The chunk's requests as `np.loadtxt` parses them with `arity` fields,
    or None where the line parser must decide: loadtxt fails, or a value
    fails a range or order check.

    loadtxt accepts no line that the line parser rejects, but for a `#`
    after data, which it strips as a comment. It rejects some lines the
    line parser accepts: whitespace-only or indented comment lines,
    underscores or non-ASCII digits in a number.
    """
    if arity not in _ROW:
        return None
    text = "\n".join(chunk)
    hashes = text.count("#")
    if hashes and hashes != len(_COMMENT_LINE.findall(text)):
        return None
    try:
        rows = np.loadtxt(chunk, dtype=_ROW[arity], delimiter=",", comments="#", ndmin=1)
    except ValueError:
        return None
    times = np.ascontiguousarray(rows["t"])
    movies = np.ascontiguousarray(rows["m"])
    ads = np.ascontiguousarray(rows["a"]) if arity == 3 else np.full(times.size, -1, np.int64)
    valid = (
        np.isfinite(times).all()
        and (times >= 0.0).all()
        and times[0] >= prev
        and (times[1:] >= times[:-1]).all()
        and (movies >= 1).all()
        and (arity == 2 or (ads >= 1).all())
    )
    return Columns(times, movies, ads) if valid else None


def parse_request_trace(lines: Iterable[str]) -> Iterator[Columns]:
    """Parse a request trace into blocks, one per `BLOCK_REQUESTS` lines,
    validating order and field ranges as it streams.

    The first data line fixes whether the file carries ad ids; a later line
    with the other arity is an error, and without them every ad is -1.
    Timestamps must be finite, >= 0 and nondecreasing. Raises
    TraceFormatError with the offending line number.

    `np.loadtxt` parses each chunk of lines and array tests check it. The
    line parser `_parse_lines` defines the format: it re-reads a chunk
    that loadtxt cannot parse or that fails a check, and raises the exact
    error or accepts what loadtxt cannot. Either way the requests are the
    same to the bit. A larger chunk is no faster and raises peak memory.
    """
    lines = iter(lines)
    arity: "int | None" = None
    prev = -1.0
    start = 1
    while chunk := list(islice(lines, BLOCK_REQUESTS)):
        first = next(_data_lines(chunk), None)
        if first is not None:
            fields = arity or first[1].count(",") + 1
            block = _columnar_chunk(chunk, fields, prev)
            if block is None:
                block, arity = _parse_lines(chunk, start, arity, prev)
            else:
                arity = fields
            prev = float(block.times[-1])
            yield block
        start += len(chunk)


@dataclass(frozen=True)
class CountTraceRecord:
    """Aggregate view count of one movie over an observation window."""

    movie: int
    upload_time: float
    total_views: int
    horizon: float

    def __post_init__(self) -> None:
        if not 1 <= self.movie <= MAX_ID:
            raise ValueError(f"movie id must be in [1, 2**63 - 1], got {self.movie}")
        if not 0 <= self.total_views <= MAX_ID:
            raise ValueError(f"total views must be in [0, 2**63 - 1], got {self.total_views}")
        upload = _check_real("upload_time", self.upload_time, 0)
        horizon = _check_real("horizon", self.horizon, upload, above=True)
        object.__setattr__(self, "upload_time", upload)
        object.__setattr__(self, "horizon", horizon)
        # Arrival times step by gaps of about this size; at or below the
        # spacing of floats near the horizon they stop advancing.
        if self.total_views:
            gap = (self.horizon - self.upload_time) / self.total_views
            if gap <= math.ulp(self.horizon):
                raise ValueError(
                    f"{self.total_views} views leave a mean gap of {gap!r} h, not above "
                    f"the float spacing {math.ulp(self.horizon)!r} h at the horizon"
                )

    @property
    def mean_rate(self) -> float:
        """Average request rate (1/h) over the observation window."""
        return self.total_views / (self.horizon - self.upload_time)


def parse_count_trace(lines: Iterable[str]) -> list[CountTraceRecord]:
    """Parse a count trace into records, reporting bad lines by number."""
    records = []
    for no, text in _data_lines(lines):
        fields = text.split(",")
        if len(fields) != 4:
            raise TraceFormatError(
                f"expected 4 comma separated fields, got {len(fields)}", no
            )
        try:
            movie = int(fields[0])
            upload = float(fields[1])
            views = int(fields[2])
            horizon = float(fields[3])
        except ValueError as err:
            raise TraceFormatError(f"bad field: {err}", no) from None
        try:
            records.append(
                CountTraceRecord(
                    movie=movie, upload_time=upload, total_views=views, horizon=horizon
                )
            )
        except ValueError as err:
            raise TraceFormatError(str(err), no) from None
    return records


def subsample_records(
    records: Sequence[CountTraceRecord], fraction: float, seed: int
) -> list[CountTraceRecord]:
    """Keep each record independently with the given probability.

    Deterministic for a fixed (records order, fraction, seed).
    """
    fraction = _check_real("fraction", fraction, 0, above=True, high=1)
    rng = np.random.default_rng(_check_int("seed", seed, 0))
    mask = rng.random(len(records)) < fraction
    return [rec for rec, keep in zip(records, mask) if keep]


def _record_times(record: CountTraceRecord, child_seed: np.random.SeedSequence) -> np.ndarray:
    """Arrival times of one record's Poisson process over [upload_time, horizon)."""
    if record.total_views == 0:
        return np.empty(0)
    rng = np.random.default_rng(child_seed)
    scale = 1.0 / record.mean_rate
    parts = []
    t = record.upload_time
    while True:
        # Summing from t rounds as a running `t += gap` does; t + cumsum does not.
        times = np.cumsum(np.append(t, rng.exponential(scale, BLOCK_REQUESTS)))[1:]
        if times[-1] >= record.horizon:
            parts.append(times[: np.searchsorted(times, record.horizon)])
            return np.concatenate(parts)
        parts.append(times)
        t = times[-1]


def synthesize_from_counts(records: Sequence[CountTraceRecord], seed: int) -> Iterator[Columns]:
    """Turn per-movie view counts into one merged Poisson request stream,
    in blocks of `BLOCK_REQUESTS`.

    Each record becomes a homogeneous Poisson process at its mean rate over
    [upload_time, horizon); the per-record streams are merged by a stable
    sort on time, so equal times keep record order. Ads are left
    unassigned (-1). Each record gets its own child seed, so the result is
    deterministic for a fixed record order and seed. The whole trace is
    drawn and sorted when the first block is asked for, once the summed
    views are known to be at most `MAX_ARRIVALS`.
    """
    seed = _check_int("seed", seed, 0)
    views = sum(rec.total_views for rec in records)
    if views > MAX_ARRIVALS:
        raise TraceFormatError(
            f"the count trace holds {views} views, above the limit of {MAX_ARRIVALS:g} arrivals"
        )
    children = np.random.SeedSequence(seed).spawn(len(records))
    per_record = [_record_times(rec, child) for rec, child in zip(records, children)]
    movies = np.array([rec.movie for rec in records], dtype=np.int64)
    movies = np.repeat(movies, [times.size for times in per_record])
    times = np.concatenate([np.empty(0), *per_record])
    order = np.argsort(times, kind="stable")
    times, movies = times[order], movies[order]
    ads = np.full(times.size, -1, dtype=np.int64)
    for start in range(0, times.size, BLOCK_REQUESTS):
        end = start + BLOCK_REQUESTS
        yield Columns(times[start:end], movies[start:end], ads[start:end])


def overlay_ads(blocks: Iterable[Columns], ads: ZipfLaw, seed: int) -> Iterator[Columns]:
    """Give every request an independently drawn ad rank, block by block.

    Each block's ad column is replaced by `ads.sample` of its length from
    one seeded generator, which draws one uniform per request in trace
    order; times and movie ids pass through untouched. Streaming and
    deterministic per (trace length, ads, seed).
    """
    rng = np.random.default_rng(_check_int("seed", seed, 0))
    for block in blocks:
        yield block._replace(ads=ads.sample(rng, block.times.size))
