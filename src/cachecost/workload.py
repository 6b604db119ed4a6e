"""Trace generation and trace file parsing.

A trace is time-ordered, with timestamps in hours from an arbitrary zero.
Every producer streams it as `Columns` blocks: parallel arrays of times,
movie ids and ad ids, with an unassigned ad stored as -1. `columns_of`
joins the blocks for vectorized pricing. One request on its own is a plain
pair `(time, (movie, ad))`: `requests_of` turns blocks into such pairs for
the event engine. Only the count-trace synthesizer, which sorts all its
arrivals at once, and a caller that joins or lists the blocks hold a whole
trace.

Two text formats are supported, both UTF-8, comma separated, with `#`
comment lines and `.` as the decimal point:

request trace    time_hours,movie_id[,ad_id]
count trace      movie_id,upload_time_hours,total_views,horizon_hours

A request trace either carries an ad id on every line or on none; in the
latter case ads are meant to be drawn afterwards with `overlay_ads`.
Movie and ad ids are integers from 1 to 2**63 - 1, so every trace fits
the int64 `Columns` form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
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


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped content), skipping blanks and comments."""
    for no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        yield no, text


def parse_request_trace(lines: Iterable[str]) -> Iterator[Columns]:
    """Parse a request trace into blocks of `BLOCK_REQUESTS`, validating
    order and field ranges as it streams.

    The first data line fixes whether the file carries ad ids; a later line
    with the other arity is an error, and without them every ad is -1.
    Timestamps must be finite, >= 0 and nondecreasing. Raises
    TraceFormatError with the offending line number.
    """
    arity: "int | None" = None
    prev = -1.0
    times: list[float] = []
    movies: list[int] = []
    ads: list[int] = []
    for no, text in _data_lines(lines):
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
        if len(times) == BLOCK_REQUESTS:
            yield _block(times, movies, ads)
            times, movies, ads = [], [], []
    if times:
        yield _block(times, movies, ads)


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
    drawn and sorted when the first block is asked for.
    """
    seed = _check_int("seed", seed, 0)
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
