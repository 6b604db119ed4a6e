"""Request stream generation and trace file parsing.

A workload is an iterator of time-ordered `Request` values. Streams are
lazy: synthetic generators never materialize the full trace, and parsers
yield as they read. Timestamps are hours from an arbitrary zero. For
vectorized pricing a whole trace can also be held as `Columns`:
`synthetic_columns` draws it directly, `collect_columns` reads any stream.

Two text formats are supported, both UTF-8, comma separated, with `#`
comment lines and `.` as the decimal point:

request trace    time_hours,movie_id[,ad_id]
count trace      movie_id,upload_time_hours,total_views,horizon_hours

A request trace either carries an ad id on every line or on none; in the
latter case ads are meant to be drawn afterwards with `overlay_ads`.
Movie and ad ids are integers from 1 to 2**63 - 1, so every trace also
fits the int64 `Columns` form that the vectorized pricing reads.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .analytic import PopulationModel, ZipfLaw

__all__ = [
    "Columns",
    "CountTraceRecord",
    "ItemId",
    "Request",
    "TraceFormatError",
    "collect_columns",
    "gen_synthetic",
    "overlay_ads",
    "parse_count_trace",
    "parse_request_trace",
    "subsample_records",
    "synthesize_from_counts",
    "synthetic_columns",
]


MAX_ID = 2**63 - 1  # largest movie or ad id: the int64 maximum


class ItemId(NamedTuple):
    """Identity of a cacheable item. `ad` is None until an ad is assigned."""

    movie: int
    ad: "int | None" = None


class Request(NamedTuple):
    time: float
    item: ItemId


class Columns(NamedTuple):
    """A time-ordered trace as parallel arrays: float64 times, int64 ids.

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


def _validate_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


def _synthetic_blocks(
    population: PopulationModel, duration: float, seed: int, block_size: int
) -> Iterator[Columns]:
    """The draws behind `gen_synthetic`, block by block, cut at `duration`.

    Each block holds `block_size` arrivals; the last one ends just before
    the first arrival at or after `duration`.
    """
    duration = float(duration)
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    seed = _validate_seed(seed)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    rng = np.random.default_rng(seed)
    scale = 1.0 / population.lambda_global
    movie_cdf = population.movies.cumulative
    ad_cdf = population.ads.cumulative
    t = 0.0
    while True:
        times = t + np.cumsum(rng.exponential(scale, block_size))
        movies = np.searchsorted(movie_cdf, rng.random(block_size), side="right") + 1
        ads = np.searchsorted(ad_cdf, rng.random(block_size), side="right") + 1
        if times[-1] >= duration:
            cut = int(np.searchsorted(times, duration, side="left"))
            yield Columns(times[:cut], movies[:cut], ads[:cut])
            return
        yield Columns(times, movies, ads)
        t = float(times[-1])


def gen_synthetic(
    population: PopulationModel,
    duration: float,
    seed: int,
    *,
    block_size: int = 8192,
) -> Iterator[Request]:
    """Poisson arrivals over [0, duration) with population-drawn items.

    Interarrival gaps are exponential at the global rate; each arrival is
    an independent (movie, ad) draw. One seeded generator drives the whole
    stream, so a (population, duration, seed) triple is reproducible. The
    stream is produced block by block and never held in memory at once.
    """
    for times, movies, ads in _synthetic_blocks(population, duration, seed, block_size):
        for time, movie, ad in zip(times.tolist(), movies.tolist(), ads.tolist()):
            yield Request(time, ItemId(movie, ad))


def synthetic_columns(
    population: PopulationModel,
    duration: float,
    seed: int,
    *,
    block_size: int = 8192,
) -> Columns:
    """The trace of `gen_synthetic` with the same arguments, as columns."""
    blocks = list(_synthetic_blocks(population, duration, seed, block_size))
    return Columns(*(np.concatenate(column) for column in zip(*blocks)))


def collect_columns(requests: Iterable[Request]) -> Columns:
    """Read a request stream once into columns; an unset ad becomes -1."""
    times, movies, ads = array("d"), array("q"), array("q")
    for time, (movie, ad) in requests:
        times.append(time)
        movies.append(movie)
        ads.append(-1 if ad is None else ad)
    return Columns(
        np.frombuffer(times, dtype=np.float64),
        np.frombuffer(movies, dtype=np.int64),
        np.frombuffer(ads, dtype=np.int64),
    )


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped content), skipping blanks and comments."""
    for no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        yield no, text


def parse_request_trace(lines: Iterable[str]) -> Iterator[Request]:
    """Parse a request trace, validating order and field ranges as it streams.

    The first data line fixes whether the file carries ad ids; a later line
    with the other arity is an error. Timestamps must be finite, >= 0 and
    nondecreasing. Raises TraceFormatError with the offending line number.
    """
    arity: "int | None" = None
    prev = -1.0
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
        ad: "int | None" = None
        if arity == 3:
            try:
                ad = int(fields[2])
            except ValueError:
                raise TraceFormatError(f"bad ad id {fields[2]!r}", no) from None
            if not 1 <= ad <= MAX_ID:
                raise TraceFormatError(f"ad id must be in [1, 2**63 - 1], got {ad}", no)
        yield Request(time, ItemId(movie, ad))


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
        if self.total_views < 0:
            raise ValueError(f"total views must be >= 0, got {self.total_views}")
        if not self.upload_time >= 0.0:
            raise ValueError(f"upload time must be >= 0, got {self.upload_time}")
        if not self.horizon > self.upload_time:
            raise ValueError(
                f"horizon must exceed upload time, got {self.horizon} <= {self.upload_time}"
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
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(_validate_seed(seed))
    mask = rng.random(len(records)) < fraction
    return [rec for rec, keep in zip(records, mask) if keep]


def _record_arrivals(
    record: CountTraceRecord, child_seed: np.random.SeedSequence
) -> Iterator[Request]:
    if record.total_views == 0:
        return
    rng = np.random.default_rng(child_seed)
    scale = 1.0 / record.mean_rate
    item = ItemId(record.movie, None)
    t = record.upload_time
    while True:
        t += rng.exponential(scale)
        if t >= record.horizon:
            return
        yield Request(t, item)


def synthesize_from_counts(
    records: Sequence[CountTraceRecord], seed: int
) -> Iterator[Request]:
    """Turn per-movie view counts into one merged Poisson request stream.

    Each record becomes a homogeneous Poisson process at its mean rate over
    [upload_time, horizon); the per-record streams are merged in time
    order. Ads are left unassigned. Each record gets its own child seed, so
    the result is deterministic for a fixed record order and seed.
    """
    seed = _validate_seed(seed)
    children = np.random.SeedSequence(seed).spawn(len(records))
    streams = [_record_arrivals(rec, child) for rec, child in zip(records, children)]
    return heapq.merge(*streams, key=lambda req: req.time)


def overlay_ads(
    requests: Iterable[Request], ads: ZipfLaw, seed: int, *, block_size: int = 4096
) -> Iterator[Request]:
    """Assign every request an independently drawn ad rank.

    Any ad already present is replaced; movie ids and times pass through
    untouched. Streaming and deterministic per (stream, ads, seed).
    """
    seed = _validate_seed(seed)
    rng = np.random.default_rng(seed)
    buffer: list[Request] = []
    it = iter(requests)
    while True:
        buffer.clear()
        for req in it:
            buffer.append(req)
            if len(buffer) == block_size:
                break
        if not buffer:
            return
        ranks = ads.sample(rng, len(buffer))
        for req, ad in zip(buffer, ranks.tolist()):
            yield Request(req.time, ItemId(req.item.movie, ad))
