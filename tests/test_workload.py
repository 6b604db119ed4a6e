"""Workload generation and trace parsing: statistics, formats, errors."""

import heapq
import math
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachecost.analytic import PopulationModel, ZipfLaw
from cachecost import workload
from cachecost.presets import default_population
from cachecost.workload import (
    BLOCK_REQUESTS,
    Columns,
    CountTraceRecord,
    TraceFormatError,
    _synthetic_blocks,
    columns_of,
    gen_synthetic,
    overlay_ads,
    parse_count_trace,
    parse_request_trace,
    requests_of,
    subsample_records,
    synthesize_from_counts,
)

# 0.999 quantiles of the chi-square law, frozen from an independent table
CHI2_999 = {50: 86.66081519040317, 100: 149.44925277903886}


def _chi2(observed, expected):
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(((observed - expected) ** 2 / expected).sum())


def _blocks(reqs):
    """`(time, (movie, ad))` pairs as `Columns` blocks of `BLOCK_REQUESTS`."""
    return [
        Columns(
            np.array([t for t, _ in chunk], dtype=np.float64),
            np.array([m for _, (m, _) in chunk], dtype=np.int64),
            np.array([a for _, (_, a) in chunk], dtype=np.int64),
        )
        for chunk in (reqs[i : i + BLOCK_REQUESTS] for i in range(0, len(reqs), BLOCK_REQUESTS))
    ]


def _rank_chi2(ranks, law, top, n):
    """Chi-square statistic over top ranks plus one remainder bucket."""
    counts = np.bincount(ranks, minlength=law.n + 1)
    p = law.probabilities[:top]
    observed = np.append(counts[1 : top + 1], n - counts[1 : top + 1].sum())
    expected = np.append(n * p, n * (1.0 - p.sum()))
    return _chi2(observed, expected)


# --- synthetic generation ---------------------------------------------------


def test_synthetic_count_within_poisson_band():
    pm = default_population(100.0)
    n = sum(1 for _ in gen_synthetic(pm, 1000.0, seed=42))
    assert abs(n - 100_000) < 3 * math.sqrt(100_000)


def test_synthetic_degenerate_catalog_is_single_item():
    pm = PopulationModel(ZipfLaw(1, 0.8), ZipfLaw(1, 0.94), 50.0)
    reqs = list(gen_synthetic(pm, 20.0, seed=1))
    assert reqs
    assert all(item == (1, 1) for _, item in reqs)


def test_synthetic_times_are_increasing_and_in_range():
    pm = default_population(200.0)
    times = [t for t, _ in gen_synthetic(pm, 50.0, seed=9)]
    assert all(0.0 <= t < 50.0 for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))


def test_synthetic_interarrival_mean():
    pm = default_population(100.0)
    times = np.array([t for t, _ in gen_synthetic(pm, 1200.0, seed=3)])
    gaps = np.diff(times)
    assert len(gaps) >= 100_000
    se = (1.0 / 100.0) / math.sqrt(len(gaps))
    assert abs(gaps.mean() - 1.0 / 100.0) < 3 * se


def test_synthetic_movie_ranks_follow_zipf():
    pm = default_population(100.0)
    ranks = np.array([movie for _, (movie, _) in gen_synthetic(pm, 2000.0, seed=17)])
    stat = _rank_chi2(ranks, pm.movies, top=100, n=len(ranks))
    assert stat < CHI2_999[100]


def test_synthetic_item_rates_thin_correctly():
    # top (movie, ad) cells of the joint law get their expected share
    pm = default_population(300.0)
    duration = 600.0
    counts = {}
    for _, item in gen_synthetic(pm, duration, seed=29):
        counts[item] = counts.get(item, 0) + 1
    for movie in (1, 2, 3, 4, 5):
        for ad in (1, 2):
            expected = pm.rates(movie, ad) * duration
            got = counts.get((movie, ad), 0)
            assert abs(got - expected) < 3 * math.sqrt(expected) + 1
    total = sum(counts.values())
    assert abs(total - 300.0 * duration) < 3 * math.sqrt(300.0 * duration)


def test_synthetic_is_deterministic():
    pm = default_population(50.0)
    a = list(gen_synthetic(pm, 100.0, seed=8))
    b = list(gen_synthetic(pm, 100.0, seed=8))
    c = list(gen_synthetic(pm, 100.0, seed=9))
    assert a == b
    assert a != c


def test_synthetic_longer_duration_extends_the_same_stream():
    # same seed and rate: the short run is a prefix of the long run, which
    # is what makes sweep comparisons paired
    pm = default_population(50.0)
    short = list(gen_synthetic(pm, 100.0, seed=4))
    long = list(gen_synthetic(pm, 200.0, seed=4))
    assert long[: len(short)] == short
    assert len(long) > len(short)


def test_synthetic_rejects_bad_arguments():
    pm = default_population(10.0)
    with pytest.raises(ValueError):
        list(gen_synthetic(pm, 0.0, seed=1))
    with pytest.raises(ValueError):
        list(gen_synthetic(pm, math.inf, seed=1))
    with pytest.raises(ValueError):
        list(gen_synthetic(pm, 10.0, seed=-1))
    with pytest.raises(ValueError):
        list(gen_synthetic(pm, 10.0, seed=True))


@pytest.mark.parametrize(
    "duration,block_size",
    [(20.3, 8192), (20.3, 7), (20.3, 1), (600.0, 8192), (0.001, 8192)],
)
def test_synthetic_columns_equal_the_request_stream(duration, block_size, monkeypatch):
    # At 50 requests/h, 20.3 h cuts inside the first 8192-arrival block, and
    # after many blocks of 7 or 1; 600 h cuts after three 8192-arrival
    # blocks; 0.001 h draws no request at all
    monkeypatch.setattr(workload, "_SYNTHETIC_BLOCK", block_size)
    pm = PopulationModel(ZipfLaw(30, 0.8), ZipfLaw(4, 0.9), 50.0)
    cols = columns_of(_synthetic_blocks(pm, duration, 3))
    assert (cols.times.dtype, cols.movies.dtype, cols.ads.dtype) == (
        np.float64,
        np.int64,
        np.int64,
    )
    rebuilt = [
        (t, (m, a))
        for t, m, a in zip(cols.times.tolist(), cols.movies.tolist(), cols.ads.tolist())
    ]
    assert rebuilt == list(requests_of(_synthetic_blocks(pm, duration, 3)))


def test_collect_columns_stores_an_unset_ad_as_minus_one():
    cols = columns_of(_blocks([(0.5, (4, -1)), (2.0, (5, 3))]))
    assert cols.times.tolist() == [0.5, 2.0]
    assert cols.movies.tolist() == [4, 5]
    assert cols.ads.tolist() == [-1, 3]
    empty = columns_of(_blocks([]))
    assert [c.dtype for c in empty] == [np.float64, np.int64, np.int64]
    assert empty.times.size == 0


# --- request trace parsing --------------------------------------------------


def _parse(lines):
    return list(requests_of(parse_request_trace(lines)))


def test_parse_empty_input_yields_nothing():
    assert list(parse_request_trace([])) == []
    assert list(parse_request_trace(["# only a comment", "", "   "])) == []


def test_parse_three_column_lines():
    reqs = _parse(["0.0,17,3", "1.5,17,3"])
    assert reqs == [(0.0, (17, 3)), (1.5, (17, 3))]


def test_parse_two_column_lines_leave_ad_unset():
    reqs = _parse(["0.25,4", "0.5,9"])
    assert reqs == [(0.25, (4, -1)), (0.5, (9, -1))]


def test_parse_skips_comments_and_blanks_keeping_line_numbers():
    lines = ["# header", "", "1.0,2,3", "bad line"]
    with pytest.raises(TraceFormatError) as err:
        list(parse_request_trace(lines))
    assert err.value.line_no == 4


def test_parse_timestamp_regression_reports_line():
    with pytest.raises(TraceFormatError) as err:
        list(parse_request_trace(["2.0,1,1", "1.0,1,1"]))
    assert err.value.line_no == 2
    assert "nondecreasing" in str(err.value)


def test_parse_equal_timestamps_allowed_in_file_order():
    reqs = _parse(["5.0,1,1", "5.0,2,2"])
    assert [movie for _, (movie, _) in reqs] == [1, 2]


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("-1.0,1,1", "timestamp"),
        ("nan,1,1", "timestamp"),
        ("inf,1,1", "timestamp"),
        ("abc,1,1", "timestamp"),
        ("1.0,0,1", "movie"),
        ("1.0,x,1", "movie"),
        ("1.0,1,0", "ad"),
        ("1.0,1,y", "ad"),
        ("1.0,9223372036854775808,1", "movie"),
        ("1.0,1,9223372036854775808", "ad"),
        ("1.0", "fields"),
        ("1.0,1,1,9", "fields"),
    ],
)
def test_parse_rejects_malformed_lines(line, fragment):
    with pytest.raises(TraceFormatError) as err:
        list(parse_request_trace([line]))
    assert err.value.line_no == 1
    assert fragment in str(err.value)


def test_parse_accepts_the_largest_int64_ids():
    top = 2**63 - 1
    assert _parse([f"1.0,{top},{top}"]) == [(1.0, (top, top))]


def test_parse_rejects_mixed_arity():
    with pytest.raises(TraceFormatError) as err:
        list(parse_request_trace(["1.0,1,1", "2.0,2"]))
    assert err.value.line_no == 2
    assert "field count" in str(err.value)


def test_trace_format_error_is_a_value_error():
    assert issubclass(TraceFormatError, ValueError)


# Number texts that the checks reject, and spellings that only one of
# loadtxt and the line parser reads.
_BAD_TIMES = ["inf", "nan", "-inf", "1e400", "-1.5", "-0.5", "infinity", "1.7976931348623159e308"]
_ODD_TIMES = [
    "-0.0", "+7", "00007", "1_0.5", "١.5", "٣", "abc", "", "0x10", "1e-400", "+ 1", "1.5.5",
    "4.9e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
]
_BAD_IDS = ["0", "-1", "-0", str(2**63), "1" * 30]
_ODD_IDS = [
    "+7", "00007", "7.0", "7e0", str(2**63 - 1), "7_0", "٣", "x", "", " 7 ", "\xa07", "\x0c7",
    "7\xa0", "+ 7",
]
_PADS = st.sampled_from(["", "", "", "", " ", "\t", "\xa0", "\x0c"])
# loadtxt skips the first three but stops at the others.
_NON_DATA = ["", "# c", "#"] * 3 + ["   ", "\t", "\x0c", "\xa0", "  # indented", "#x#y"]
# Decimal texts, with exponents down to subnormal and underflowing values.
_DECIMALS = st.from_regex(r"\A[0-9]{1,19}(\.[0-9]{0,19})?([eE](-[0-9]{1,3}|\+?[0-9]{1,2}))?\Z")


@st.composite
def _request_trace_lines(draw):
    """A request trace as text lines: well formed, in order and of one
    arity, with padding and comments, but for one or two defects: a bad or
    oddly spelt number, a regression, a trailing comment, another arity."""
    times = draw(st.lists(st.one_of(_DECIMALS, st.floats(0, 1e6).map(repr)), max_size=20))
    times += times[: draw(st.integers(0, 5))]  # ties
    times.sort(key=float)
    arity = draw(st.sampled_from([2, 3]))
    ids = st.one_of(st.integers(1, 9).map(str), st.integers(1, 2**63 - 1).map(str))
    at = st.integers(0, max(len(times) - 1, 0))
    defects = dict(draw(st.lists(st.tuples(at, st.integers(0, 6)), min_size=1, max_size=2)))
    lines = []
    for no, time in enumerate(times):
        while draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(_NON_DATA)) + draw(st.sampled_from(["", "\n", "\r\n"])))
        defect = defects.get(no)
        if defect == 0:
            time = draw(st.sampled_from(_BAD_TIMES + _ODD_TIMES))
        elif defect == 1:
            time = repr(float(time) / 2)  # a regression, unless time is 0
        fields = [time, draw(ids), draw(ids)][: draw(st.integers(1, 4)) if defect == 2 else arity]
        if defect == 3:
            fields[-1] = draw(st.sampled_from(_BAD_IDS))
        if defect == 4:
            fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(_ODD_IDS))
        if defect == 5:
            fields[0] = draw(st.sampled_from(_BAD_TIMES))
        if draw(st.integers(0, 5)) == 0:
            fields = [draw(_PADS) + field + draw(_PADS) for field in fields]
        line = draw(_PADS) + ",".join(fields) + draw(_PADS)
        if defect == 6:
            line += " # c"
        lines.append(line + draw(st.sampled_from(["", "\n", "\n", "\r\n"])))
    return lines


def _outcome(parse, lines):
    """The parsed columns as (dtype, bytes) pairs, or the error's text and line."""
    try:
        cols = parse(lines)
    except TraceFormatError as err:
        return str(err), err.line_no
    return [(column.dtype.str, column.tobytes()) for column in cols]


@settings(max_examples=300, deadline=None)
@given(_request_trace_lines(), st.sampled_from([1, 2, 3, 5, BLOCK_REQUESTS]))
@example(["0.5,1", "0.25,2"], 2)  # a regression inside a chunk
@example(["0.5,1", "0.5,2", "0.5,3", "0.25,4"], 3)  # and just past a chunk edge
@example(["-0.5,1"], 2)
@example(["0.5,1", "# c", "0.5,3,4"], 2)  # the arity changes at a chunk edge
@example(["1_0.5,7", "11.5,7_0", "12.5,٣", "13.5,7 # c"], 2)
@example(["0.5,1,1", "0.5,2,0"], 2)  # ad ids below 1
@example(["0.5,1,-1"], 2)
@example(["-0.0,1\r\n", "0.0,2\r\n", "\x0c1.5\xa0,00007\n", "2,+7"], 2)
def test_columnar_parse_equals_the_line_parser(lines, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workload, "BLOCK_REQUESTS", chunk)
        fast = _outcome(lambda ls: columns_of(parse_request_trace(ls)), lines)
    assert fast == _outcome(lambda ls: workload._parse_lines(ls)[0], lines)


def test_well_formed_trace_is_parsed_without_the_line_parser(monkeypatch):
    def unused(*args):
        raise AssertionError("the line parser re-read a well-formed chunk")

    monkeypatch.setattr(workload, "_parse_lines", unused)
    lines = ["# time,movie,ad\n"] + [f"{i / 4!r},{i % 7 + 1},{i % 3 + 1}\n" for i in range(9000)]
    cols = columns_of(parse_request_trace(lines))
    assert cols.times.size == 9000 and cols.ads[:3].tolist() == [1, 2, 3]
    cols = columns_of(parse_request_trace(line.rsplit(",", 1)[0] for line in lines[1:]))
    assert cols.movies.size == 9000 and (cols.ads == -1).all()


# --- count traces -----------------------------------------------------------


def test_parse_count_trace_basic():
    recs = parse_count_trace(["# movies", "7,0.0,120,48.0", "9,24.0,0,48.0"])
    assert recs == [
        CountTraceRecord(movie=7, upload_time=0.0, total_views=120, horizon=48.0),
        CountTraceRecord(movie=9, upload_time=24.0, total_views=0, horizon=48.0),
    ]
    assert recs[0].mean_rate == pytest.approx(2.5)


@pytest.mark.parametrize(
    "line",
    [
        "7,0.0,120",          # arity
        "7,0.0,120,48.0,9",   # arity
        "0,0.0,120,48.0",     # movie id
        "9223372036854775808,0.0,120,48.0",  # movie id past int64
        "7,0.0,-3,48.0",      # negative views
        "7,10.0,5,10.0",      # zero-length window
        "7,10.0,5,9.0",       # horizon before upload
        "7,-1.0,5,9.0",       # negative upload
        "7,a,5,9.0",          # bad number
        "7,0.0,5,inf",        # infinite horizon
        "7,0.0," + "9" * 400 + ",48.0",  # views past int64
        "7,1000000.0,1000000000000000000,1000001.0",  # mean gap below float spacing
    ],
)
def test_parse_count_trace_rejects_bad_records(line):
    with pytest.raises(TraceFormatError) as err:
        parse_count_trace([line])
    assert err.value.line_no == 1


def _synthesize(records, seed):
    return list(requests_of(synthesize_from_counts(records, seed)))


def test_count_trace_record_stores_float_text_as_floats():
    record = CountTraceRecord(1, "1.5", 3, "10")
    assert record == CountTraceRecord(1, 1.5, 3, 10.0)
    assert type(record.upload_time) is float and type(record.horizon) is float


def test_zero_view_record_contributes_nothing():
    recs = [CountTraceRecord(movie=1, upload_time=0.0, total_views=0, horizon=100.0)]
    assert list(synthesize_from_counts(recs, seed=5)) == []


def test_synthesis_count_matches_poisson_band():
    recs = [CountTraceRecord(movie=3, upload_time=10.0, total_views=4000, horizon=210.0)]
    reqs = _synthesize(recs, seed=11)
    assert abs(len(reqs) - 4000) < 3 * math.sqrt(4000)
    assert all(10.0 <= t < 210.0 for t, _ in reqs)
    assert all(item == (3, -1) for _, item in reqs)


def test_synthesis_merges_disjoint_windows_in_order():
    recs = [
        CountTraceRecord(movie=1, upload_time=100.0, total_views=200, horizon=150.0),
        CountTraceRecord(movie=2, upload_time=0.0, total_views=200, horizon=50.0),
    ]
    reqs = _synthesize(recs, seed=2)
    times = [t for t, _ in reqs]
    assert times == sorted(times)
    switch = next(i for i, (_, (movie, _)) in enumerate(reqs) if movie == 1)
    assert all(movie == 2 for _, (movie, _) in reqs[:switch])


def test_synthesis_interleaves_overlapping_windows_in_order():
    recs = [
        CountTraceRecord(movie=m, upload_time=0.0, total_views=500, horizon=100.0)
        for m in (1, 2, 3)
    ]
    reqs = _synthesize(recs, seed=7)
    times = [t for t, _ in reqs]
    assert times == sorted(times)
    assert {movie for _, (movie, _) in reqs} == {1, 2, 3}


def test_synthesis_is_deterministic_and_seed_sensitive():
    recs = parse_count_trace(["1,0.0,300,100.0", "2,5.0,200,80.0"])
    a = _synthesize(recs, seed=13)
    b = _synthesize(recs, seed=13)
    c = _synthesize(recs, seed=14)
    assert a == b
    assert a != c


def _reference_arrivals(record, child_seed):
    """One record's arrivals drawn one at a time, each gap added to a
    running time: the sequential form the array draws must reproduce."""
    if record.total_views == 0:
        return
    rng = np.random.default_rng(child_seed)
    scale = 1.0 / record.mean_rate
    t = record.upload_time
    while True:
        t += rng.exponential(scale)
        if t >= record.horizon:
            return
        yield t, record.movie


def _reference_synthesis(records, seed):
    """Per-record arrival generators merged by time, ties in record order."""
    children = np.random.SeedSequence(seed).spawn(len(records))
    streams = [_reference_arrivals(rec, child) for rec, child in zip(records, children)]
    merged = list(heapq.merge(*streams, key=itemgetter(0)))
    times = np.array([t for t, _ in merged], dtype=np.float64)
    movies = np.array([movie for _, movie in merged], dtype=np.int64)
    return times, movies


def _assert_synthesis_equals_the_reference(records, seed):
    blocks = list(synthesize_from_counts(records, seed))
    assert all(block.times.size == BLOCK_REQUESTS for block in blocks[:-1])
    assert all(block.times.size > 0 for block in blocks)
    cols = columns_of(blocks)
    assert [c.dtype for c in cols] == [np.float64, np.int64, np.int64]
    times, movies = _reference_synthesis(records, seed)
    assert np.array_equal(cols.times, times)
    assert np.array_equal(cols.movies, movies)
    assert np.all(cols.ads == -1)


@st.composite
def _count_records(draw):
    """A few windows and movie ids shared among up to eight records, some
    with no views, optionally subsampled; and the synthesis seed."""
    windows = draw(
        st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(1e-3, 1e3)), min_size=1, max_size=3)
    )
    movies = draw(st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=3))
    records = draw(
        st.lists(
            st.builds(
                lambda window, movie, views: CountTraceRecord(
                    movie=movie,
                    upload_time=window[0],
                    total_views=views,
                    horizon=window[0] + window[1],
                ),
                st.sampled_from(windows),
                st.sampled_from(movies),
                st.integers(0, 300),
            ),
            max_size=8,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        records = subsample_records(records, 0.5, seed)
    return records, seed


@settings(max_examples=200, deadline=None)
@given(_count_records())
def test_synthesis_equals_per_arrival_draws_merged_by_time(case):
    _assert_synthesis_equals_the_reference(*case)


@pytest.mark.parametrize("seed", range(20))
def test_synthesis_keeps_record_order_among_equal_times(seed):
    # near 2**52 the float spacing is 1 h, so many arrivals share a time
    recs = [
        CountTraceRecord(movie=m, upload_time=2.0**52, total_views=32, horizon=2.0**52 + 64)
        for m in (1, 2, 3)
    ]
    times, _ = _reference_synthesis(recs, seed)
    assert (np.diff(times) == 0).sum() > 10
    _assert_synthesis_equals_the_reference(recs, seed)


def test_synthesis_of_a_record_longer_than_one_draw_block():
    recs = [
        CountTraceRecord(movie=4, upload_time=3.0, total_views=3 * BLOCK_REQUESTS, horizon=50.0),
        CountTraceRecord(movie=9, upload_time=0.0, total_views=100, horizon=20.0),
    ]
    assert len(_reference_synthesis(recs, 8)[0]) > 2 * BLOCK_REQUESTS
    _assert_synthesis_equals_the_reference(recs, 8)


def test_subsample_keeps_expected_fraction():
    recs = [
        CountTraceRecord(movie=m, upload_time=0.0, total_views=5, horizon=10.0)
        for m in range(1, 4001)
    ]
    kept = subsample_records(recs, 0.1, seed=21)
    assert abs(len(kept) - 400) < 3 * math.sqrt(4000 * 0.1 * 0.9)
    assert kept == subsample_records(recs, 0.1, seed=21)
    assert set(kept) <= set(recs)
    assert subsample_records(recs, 1.0, seed=1) == recs


def test_subsample_rejects_bad_fraction():
    with pytest.raises(ValueError):
        subsample_records([], 0.0, seed=1)
    with pytest.raises(ValueError):
        subsample_records([], 1.5, seed=1)


# --- ad overlay -------------------------------------------------------------


def _overlay(reqs, law, seed):
    return list(requests_of(overlay_ads(_blocks(reqs), law, seed)))


def test_overlay_preserves_length_times_and_movies():
    pm = default_population(80.0)
    base = list(gen_synthetic(pm, 50.0, seed=31))
    stripped = [(t, (movie, -1)) for t, (movie, _) in base]
    dressed = _overlay(stripped, ZipfLaw(5000, 0.94), 6)
    assert len(dressed) == len(stripped)
    assert [t for t, _ in dressed] == [t for t, _ in stripped]
    assert [movie for _, (movie, _) in dressed] == [movie for _, (movie, _) in stripped]
    assert all(1 <= ad <= 5000 for _, (_, ad) in dressed)


def test_overlay_single_ad_catalog():
    reqs = [(float(i), (1, -1)) for i in range(10)]
    dressed = _overlay(reqs, ZipfLaw(1, 0.94), 0)
    assert all(ad == 1 for _, (_, ad) in dressed)


def test_overlay_replaces_existing_ads():
    reqs = [(0.0, (1, 77))] * 2000
    dressed = _overlay(reqs, ZipfLaw(3, 0.0), 12)
    seen = {ad for _, (_, ad) in dressed}
    assert seen == {1, 2, 3}


def test_overlay_ad_ranks_follow_zipf():
    reqs = [(float(i), (1, -1)) for i in range(100_000)]
    law = ZipfLaw(5000, 0.94)
    ranks = np.array([ad for _, (_, ad) in _overlay(reqs, law, 44)])
    stat = _rank_chi2(ranks, law, top=50, n=len(ranks))
    assert stat < CHI2_999[50]


def test_overlay_is_deterministic():
    reqs = [(float(i), (i + 1, -1)) for i in range(5000)]
    law = ZipfLaw(100, 0.91)
    a = _overlay(reqs, law, 3)
    b = _overlay(reqs, law, 3)
    c = _overlay(reqs, law, 4)
    assert a == b
    assert a != c


def test_overlay_empty_stream():
    assert _overlay([], ZipfLaw(10, 0.5), 1) == []
