"""Command-line behaviour: exit codes, output routing, seed overrides."""

import csv
import io
import subprocess
import sys
from pathlib import Path

import pytest

from cachecost import analytic, experiments
from cachecost.analytic import MAX_MC_SAMPLES
from cachecost.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_TRACE, main
from cachecost.engine import InvariantViolation
from cachecost.experiments import ANALYTIC_COLUMNS, CSV_COLUMNS, VALIDATION_COLUMNS
from cachecost.workload import BLOCK_REQUESTS

CONFIG = """
[costs]
storage_per_item_hour = 4.86e-7
compute_per_item = 7.2e-4
transmission_per_item = 5.25e-4

[population]
movies = 40
movie_exponent = 0.8
ads = 5
ad_exponent = 0.9
lambda = 30.0

[policy]
kind = global_ttl
ttl = 60.0

[workload]
source = synthetic
duration = 20.0

[run]
seeds = 1,2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return str(path)


def _rows(captured: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(captured)))


def test_run_writes_csv_to_stdout(config_file, capsys):
    assert main(["run", "--config", config_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    rows = _rows(out)
    assert [r["seed"] for r in rows] == ["1", "2", "mean"]


def test_run_out_file_matches_stdout(config_file, capsys, tmp_path):
    assert main(["run", "--config", config_file]) == EXIT_OK
    stdout_csv = capsys.readouterr().out
    out_path = tmp_path / "result.csv"
    assert main(["run", "--config", config_file, "--out", str(out_path)]) == EXIT_OK
    assert out_path.read_text(encoding="utf-8") == stdout_csv


def test_run_seed_override(config_file, capsys):
    assert main(["run", "--config", config_file, "--seed", "7", "--seed", "8"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert [r["seed"] for r in rows] == ["7", "8", "mean"]


def test_run_negative_seed_is_config_error(config_file, capsys):
    assert main(["run", "--config", config_file, "--seed", "-1"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_sweep_reports_argmin(config_file, capsys):
    code = main(["sweep", "--config", config_file, "--ttl-grid", "0,60,600"])
    assert code == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert rows[-1]["seed"] == "argmin"
    means = [r for r in rows if r["seed"] == "mean"]
    assert [float(r["param_value"]) for r in means] == [0.0, 60.0, 600.0]


def test_sweep_capacity_grid_parses_integers(config_file, tmp_path, capsys):
    lru_cfg = tmp_path / "lru.ini"
    lru_cfg.write_text(CONFIG.replace("kind = global_ttl\nttl = 60.0", "kind = lru\ncapacity = 4"))
    code = main(["sweep", "--config", str(lru_cfg), "--capacity-grid", "2,8"])
    assert code == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert [r["param_value"] for r in rows if r["seed"] == "mean"] == ["2", "8"]


def test_sweep_requires_exactly_one_grid(config_file):
    with pytest.raises(SystemExit):
        main(["sweep", "--config", config_file])
    with pytest.raises(SystemExit):
        main([
            "sweep", "--config", config_file,
            "--ttl-grid", "0", "--capacity-grid", "1",
        ])


def test_sweep_bad_grid_value_is_config_error(config_file, capsys):
    assert main(["sweep", "--config", config_file, "--ttl-grid", "0,fast"]) == EXIT_CONFIG
    assert "bad grid value" in capsys.readouterr().err


def test_sweep_mismatched_axis_is_config_error(config_file, capsys):
    assert main(["sweep", "--config", config_file, "--capacity-grid", "4"]) == EXIT_CONFIG


def test_analytic_table_csv(config_file, capsys):
    code = main(["analytic", "--config", config_file, "--ttl-grid", "0,60"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(ANALYTIC_COLUMNS)
    rows = _rows(out)
    assert rows[0]["evaluator"] == "global_ttl"
    assert rows[-1]["evaluator"] == "lower_bound"


@pytest.mark.parametrize("grid", ["--ttl-grid=0,fast", "--ttl-grid=-5", "--lambda-grid=0"])
def test_analytic_bad_grid_value_is_config_error(config_file, capsys, grid):
    assert main(["analytic", "--config", config_file, grid]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad grid value")
    assert err.count("\n") == 1


def _count_draws(monkeypatch) -> list:
    """Calls of `analytic.sample_item_rates`, one entry per Monte Carlo draw."""
    calls = []
    draw = analytic.sample_item_rates

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(analytic, "sample_item_rates", counted)
    return calls


@pytest.mark.parametrize("extra, draws", [([], 1), (["--lambda-grid", "10,100,1000"], 4)])
def test_analytic_draws_once_per_table_and_once_per_rate(monkeypatch, capsys, extra, draws):
    calls = _count_draws(monkeypatch)
    smoke = str(CONFIGS / "smoke_analytic.ini")
    assert main(["analytic", "--config", smoke, "--ttl-grid", "0,60,120", *extra]) == EXIT_OK
    assert len(calls) == draws


@pytest.mark.filterwarnings("error")
def test_analytic_at_an_overflowing_rate_warns_nothing(capfd):
    smoke = str(CONFIGS / "smoke_analytic.ini")
    assert main(["analytic", "--config", smoke, "--lambda-grid", "100,1e308"]) == EXIT_OK
    out, err = capfd.readouterr()
    assert err == ""
    assert out == (
        "evaluator,param_name,param_value,ttl,cost_per_request\n"
        "individual_ttl,,,,0.0011370602833700916\n"
        "lower_bound,,,,0.0010968056885254827\n"
        "optimal_global_ttl,lambda,100.0,60.0,0.0012169282751140823\n"
        "optimal_global_ttl,lambda,1e+308,30.0,0.000525\n"
    )


@pytest.mark.filterwarnings("error")
def test_analytic_at_an_underflowing_rate_prices_the_limit(tmp_path, capfd):
    # at lambda = 5e-324 every item rate is 0: a ttl costs C + S * ttl, the
    # ideal and the floor cost C, a ttl of inf never expires
    cfg = tmp_path / "tiny.ini"
    cfg.write_text((CONFIGS / "smoke_analytic.ini").read_text().replace("lambda = 100.0", "lambda = 5e-324"))
    assert main(["analytic", "--config", str(cfg), "--ttl-grid", "0,60,inf"]) == EXIT_OK
    out, err = capfd.readouterr()
    assert err == ""
    assert out == (
        "evaluator,param_name,param_value,ttl,cost_per_request\n"
        "global_ttl,ttl,0.0,0.0,0.001245\n"
        "global_ttl,ttl,60.0,60.0,0.0012741600000000003\n"
        "global_ttl,ttl,inf,inf,inf\n"
        "optimal_global_ttl,ttl,0.0,0.0,0.001245\n"
        "individual_ttl,,,,0.001245\n"
        "lower_bound,,,,0.001245\n"
    )


def test_monte_carlo_samples_past_the_limit_are_one_config_error_line(
    config_file, capsys, monkeypatch
):
    calls = _count_draws(monkeypatch)
    too_many = MAX_MC_SAMPLES + 1
    with open(config_file, "a") as handle:
        handle.write(f"\n[monte_carlo]\nsamples = {too_many}\n")
    assert main(["analytic", "--config", config_file]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: monte_carlo.samples: samples must be <= {MAX_MC_SAMPLES}, got {too_many}\n"
    )
    assert calls == []  # rejected while parsing, before any draw


def test_validate_takes_its_rows_from_the_run_experiment_global(config_file, capsys, monkeypatch):
    """perfbench/runner.py reads validate's per-seed rows by wrapping the
    module global `experiments.run_experiment`; validate must call it there."""
    seen = []
    run_experiment = experiments.run_experiment

    def tap(cfg, **kwargs):
        rows = run_experiment(cfg, **kwargs)
        seen.extend(rows[:-1])  # the last row is the mean
        return rows

    monkeypatch.setattr(experiments, "run_experiment", tap)
    seeds = ["--seed", "3", "--seed", "4", "--seed", "5"]
    assert main(["validate", "--config", config_file, *seeds]) == EXIT_OK
    assert [row.seed for row in seen] == ["3", "4", "5"]


def test_validate_reports_relative_error(config_file, capsys):
    assert main(["validate", "--config", config_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(VALIDATION_COLUMNS)
    (row,) = _rows(out)
    assert float(row["rel_err"]) >= 0.0


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.ini")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_config_content_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.replace("ttl = 60.0", "ttl = -4"))
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"# caf\xe9\n" + CONFIG.encode())
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: line 1: {bad} is not UTF-8 text: invalid continuation byte\n"
    )


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path):
    plain, bom = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_text(CONFIG)
    bom.write_bytes(b"\xef\xbb\xbf" + CONFIG.encode())
    for path in (plain, bom):
        out = path.with_suffix(".csv")
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert bom.with_suffix(".csv").read_bytes() == plain.with_suffix(".csv").read_bytes()


@pytest.mark.parametrize(
    "text,line",
    [
        ("[costs]\ngarbage line\n", "line 2: {} is not INI syntax: "
         "a line that is not [section] or key = value"),
        ("x = 1\n", "line 1: {} is not INI syntax: a line before the first [section] header"),
        ("[costs]\nx = 1\nx = 2\n", "line 3: {} is not INI syntax: key 'x' given twice in [costs]"),
        ("[costs]\n[run]\n\n[costs]\n", "line 4: {} is not INI syntax: "
         "section [costs] given twice"),
    ],
    ids=["garbage-line", "no-section-header", "duplicate-option", "duplicate-section"],
)
def test_config_syntax_error_is_one_line_naming_the_file(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {line.format(bad)}\n"


@pytest.mark.parametrize(
    "old,new,line",
    [
        ("lambda = 30.0", "lambda = 0", "population.lambda: lambda_global must be > 0, got 0.0"),
        ("ttl = 60.0", "ttl = nan", "policy.ttl: ttl must be >= 0, got nan"),
        ("kind = global_ttl\nttl = 60.0", "kind = individual_ttl\nwindow = inf",
         "policy.window: window must be finite, got inf"),
        ("kind = global_ttl\nttl = 60.0", "kind = lru\ncapacity = 0",
         "policy.capacity: capacity must be >= 1, got 0"),
        ("duration = 20.0", "duration = -1", "workload.duration: duration must be > 0, got -1.0"),
        ("source = synthetic\nduration = 20.0",
         "source = count_trace\npath = counts.csv\nad_catalog = 5\nad_exponent = 0.9\n"
         "subsample = 1.5",
         "workload.subsample: fraction must be <= 1, got 1.5"),
        ("seeds = 1,2", "seeds = 1,-2", "run.seeds: seed must be >= 0, got -2"),
        ("seeds = 1,2", "seeds = 1,2\nwarmup = inf", "run.warmup: warmup must be finite, got inf"),
    ],
    ids=["lambda", "ttl", "window", "capacity", "duration", "subsample", "seeds", "warmup"],
)
def test_out_of_range_key_is_one_config_error_line(tmp_path, capsys, old, new, line):
    (tmp_path / "counts.csv").write_text("1,0.0,100,48.0\n")
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.replace(old, new))
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {line}\n"


def test_malformed_trace_exits_with_trace_code(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1,1\nbroken line\n")
    cfg = tmp_path / "t.ini"
    cfg.write_text(f"""
[costs]
storage_per_item_hour = 4.86e-7
compute_per_item = 7.2e-4
transmission_per_item = 5.25e-4

[policy]
kind = global_ttl
ttl = 60.0

[workload]
source = request_trace
path = {trace}
""")
    assert main(["run", "--config", str(cfg)]) == EXIT_TRACE
    assert "line 2" in capsys.readouterr().err


TRACE_CONFIG = """
[costs]
storage_per_item_hour = 4.86e-7
compute_per_item = 7.2e-4
transmission_per_item = 5.25e-4

[policy]
{policy}

[workload]
source = request_trace
path = {path}

[run]
warmup = {warmup}
"""


def test_id_past_int64_exits_with_trace_code(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1,1\n1.0,9223372036854775808,1\n")
    cfg = tmp_path / "t.ini"
    cfg.write_text(TRACE_CONFIG.format(policy="kind = global_ttl\nttl = 60.0", path=trace, warmup=0.0))
    assert main(["run", "--config", str(cfg)]) == EXIT_TRACE
    err = capsys.readouterr().err
    assert err.startswith("trace error: line 2: movie id")
    assert err.count("\n") == 1


@pytest.mark.parametrize("policy", ["kind = global_ttl\nttl = 60.0", "kind = lru\ncapacity = 2"])
def test_warmup_past_the_last_request_is_config_error(tmp_path, capsys, policy):
    # global_ttl is priced from sorted columns, lru streamed block by block
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,1,1\n1.5,2,1\n")
    cfg = tmp_path / "t.ini"
    cfg.write_text(TRACE_CONFIG.format(policy=policy, path=trace, warmup=50.0))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: run.warmup (50.0)")
    assert "1.5" in err
    assert err.count("\n") == 1


def test_trace_without_requests_exits_with_trace_code(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("# time,movie,ad\n")
    cfg = tmp_path / "t.ini"
    cfg.write_text(TRACE_CONFIG.format(policy="kind = global_ttl\nttl = 60.0", path=trace, warmup=0.0))
    assert main(["run", "--config", str(cfg)]) == EXIT_TRACE
    assert capsys.readouterr().err == "trace error: the trace holds no requests\n"


def _trace_run(tmp_path, source, data, out=None):
    trace = tmp_path / "t.csv"
    trace.write_bytes(data)
    cfg = tmp_path / "t.ini"
    text = TRACE_CONFIG.format(policy="kind = global_ttl\nttl = 60.0", path=trace, warmup=0.0)
    text = text.replace("request_trace", source)
    cfg.write_text(text.replace("[run]", "ad_catalog = 5\nad_exponent = 0.9\n\n[run]"))
    return main(["run", "--config", str(cfg)] + (["--out", str(out)] if out else []))


@pytest.mark.parametrize(
    "source,data",
    [
        ("request_trace", b"1.0,5\n2.0,\xff\n"),
        ("count_trace", b"7,0.0,5,48.0\n\xff\n"),
        # lines end as text-mode reading ends them: at \r\n, \r or \n
        ("request_trace", b"1.0,5\r\n2.0,\xff\n"),
        ("request_trace", b"1.0,5\r2.0,\xff\n"),
    ],
)
def test_trace_that_is_not_utf8_exits_with_trace_code(tmp_path, capsys, source, data):
    assert _trace_run(tmp_path, source, data) == EXIT_TRACE
    err = capsys.readouterr().err
    assert err.startswith("trace error: line 2: ") and "UTF-8" in err
    assert err.count("\n") == 1


# The bad line 9001 lies in the third chunk of lines the trace is read in.
_LONG_TRACE = "# time,movie\n" + "".join(f"{i / 2!r},{i % 5 + 1}\n" for i in range(1, 9000))


@pytest.mark.parametrize(
    "data,message",
    [
        (_LONG_TRACE.encode() + b"5000.0,\xff\n", "{path} is not UTF-8 text: invalid start byte"),
        (_LONG_TRACE.encode() + b"1.0,2\n", "timestamps must be nondecreasing (1.0 after 4499.5)"),
    ],
)
def test_trace_error_past_the_first_chunk_names_its_line(tmp_path, capsys, data, message):
    assert 2 * BLOCK_REQUESTS < 9001
    assert _trace_run(tmp_path, "request_trace", data) == EXIT_TRACE
    message = message.format(path=tmp_path / "t.csv")
    assert capsys.readouterr().err == f"trace error: line 9001: {message}\n"


def test_request_trace_with_a_byte_order_mark_reads_as_without(tmp_path):
    data = b"1.0,5\n2.0,5\n30.0,2\n90.0,5\n"
    plain = tmp_path / "plain"
    plain.mkdir()
    bom = b"\xef\xbb\xbf" + data
    assert _trace_run(plain, "request_trace", data, plain / "out.csv") == EXIT_OK
    assert _trace_run(tmp_path, "request_trace", bom, tmp_path / "out.csv") == EXIT_OK
    assert (tmp_path / "out.csv").read_bytes() == (plain / "out.csv").read_bytes()


def test_count_trace_with_infinite_horizon_exits_with_trace_code(tmp_path, capsys):
    assert _trace_run(tmp_path, "count_trace", b"7,0.0,5,inf\n") == EXIT_TRACE
    assert capsys.readouterr().err == "trace error: line 1: horizon must be finite, got inf\n"


def test_out_in_a_missing_directory_is_config_error(config_file, capsys, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    monkeypatch.setattr("cachecost.cli.run_experiment", no_run)
    out = tmp_path / "absent" / "out.csv"
    assert main(["run", "--config", config_file, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_failed_command_leaves_out_as_it_was(tmp_path):
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    new = tmp_path / "new.csv"
    for out in (kept, new):
        assert _trace_run(tmp_path, "request_trace", b"1.0,5\n2.0,\xff\n", out) == EXIT_TRACE
    assert kept.read_text() == "old\n"
    assert not new.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--ttl-grid", "0,60"], ["validate"]])
def test_jobs_below_one_is_config_error(config_file, capsys, command, jobs):
    code = main([command[0], "--config", config_file, f"--jobs={jobs}", *command[1:]])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: jobs must be >= 1, got {jobs}\n"


def _priced(config_text: str, tmp_path) -> Path:
    path = tmp_path / "priced.ini"
    path.write_text(config_text)
    return path


@pytest.mark.parametrize(
    "command",
    [["run"], ["sweep", "--window-grid", "1.0,1e300"]],
    ids=["config", "sweep grid"],
)
def test_window_times_break_even_rate_overflow_is_config_error(tmp_path, capsys, command):
    # S/C = 1e20, so a 1e300 h window would need more than float-range requests
    text = CONFIG.replace("4.86e-7", "1e10").replace("7.2e-4", "1e-10")
    window = "1.0" if command[0] == "sweep" else "1e300"
    cfg = _priced(text.replace("kind = global_ttl\nttl = 60.0", f"kind = individual_ttl\nwindow = {window}"), tmp_path)
    assert main([command[0], "--config", str(cfg), *command[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: policy.window (1e+300) times the break-even rate S/C")
    assert err.count("\n") == 1


def test_dollars_past_float_range_are_config_error(tmp_path, capsys):
    text = CONFIG.replace("4.86e-7", "1e306").replace("ttl = 60.0", "ttl = 1e308")
    assert main(["run", "--config", str(_priced(text, tmp_path))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: storage_d overflows float range (inf)")
    assert err.count("\n") == 1


def test_cost_variance_past_float_range_is_config_error(tmp_path, capsys):
    # every per-seed row is finite; their sample variance is not
    text = CONFIG.replace("4.86e-7", "1e300").replace("ttl = 60.0", "ttl = 1e308")
    text = text.replace("seeds = 1,2", "seeds = 1,2,3")
    assert main(["run", "--config", str(_priced(text, tmp_path))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: the mean row of global_ttl ttl 1e+308 overflows float range")
    assert err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_whose_last_point_overflows_is_one_config_error(tmp_path, capsys, jobs):
    # ttl 0 stores nothing; ttl 1e308 keeps every item to the trace end
    text = CONFIG.replace("4.86e-7", "1e306")
    args = ["--config", str(_priced(text, tmp_path)), "--ttl-grid", "0,1e308", "--jobs", jobs]
    assert main(["sweep", *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: storage_d overflows float range (inf) for seed 1;")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "duration, arrivals", [("1e308", "inf"), ("3.4e7", "1020000000.0")], ids=["inf", "finite"]
)
def test_synthetic_run_past_the_arrival_limit_is_config_error(tmp_path, capsys, duration, arrivals):
    text = CONFIG.replace("duration = 20.0", f"duration = {duration}")
    assert main(["run", "--config", str(_priced(text, tmp_path))]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: population.lambda * workload.duration is {arrivals} "
        "expected arrivals, above the limit of 1e+09\n"
    )


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sweep_bytes(args, out):
    assert main(["sweep", *args, "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


def test_request_trace_sweep_bytes_do_not_depend_on_jobs(tmp_path):
    # no ad ids in the file, so the overlay draws them over three blocks
    trace = tmp_path / "t.csv"
    trace.write_text("".join(f"{i * 0.01!r},{i * 7919 % 60 + 1}\n" for i in range(9000)))
    cfg = tmp_path / "t.ini"
    text = TRACE_CONFIG.format(policy="kind = lru\ncapacity = 4", path=trace, warmup=10.0)
    cfg.write_text(text.replace("[run]", "ad_catalog = 5\nad_exponent = 0.9\n\n[run]\nseeds = 1,2"))
    args = ["--config", str(cfg), "--capacity-grid", "2,8"]
    one = _sweep_bytes([*args, "--jobs", "1"], tmp_path / "one.csv")
    assert one.count(b"\n") == 8  # header, 2 points x (2 seeds + mean), argmin
    assert _sweep_bytes([*args, "--jobs", "2"], tmp_path / "two.csv") == one


def test_count_trace_sweep_bytes_do_not_depend_on_jobs(tmp_path):
    args = ["--config", str(CONFIGS / "trace_ugc_small_window_sweep.ini"), "--window-grid", "740.74,2962.96"]
    one = _sweep_bytes([*args, "--jobs", "1"], tmp_path / "one.csv")
    assert _sweep_bytes([*args, "--jobs", "2"], tmp_path / "two.csv") == one


def test_request_trace_window_sweep_bytes_do_not_depend_on_jobs(tmp_path):
    # each seed's overlaid trace is shared by the grid, whose windows give
    # count thresholds K = 1, 1 and 2
    trace = tmp_path / "t.csv"
    trace.write_text("".join(f"{i * 0.5!r},{i * 7919 % 40 + 1}\n" for i in range(9000)))
    cfg = tmp_path / "t.ini"
    text = TRACE_CONFIG.format(policy="kind = individual_ttl\nwindow = 100.0", path=trace, warmup=10.0)
    cfg.write_text(text.replace("[run]", "ad_catalog = 3\nad_exponent = 0.9\n\n[run]\nseeds = 1,2,3"))
    args = ["--config", str(cfg), "--window-grid", "500,1481.48,2962.96"]
    one = _sweep_bytes([*args, "--jobs", "1"], tmp_path / "one.csv")
    assert one.count(b"\n") == 14  # header, 3 points x (3 seeds + mean), argmin
    assert _sweep_bytes([*args, "--jobs", "2"], tmp_path / "two.csv") == one


def test_invariant_violation_exits_with_invariant_code(config_file, capsys, monkeypatch):
    import cachecost.cli as cli_module

    def explode(cfg, jobs=1):
        raise InvariantViolation("synthetic failure for the exit-code path")

    monkeypatch.setattr(cli_module, "run_experiment", explode)
    assert main(["run", "--config", config_file]) == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse(config_file):
    with pytest.raises(SystemExit):
        main(["replay", "--config", config_file])


def test_console_entry_point_is_wired():
    proc = subprocess.run(
        [sys.executable, "-c", "from cachecost.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout
