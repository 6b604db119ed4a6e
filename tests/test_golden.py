"""Byte-for-byte regeneration of the checked-in golden CSVs.

Every golden was produced by the command listed in its recipe config.
These tests rerun the exact command and demand identical output, so any
drift in trace synthesis, policy decisions, accounting or CSV formatting
shows up as a diff. The bundled count traces are checked against the
script that makes them.
"""

import csv
import importlib.util
from pathlib import Path

import pytest

from cachecost.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = CONFIGS / "golden"
DATA = REPO / "src" / "cachecost" / "data"

CASES = {
    "smoke_run.csv": [
        "run", "--config", str(CONFIGS / "smoke_run.ini"),
    ],
    "smoke_analytic.csv": [
        "analytic", "--config", str(CONFIGS / "smoke_analytic.ini"),
        "--ttl-grid", "0,60,120",
    ],
    "vod_ttl_sweep.csv": [
        "sweep", "--config", str(CONFIGS / "trace_vod_ttl_sweep.ini"),
        "--ttl-grid", "0,240,960,4000",
    ],
    "ugc_large_capacity_sweep.csv": [
        "sweep", "--config", str(CONFIGS / "trace_ugc_large_capacity_sweep.ini"),
        "--capacity-grid", "50,200,800",
    ],
    "ugc_small_window_sweep.csv": [
        "sweep", "--config", str(CONFIGS / "trace_ugc_small_window_sweep.ini"),
        "--window-grid", "740.74,1481.48,2962.96",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv_regenerates_identically(name, tmp_path):
    out = tmp_path / name
    argv = CASES[name] + ["--out", str(out)]
    assert main(argv) == EXIT_OK
    regenerated = out.read_bytes()
    assert regenerated == (GOLDEN / name).read_bytes()


def test_full_size_synthetic_stream_is_pinned(tmp_path):
    # the smoke goldens draw 40 movies x 5 ads; this pins the draws, the
    # item sort and the checksum at the full 10,000 x 5,000 catalog
    out = tmp_path / "seed1.csv"
    argv = ["run", "--config", str(CONFIGS / "validate_global_ttl.ini"), "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as handle:
        row = next(csv.DictReader(handle))
    assert (row["seed"], row["requests"], row["hits"], row["trace_checksum"]) == (
        "1", "310551", "22317", "09d2f362",
    )


def _rows(name):
    with open(GOLDEN / name, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_frozen_sweep_optima():
    # the argmin rows double as the reference optima for the bundled
    # miniatures; a change here is a behaviour change, not noise
    argmin = {
        name: next(r for r in _rows(name) if r["seed"] == "argmin")
        for name in CASES
        if "sweep" in name
    }
    assert float(argmin["vod_ttl_sweep.csv"]["param_value"]) == 960.0
    assert argmin["ugc_large_capacity_sweep.csv"]["param_value"] == "200"
    assert float(argmin["ugc_small_window_sweep.csv"]["param_value"]) == 2962.96


def test_frozen_analytic_table_shape():
    rows = _rows("smoke_analytic.csv")
    assert [r["evaluator"] for r in rows] == [
        "global_ttl",
        "global_ttl",
        "global_ttl",
        "optimal_global_ttl",
        "individual_ttl",
        "lower_bound",
    ]
    # zero lifetime prices every request at recompute plus transmission
    assert float(rows[0]["cost_per_request"]) == pytest.approx(
        7.2e-4 + 5.25e-4, rel=1e-12
    )
    costs = {r["evaluator"]: float(r["cost_per_request"]) for r in rows[3:]}
    assert costs["lower_bound"] <= costs["individual_ttl"] <= costs["optimal_global_ttl"]


def _bundled_traces_tool():
    spec = importlib.util.spec_from_file_location(
        "make_bundled_traces", REPO / "tools" / "make_bundled_traces.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_traces_regenerate_identically():
    tool = _bundled_traces_tool()
    assert sorted(tool.CATALOGS) == sorted(p.name for p in DATA.glob("*.csv"))
    for name, params in tool.CATALOGS.items():
        assert tool._make_catalog(**params).encode("utf-8") == (DATA / name).read_bytes(), name
