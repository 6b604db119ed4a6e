"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest -q perfbench

Runs every workload once untraced and once traced with --scale 0.05 and
checks that the last stdout line carries every metric BENCHMARK.json
names, and that the generated request trace depends only on the seed.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_request_trace_is_a_function_of_the_seed(tmp_path):
    run = _load_run_module()
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (5, 5, 6)):
        run.write_request_trace(path, seed, 50.0)
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b
    assert a != c
    lines = a.decode().splitlines()
    assert lines[0].startswith("#") and len(lines) > 1000
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == sorted(times) and times[-1] < 50.0
