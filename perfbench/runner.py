"""Child process of the benchmark: times set-up, or runs one batch of CLI calls.

    python3 perfbench/runner.py SPEC.json OUT.json

SPEC names the repository root, the configs the workload loads and the CLI
calls to make. The child imports `cachecost` from the root's `src/`, times
that import plus `load_config` of every config (the set-up), then, for a
batch, calls `cachecost.cli.main` once per operation. Timed operations come
first; CPU time and peak RSS are read right after them, so the untimed
check operations that follow do not count. A fresh process per batch keeps
`ru_maxrss` and the CPU counters to that batch and its pool workers.

`validate` prints only the mean row, so its per-seed rows are taken from
the return value of `experiments.run_experiment`, which it calls; that is
how its priced requests are counted. With "trace" set,
the batch runs under `tracer.Tracer` and OUT also gets the per-layer
metrics and the call spans.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _usage() -> tuple[float, int]:
    """CPU seconds of this process and its reaped children, and the larger maxrss (KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss)


def _call(cli, argv) -> tuple[float, "int | None", "str | None"]:
    t0 = time.perf_counter()
    error = None
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code, error = None, traceback.format_exc(limit=-3)
    return time.perf_counter() - t0, code, error


def _row(r) -> dict:
    return {
        "seed": r.seed,
        "requests": r.requests,
        "hits": r.hits,
        "cost_per_request": r.cost_per_request,
        "compute_d": r.compute_d,
        "storage_d": r.storage_d,
        "transmission_d": r.transmission_d,
    }


def run_batch(spec: dict, cli, experiments, tracer) -> dict:
    captured: list = []
    run_experiment = experiments.run_experiment

    def tap(cfg, **kwargs):
        rows = run_experiment(cfg, **kwargs)
        captured.extend(rows[:-1])  # the last row is the mean
        return rows

    experiments.run_experiment = tap
    results = []
    try:
        timed = [op for op in spec["ops"] if op["timed"]]
        checks = [op for op in spec["ops"] if not op["timed"]]
        cpu0, _ = _usage()
        if tracer is not None:
            tracer.install()
        t_start = time.perf_counter()
        try:
            for op in timed:
                captured.clear()
                if tracer is not None:
                    tracer.op = op["name"]
                seconds, code, error = _call(cli, op["argv"])
                results.append({"name": op["name"], "seconds": seconds, "exit": code,
                                "error": error, "rows": [_row(r) for r in captured]})
        finally:
            wall = time.perf_counter() - t_start
            if tracer is not None:
                tracer.uninstall()
        cpu1, maxrss = _usage()
        for op in checks:
            captured.clear()
            seconds, code, error = _call(cli, op["argv"])
            results.append({"name": op["name"], "seconds": seconds, "exit": code,
                            "error": error, "rows": [_row(r) for r in captured]})
    finally:
        experiments.run_experiment = run_experiment
    out = {"ops": results, "wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": maxrss / 1024.0}
    if tracer is not None:
        gc.collect()  # close abandoned trace iterators so their totals are flushed
        metrics = tracer.metrics(wall)
        out["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        out["self_sum_s"] = tracer.self_sum(wall)
        out["spans"] = tracer.spans
        out["untraced_names"] = tracer.missing
    return out


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    t0 = time.perf_counter()
    import cachecost.cli as cli
    from cachecost import analytic, experiments, policies

    for path in spec["configs"]:
        cli.load_config(path)
    result = {"setup_s": time.perf_counter() - t0, "cachecost_file": cli.__file__}
    if spec["mode"] == "batch":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer({"cli": cli, "experiments": experiments,
                             "policies": policies, "analytic": analytic})
        result.update(run_batch(spec, cli, experiments, tracer))
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
