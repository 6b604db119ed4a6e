"""cachecost benchmark: replay workloads driven through the CLI, outputs checked.

    python3 perfbench/run.py --workload synth_validate --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/`. Workloads (see perfbench/README.md for why each
exists):

  synth_validate   validate of configs/validate_global_ttl.ini at --jobs 1,
                   plus the smoke_run and smoke_analytic golden recipes
  synth_sweep_lru  LRU capacity sweep of configs/lru_vs_ttl.ini at --jobs 2
  trace_files      a generated request-trace file swept over estimator
                   windows and replayed under the clairvoyant floor, plus
                   the three bundled count-trace golden sweeps

Seed 0 reproduces the committed recipe seeds (1..5, or 1..2 for the trace
files); any other seed derives the per-run seeds and the request trace
from it. With --trace 0 the workload runs in fresh child processes, batch
after batch, until the timed CLI calls add up to about --seconds (the batch
count that comes nearest). Times are means over the batches, requests_per_s
is all priced requests over all timed wall time, peak_rss_mb is the median
over batches. Set-up is timed in three fresh processes before the batches and
in every batch process, and its metric is the median of those samples.
With --trace 1 it runs once untraced and once traced, both at --jobs 1,
and reports per-layer metrics.

Every CLI call is one operation and is checked: exit code 0, golden bytes
or (at seed 0) the recorded sha256, the ledger identities on every
per-seed row, equal trace checksums across grid points, validate's
rel_err, equal bytes across job counts, batches and tracing. The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
Result and span files are written under .perfbench/results/, stamped with
the commit, seed, interpreter, numpy version and machine.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
GOLDEN = CONFIGS / "golden"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 0
SETUP_PROBES = 3
TIME_BUDGET_S = 165.0  # every run must end well inside 180 s
REL_ERR_LIMIT = 1e-2
LRU_GRID = "250,700,1500,3000,6000"
WINDOW_GRID = "740.74,1481.48,2962.96"
TRACE_SPAN_H = 1000.0
TRACE_RATE_PER_H = 100.0

# Checks that fail on a known defect of the program. They still fail the
# operation and count in `failed`; only `correct` tolerates them.
KNOWN_FAILURES = {
    ("golden:ugc_small_window_sweep", "golden"): (
        "golden frozen under Python 3.10; on 3.11+ statistics.stdev rounds "
        "differently and one cost_sd cell differs in its last digit"
    ),
}


@dataclass
class Op:
    """One CLI call of a workload. argv omits --jobs and --out."""

    name: str
    argv: list
    config: Path
    jobs: "int | None" = None  # None: call without --jobs
    golden: "str | None" = None  # file name under configs/golden
    cross_jobs: bool = False  # also rerun at the other job count, same bytes expected


@dataclass
class Workload:
    ops: list
    configs: list = field(default_factory=list)  # loaded during set-up
    inputs: dict = field(default_factory=dict)  # generated input files, by label


class Context:
    def __init__(self, seed: int, scale: float, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = work

    def seeds(self, n: int) -> list:
        if self.seed == DEFAULT_SEED:
            return list(range(1, n + 1))
        state = np.random.SeedSequence(self.seed).generate_state(n)
        return [int(s) >> 1 for s in state]

    def seed_args(self, n: int) -> list:
        return [a for s in self.seeds(n) for a in ("--seed", str(s))]

    def config(self, base: str, name: "str | None" = None, **sections) -> Path:
        """configs/<base>, or a copy with sections replaced (None drops one).

        Synthetic durations and warmups are multiplied by the scale.
        """
        if not sections and self.scale == 1.0:
            return CONFIGS / base
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(CONFIGS / base, encoding="utf-8")
        for section, values in sections.items():
            if values is None:
                parser.remove_section(section)
            else:
                parser[section] = values
        if self.scale != 1.0:
            for section, key in (("workload", "duration"), ("run", "warmup")):
                if parser.has_option(section, key):
                    parser[section][key] = repr(float(parser[section][key]) * self.scale)
        path = self.work / (name or base)
        with open(path, "w", encoding="utf-8") as handle:
            parser.write(handle)
        return path


def write_request_trace(path: Path, seed: int, span: float) -> None:
    """Poisson arrivals at 100/h over [0, span), movie ranks Zipf(10000, 0.8), no ads."""
    rng = np.random.default_rng(seed)
    mean = TRACE_RATE_PER_H * span
    times = np.cumsum(rng.exponential(1.0 / TRACE_RATE_PER_H, int(mean + 10 * math.sqrt(mean) + 100)))
    if times[-1] < span:
        raise RuntimeError("request trace generator drew too few arrivals")
    times = times[times < span]
    weights = np.arange(1, 10001, dtype=np.float64) ** -0.8
    cdf = np.cumsum(weights) / weights.sum()
    cdf[-1] = 1.0
    movies = np.searchsorted(cdf, rng.random(times.size), side="right") + 1
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# time_hours,movie_id\n")
        handle.writelines(f"{t!r},{m}\n" for t, m in zip(times.tolist(), movies.tolist()))


def _golden_sweep(name: str, config: str, grid_flag: str, grid: str) -> Op:
    path = CONFIGS / config
    return Op(f"golden:{name}", ["sweep", "--config", str(path), grid_flag, grid], path,
              golden=f"{name}.csv")


def synth_validate(ctx: Context) -> Workload:
    cfg = ctx.config("validate_global_ttl.ini")
    smoke_run, smoke_analytic = CONFIGS / "smoke_run.ini", CONFIGS / "smoke_analytic.ini"
    return Workload(
        ops=[
            Op("validate", ["validate", "--config", str(cfg), *ctx.seed_args(5)], cfg, jobs=1),
            Op("golden:smoke_run", ["run", "--config", str(smoke_run)], smoke_run,
               golden="smoke_run.csv"),
            Op("golden:smoke_analytic",
               ["analytic", "--config", str(smoke_analytic), "--ttl-grid", "0,60,120"],
               smoke_analytic, golden="smoke_analytic.csv"),
        ],
        configs=[cfg, smoke_run, smoke_analytic],
    )


def synth_sweep_lru(ctx: Context) -> Workload:
    cfg = ctx.config("lru_vs_ttl.ini", "lru_capacity.ini", policy={"kind": "lru", "capacity": "1500"})
    argv = ["sweep", "--config", str(cfg), "--capacity-grid", LRU_GRID, *ctx.seed_args(5)]
    return Workload(ops=[Op("sweep_lru", argv, cfg, jobs=2, cross_jobs=True)], configs=[cfg])


def trace_files(ctx: Context) -> Workload:
    trace = ctx.work / "requests.csv"
    write_request_trace(trace, ctx.seed, TRACE_SPAN_H * ctx.scale)
    file_workload = {"source": "request_trace", "path": trace.name,
                     "ad_catalog": "5000", "ad_exponent": "0.94"}
    run_section = {"seeds": "1,2", "warmup": "0.0"}
    window = ctx.config("window_sweep.ini", "trace_window.ini", population=None,
                        workload=file_workload, run=run_section)
    floor = ctx.config("window_sweep.ini", "trace_lower_bound.ini", population=None,
                       policy={"kind": "lower_bound"}, workload=file_workload, run=run_section)
    goldens = [
        _golden_sweep("vod_ttl_sweep", "trace_vod_ttl_sweep.ini", "--ttl-grid", "0,240,960,4000"),
        _golden_sweep("ugc_large_capacity_sweep", "trace_ugc_large_capacity_sweep.ini",
                      "--capacity-grid", "50,200,800"),
        _golden_sweep("ugc_small_window_sweep", "trace_ugc_small_window_sweep.ini",
                      "--window-grid", WINDOW_GRID),
    ]
    return Workload(
        ops=[
            Op("window_sweep", ["sweep", "--config", str(window), "--window-grid", WINDOW_GRID,
                                *ctx.seed_args(2)], window, jobs=1),
            Op("lower_bound_run", ["run", "--config", str(floor), *ctx.seed_args(2)], floor, jobs=1),
            *goldens,
        ],
        configs=[window, floor, *(op.config for op in goldens)],
        inputs={"input:requests.csv": trace},
    )


WORKLOADS = {"synth_validate": synth_validate, "synth_sweep_lru": synth_sweep_lru,
             "trace_files": trace_files}


# --- child processes -------------------------------------------------------


class Children:
    """Launches runner.py children under one deadline and kills their process groups."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def launch(self, spec: dict) -> "dict | None":
        self.count += 1
        spec_path = self.work / f"spec{self.count}.json"
        out_path = self.work / f"out{self.count}.json"
        err_path = self.work / f"stderr{self.count}.txt"
        spec_path.write_text(json.dumps({"root": str(ROOT), **spec}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "runner.py"), str(spec_path), str(out_path)],
                stdout=subprocess.DEVNULL, stderr=err, env=env, start_new_session=True,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                print(f"child {self.count} passed the time budget; killed", flush=True)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers left
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode != 0 or not out_path.exists():
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"child {self.count} exited {proc.returncode}:\n{tail}", flush=True)
            return None
        result = json.loads(out_path.read_text(encoding="utf-8"))
        src = (ROOT / "src").resolve()
        if src not in Path(result["cachecost_file"]).resolve().parents:
            print(f"cachecost was imported from {result['cachecost_file']}, not {src}", flush=True)
            return None
        return result


def batch_entries(ops: list, outdir: Path, *, trace: bool, checks: bool) -> list:
    """The runner's operations: each Op at its job count (1 when traced), then cross-job reruns."""
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for op in ops:
        jobs = None if op.jobs is None else (1 if trace else op.jobs)
        variants = [(op.name, jobs, True)]
        if checks and op.cross_jobs:
            other = 2 if jobs == 1 else 1
            variants.append((f"{op.name}@jobs{other}", other, False))
        for name, j, timed in variants:
            out = outdir / (name.replace(":", "_").replace("@", "_") + ".csv")
            argv = list(op.argv) + (["--jobs", str(j)] if j is not None else []) + ["--out", str(out)]
            entries.append({"name": name, "argv": argv, "timed": timed, "out": str(out),
                            "op": op, "same_as": op.name if not timed else None})
    return entries


# --- checks ----------------------------------------------------------------


def _prices(config: Path) -> tuple[float, float]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config, encoding="utf-8")
    return float(parser["costs"]["compute_per_item"]), float(parser["costs"]["transmission_per_item"])


def ledger_ok(row: dict, compute: float, transmission: float) -> bool:
    requests, hits = int(row["requests"]), int(row["hits"])
    c, s, x = float(row["compute_d"]), float(row["storage_d"]), float(row["transmission_d"])
    return (
        c == (requests - hits) * compute
        and x == requests * transmission
        and float(row["cost_per_request"]) == (c + s + x) / requests
    )


def check_op(entry: dict, res: dict, outputs: dict, reference: dict) -> tuple[list, "str | None", int]:
    """Failed check names, sha256 of the output, and the priced requests."""
    if res["exit"] != 0 or res["error"]:
        return ["exit"], None, 0
    path = Path(entry["out"])
    if not path.exists():
        return ["output"], None, 0
    data = path.read_bytes()
    outputs[entry["name"]] = data
    digest = hashlib.sha256(data).hexdigest()
    failed = []
    op = entry["op"]
    if op.golden is not None:
        if data != (GOLDEN / op.golden).read_bytes():
            failed.append("golden")
    elif entry["name"] in reference and reference[entry["name"]] != digest:
        failed.append("digest")
    if entry["same_as"] is not None and outputs.get(entry["same_as"]) != data:
        failed.append("jobs_bytes")

    table = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if table and "requests" in table[0]:
        per_seed = [r for r in table if r["seed"] not in ("mean", "argmin")]
    else:
        per_seed = res["rows"]  # validate prints only the mean
    if op.argv[0] != "analytic" and not per_seed:
        failed.append("rows")
    compute, transmission = _prices(op.config)
    if not all(ledger_ok(r, compute, transmission) for r in per_seed):
        failed.append("ledger")
    if op.argv[0] == "sweep":
        by_seed = {}
        for r in per_seed:
            by_seed.setdefault(r["seed"], set()).add(r["trace_checksum"])
        if any(len(v) != 1 for v in by_seed.values()):
            failed.append("trace_checksum")
    if op.argv[0] == "validate":
        if not (table and float(table[0]["rel_err"]) < REL_ERR_LIMIT):
            failed.append("rel_err")
    requests = sum(int(r["requests"]) for r in per_seed)
    return failed, digest, requests


class Verdicts:
    """Tally of operations: attempted, failed, and whether every failure is a known one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digests = {}

    def fail_unknown(self, reason: str) -> None:
        print(f"FAIL {reason}", flush=True)
        self.correct = False

    def record(self, name: str, seconds: "float | None", failed: list, digest: "str | None") -> None:
        self.attempted += 1
        if digest is not None:
            self.digests[name] = digest
        status = "ok"
        if failed:
            self.failed += 1
            notes = []
            for check in failed:
                known = KNOWN_FAILURES.get((name, check))
                notes.append(f"{check} (known: {known})" if known else check)
                if not known:
                    self.correct = False
            status = "FAIL " + ", ".join(notes)
        secs = f"{seconds:9.3f} s" if seconds is not None else "        - s"
        print(f"  op {name:34s} {secs}  sha256={digest or '-'}  {status}", flush=True)

    def batch(self, entries: list, result: "dict | None", reference: dict,
              compare: "dict | None" = None, compare_check: str = "") -> tuple[dict, int]:
        """Check one batch; returns its outputs by op name and its timed priced requests."""
        outputs, requests = {}, 0
        if result is None:
            for e in entries:
                self.record(e["name"], None, ["ran"], None)
            return outputs, 0
        by_name = {r["name"]: r for r in result["ops"]}
        for e in entries:
            res = by_name.get(e["name"])
            if res is None:
                self.record(e["name"], None, ["ran"], None)
                continue
            failed, digest, n = check_op(e, res, outputs, reference)
            if compare is not None and e["name"] in compare and compare[e["name"]] != outputs.get(e["name"]):
                failed.append(compare_check)
            if res["error"]:
                print(res["error"], flush=True)
            self.record(e["name"], res["seconds"], failed, digest)
            if e["timed"]:
                requests += n
        return outputs, requests


# --- stamp -----------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = ROOT / "src" / "cachecost"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# --- main ------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, ctx, children, verdicts, reference) -> "dict | None":
    # Every batch child sets up the same way a probe does, so its set-up time
    # is a sample too; the probes make sure there are enough of them.
    setups = []
    for _ in range(SETUP_PROBES):
        probe = children.launch({"mode": "setup", "configs": [str(c) for c in wl.configs]})
        if probe is None:
            verdicts.fail_unknown("set-up probe")
            return None
        setups.append(probe["setup_s"])

    batches, first = [], None
    while True:
        i = len(batches)
        entries = batch_entries(wl.ops, ctx.work / f"batch{i}", trace=False, checks=i == 0)
        spec = {"mode": "batch", "trace": False, "configs": [str(c) for c in wl.configs],
                "ops": [{k: e[k] for k in ("name", "argv", "timed")} for e in entries]}
        t0 = time.monotonic()
        result = children.launch(spec)
        print(f"batch {i}:", flush=True)
        outputs, requests = verdicts.batch(entries, result, reference if i == 0 else {},
                                           compare=first, compare_check="repeat_bytes")
        if result is None:
            break
        first = first if first is not None else outputs
        setups.append(result["setup_s"])
        batches.append({"wall_s": result["wall_s"], "requests": requests,
                        "cpu_s": result["cpu_s"], "peak_rss_mb": result["peak_rss_mb"]})
        took = time.monotonic() - t0
        measured = sum(b["wall_s"] for b in batches)
        # Stop where the measured time comes nearest to --seconds.
        typical = statistics.median(b["wall_s"] for b in batches)
        if measured + typical / 2 >= args.seconds or time.monotonic() + 1.5 * took > children.deadline:
            break
    if not batches:
        return None

    # A shared host's speed can drift over tens of seconds; a mean over the
    # whole run follows that drift less than the median of a few batches does.
    def mean(key):
        return statistics.fmean(b[key] for b in batches)

    return {
        "metrics": {
            "wall_s": _metric(mean("wall_s"), "s"),
            "requests_per_s": _metric(mean("requests") / mean("wall_s"), "1/s"),
            "cpu_s": _metric(mean("cpu_s"), "s"),
            "peak_rss_mb": _metric(statistics.median(b["peak_rss_mb"] for b in batches), "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        },
        "batches": batches,
        "setup_samples_s": setups,
    }


def traced(args, wl, ctx, children, verdicts, reference) -> "dict | None":
    runs = {}
    for label, trace in (("untraced", False), ("traced", True)):
        entries = batch_entries(wl.ops, ctx.work / label, trace=True, checks=not trace)
        spec = {"mode": "batch", "trace": trace, "configs": [str(c) for c in wl.configs],
                "ops": [{k: e[k] for k in ("name", "argv", "timed")} for e in entries]}
        result = children.launch(spec)
        print(f"{label} batch at --jobs 1:", flush=True)
        outputs, _ = verdicts.batch(entries, result, reference if not trace else {},
                                    compare=runs.get("untraced", (None,))[0], compare_check="traced_bytes")
        if result is None:
            return None
        runs[label] = (outputs, result)
    untraced, result = runs["untraced"][1], runs["traced"][1]
    metrics = result["layer_metrics"]
    if result["untraced_names"]:
        print("not traced, missing from the package: " + ", ".join(result["untraced_names"]), flush=True)
    wall = result["wall_s"]
    self_sum = result["self_sum_s"]
    if abs(self_sum - wall) > 1e-6 * wall + 1e-6:
        verdicts.fail_unknown(f"self times add up to {self_sum!r} s, traced wall is {wall!r} s")
    metrics["traced.overhead_s"] = _metric(wall - untraced["wall_s"], "s")
    return {"metrics": metrics, "untraced_wall_s": untraced["wall_s"], "spans": result["spans"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink trace spans and durations, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.scale > 0:
        parser.error("--seed must be >= 0 and --scale > 0")

    missing = [p for p in (ROOT / "src" / "cachecost" / "cli.py", CONFIGS, GOLDEN) if not p.exists()]
    if missing:
        print(f"not a cachecost checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_BUDGET_S
    work = OUT_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    info = stamp(args)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)
    ctx = Context(args.seed, args.scale, work)
    wl = WORKLOADS[args.workload](ctx)
    reference = {}
    if args.seed == DEFAULT_SEED and args.scale == 1.0:
        recorded = json.loads((HERE / "reference_digests.json").read_text(encoding="utf-8"))
        key = "python" + ".".join(platform.python_version_tuple()[:2])
        reference = recorded.get(key, {}).get(args.workload, {})
        if not reference:
            print(f"no recorded digests for {key}; outputs are checked without them", flush=True)

    verdicts = Verdicts()
    for label, path in wl.inputs.items():
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"  input {label:31s} sha256={digest}", flush=True)
        if label in reference and reference[label] != digest:
            verdicts.fail_unknown(f"{label} differs from its recorded digest")

    children = Children(work, deadline)
    measure = traced if args.trace else end_to_end
    outcome = measure(args, wl, ctx, children, verdicts, reference)
    if outcome is None:
        print("no batch completed; no result", file=sys.stderr)
        return 1

    metrics = outcome["metrics"]
    print("metrics:", flush=True)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}", flush=True)
    if not args.trace:
        frac = verdicts.failed / verdicts.attempted
        print(f"  {'ops_failed_frac':40s} {frac:>16.6g} 1   ({verdicts.failed}/{verdicts.attempted})")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"stamp": info, "correct": verdicts.correct, "attempted": verdicts.attempted,
              "failed": verdicts.failed, "digests": verdicts.digests,
              **{k: v for k, v in outcome.items() if k != "spans"}}
    (results_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        spans = {"stamp": info,
                 "fields": ["id", "parent", "op", "name", "start_s", "duration_s", "self_s"],
                 "spans": outcome["spans"]}
        (results_dir / f"spans-{tag}.json").write_text(json.dumps(spans), encoding="utf-8")
    print(f"wrote {results_dir.relative_to(ROOT)}/*-{tag}.json", flush=True)
    print(json.dumps({"correct": verdicts.correct, "attempted": verdicts.attempted,
                      "failed": verdicts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
