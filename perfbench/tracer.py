"""Per-layer tracing of cachecost for the benchmark's traced run.

`Tracer.install()` replaces the module-level names that `cachecost.cli`,
`cachecost.experiments`, `cachecost.policies` and `cachecost.analytic` call
with timing wrappers, and each policy class's `on_request` with a counting
one; `uninstall()` puts the originals back. Nothing inside the package is
edited: the spans sit at the boundaries between its modules. A name the
package no longer has is skipped and listed in `missing`, so its metrics
read 0 instead of the run failing.

Every wrapper opens a span. A span's self time is its duration minus the
durations of the spans it encloses, so the self times of all spans plus the
root (time outside any wrapped call) add up to the traced wall time. The
lazy iterators returned by the trace producers are wrapped as well, so time
spent inside their `next()` is charged to the layer that produces the
requests, not to the one that pulls them.

Call spans are kept in memory as records and written out by the caller at
the end of the run. Spans at per-event boundaries (`next()` of a trace
iterator and `on_request`) number in the millions, so they are folded into
per-name totals instead of being kept one by one.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name): plain calls.
CALLS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "experiments.load_config"),
    ("cli", "run_experiment", "experiments.run_experiment"),
    ("cli", "sweep", "experiments.sweep"),
    ("cli", "analytic_table", "experiments.analytic_table"),
    ("cli", "validation_report", "experiments.validation_report"),
    ("cli", "emit_csv", "experiments.emit"),
    ("cli", "emit_dict_csv", "experiments.emit"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("experiments", "_run_single", "experiments.task"),
    ("experiments", "run", "engine.run"),
    ("experiments", "parse_count_trace", "workload.parse_count_trace"),
    ("experiments", "subsample_records", "workload.subsample_records"),
    ("experiments", "global_ttl_cost", "analytic.global_ttl_cost"),
    ("experiments", "individual_ttl_cost", "analytic.individual_ttl_cost"),
    ("experiments", "lower_bound_cost", "analytic.lower_bound_cost"),
    ("experiments", "optimal_global_ttl", "analytic.optimal_global_ttl"),
    ("analytic", "sample_item_rates", "analytic.sample_item_rates"),
    ("policies", "next_request_times", "policies.next_request_times"),
)

# (module, attribute, span name): calls that return a lazy request iterator.
PRODUCERS = (
    ("experiments", "gen_synthetic", "workload.gen_synthetic"),
    ("experiments", "parse_request_trace", "workload.parse_request_trace"),
    ("experiments", "overlay_ads", "workload.overlay_ads"),
    ("experiments", "synthesize_from_counts", "workload.synthesize_from_counts"),
)

# policy class -> span name of its on_request.
POLICIES = {
    "GlobalTtlPolicy": "policies.global_ttl",
    "IndividualTtlPolicy": "policies.individual_ttl",
    "LruPolicy": "policies.lru",
    "LowerBoundPolicy": "policies.lower_bound",
    "PerfectRatePolicy": "policies.known_rate",
}


class Stat:
    """Totals of one span name: calls, iterator yields, inclusive and self seconds."""

    __slots__ = ("calls", "events", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.events = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps "cli", "experiments", "policies", "analytic" to the modules."""
        self.modules = modules
        self.stats: "defaultdict[str, Stat]" = defaultdict(Stat)
        self.spans: list = []
        self.trace_builds = 0
        self.distinct_traces: set = set()
        self.op = None
        self._origin = time.perf_counter()
        # _child[-1] accumulates the durations of spans closed directly
        # inside the innermost open span; _child[0] belongs to the root.
        self._child = [0.0]
        self._open = [None]
        self._saved: list = []
        self.missing: list = []

    # --- wrappers ----------------------------------------------------------

    def _call(self, name, fn):
        stat, child, open_ids, spans = self.stats[name], self._child, self._open, self.spans
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = open_ids[-1]
            span_id = len(spans)
            spans.append(None)
            open_ids.append(span_id)
            child.append(0.0)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = pc() - t0
                inner = child.pop()
                open_ids.pop()
                child[-1] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - inner
                spans[span_id] = (span_id, parent, self.op, name, t0 - self._origin, dur, dur - inner)

        return wrapper

    def _iterate(self, name, iterable):
        stat, child = self.stats[name], self._child
        pc = time.perf_counter
        pull = iter(iterable).__next__
        events = 0
        total = own = 0.0
        try:
            while True:
                child.append(0.0)
                t0 = pc()
                try:
                    item = pull()
                except StopIteration:
                    return
                finally:
                    dur = pc() - t0
                    inner = child.pop()
                    child[-1] += dur
                    total += dur
                    own += dur - inner
                events += 1
                yield item
        finally:
            stat.events += events
            stat.total_s += total
            stat.self_s += own

    def _producer(self, name, fn):
        call = self._call(name, fn)

        def wrapper(*args, **kwargs):
            return self._iterate(name, call(*args, **kwargs))

        return wrapper

    def _on_request(self, name, fn):
        stat, child = self.stats[name], self._child
        pc = time.perf_counter

        def on_request(policy, item, now):
            t0 = pc()
            verdict = fn(policy, item, now)
            dur = pc() - t0
            child[-1] += dur
            stat.calls += 1
            stat.total_s += dur
            stat.self_s += dur
            return verdict

        return on_request

    # --- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, make) -> None:
        """Replace owner.attr with make(original), or note it missing."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        mods = self.modules
        for mod, attr, name in CALLS:
            self._patch(mods[mod], attr, lambda fn, name=name: self._call(name, fn))
        for mod, attr, name in PRODUCERS:
            self._patch(mods[mod], attr, lambda fn, name=name: self._producer(name, fn))
        for cls_name, name in POLICIES.items():
            cls = getattr(mods["policies"], cls_name, None)
            if cls is None:
                self.missing.append(f"policies.{cls_name}")
                continue
            self._patch(cls, "on_request", lambda fn, name=name: self._on_request(name, fn))

        def traced_build(build):
            build = self._call("experiments.build_requests", build)

            def build_requests(cfg, seed):
                self.trace_builds += 1
                self.distinct_traces.add((cfg.workload, cfg.population, seed))
                return build(cfg, seed)

            return build_requests

        def traced_checksum(base):
            tracer = self

            class TracedChecksumStream(base):
                def __iter__(self):
                    return tracer._iterate("experiments.checksum", base.__iter__(self))

            return TracedChecksumStream

        self._patch(mods["experiments"], "build_requests", traced_build)
        self._patch(mods["experiments"], "_ChecksumStream", traced_checksum)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # --- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of a traced batch that took `wall_s` seconds.

        `bench.self_s` is the root's self time: the harness itself, between
        and around the CLI calls.
        """
        s = self.stats

        def get(name):
            return s[name] if name in s else Stat()

        m = {}
        for p in ("gen_synthetic", "parse_request_trace", "overlay_ads", "synthesize_from_counts"):
            st = get(f"workload.{p}")
            if p == "gen_synthetic":
                m["workload.gen_synthetic.calls"] = (st.calls, "count")
            m[f"workload.{p}.events"] = (st.events, "count")
            m[f"workload.{p}.busy_s"] = (st.self_s, "s")
        m["workload.parse_count_trace.busy_s"] = (get("workload.parse_count_trace").self_s, "s")
        m["workload.distinct_trace_ratio"] = (
            len(self.distinct_traces) / self.trace_builds if self.trace_builds else 0.0,
            "1",
        )
        checksum = get("experiments.checksum")
        m["experiments.upstream.busy_s"] = (checksum.total_s, "s")
        m["experiments.checksum.busy_s"] = (checksum.self_s, "s")
        m["experiments.tasks"] = (get("experiments.task").calls, "count")
        m["experiments.load_config.busy_s"] = (get("experiments.load_config").self_s, "s")
        m["experiments.emit.busy_s"] = (get("experiments.emit").self_s, "s")
        events = 0
        for name in POLICIES.values():
            st = get(name)
            events += st.calls
            if name != "policies.known_rate":
                m[f"{name}.calls"] = (st.calls, "count")
                m[f"{name}.busy_s"] = (st.self_s, "s")
        m["policies.next_request_times.busy_s"] = (get("policies.next_request_times").self_s, "s")
        run = get("engine.run")
        m["engine.run.calls"] = (run.calls, "count")
        m["engine.run.events"] = (events, "count")
        m["engine.run.self_s"] = (run.self_s, "s")
        m["engine.run.self_events_per_s"] = (events / run.self_s if run.self_s > 0 else 0.0, "1/s")
        m["analytic.sample_item_rates.calls"] = (get("analytic.sample_item_rates").calls, "count")

        layers = self._layer_self()
        for layer in ("workload", "experiments", "policies", "cli"):
            m[f"{layer}.self_s"] = (layers[layer], "s")
        m["analytic.busy_s"] = (layers["analytic"], "s")
        m["bench.self_s"] = (wall_s - self._child[0], "s")
        m["traced.wall_s"] = (wall_s, "s")
        return m

    def _layer_self(self) -> "defaultdict[str, float]":
        layers = defaultdict(float)
        for name, st in self.stats.items():
            layers[name.split(".", 1)[0]] += st.self_s
        return layers

    def self_sum(self, wall_s: float) -> float:
        """Self time of every span plus the root's; equals `wall_s` when no span leaked."""
        return sum(self._layer_self().values()) + wall_s - self._child[0]
