"""The event engine as the oracle of every policy kind's fast path."""

from cachecost.engine import cost_per_request, run
from cachecost.policies import (
    GlobalTtlPolicy,
    IndividualTtlPolicy,
    LowerBoundPolicy,
    LruPolicy,
    PerfectRatePolicy,
    next_request_times,
)

# Policy kind -> its policy class for a config, given the trace it replays.
POLICY_CLASSES = {
    "global_ttl": lambda cfg, trace: GlobalTtlPolicy(cfg.policy.ttl),
    "individual_ttl": lambda cfg, trace: IndividualTtlPolicy(cfg.policy.window, cfg.costs),
    "lower_bound": lambda cfg, trace: LowerBoundPolicy(cfg.costs, next_request_times(trace)),
    "known_rate": lambda cfg, trace: PerfectRatePolicy(cfg.costs, lambda i: cfg.population.rates(*i)),
    "lru": lambda cfg, trace: LruPolicy(cfg.policy.capacity),
}


def engine_fields(cfg, trace) -> tuple:
    """`row_fields` of cfg's run on the listed trace, replayed by `engine.run`."""
    ledger = run(trace, POLICY_CLASSES[cfg.policy.kind](cfg, trace), cfg.costs, warmup=cfg.warmup)
    return (ledger.requests, ledger.hits, cost_per_request(ledger),
            ledger.compute_dollars, ledger.storage_dollars, ledger.transmission_dollars)


def row_fields(row) -> tuple:
    return (row.requests, row.hits, row.cost_per_request,
            row.compute_d, row.storage_d, row.transmission_d)
