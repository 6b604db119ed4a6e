"""Cost modeling and simulation for caching under pay-per-use pricing.

The package answers one question from several angles: when a cloud
application pays per item-hour of cache storage and per item recomputation,
which items should it keep, and for how long? `analytic` gives closed-form
per-request costs under Poisson arrivals, `policies` and `engine` price
the same decisions on traces, from columns and event by event, and
`experiments`/`cli` wrap both in a reproducible config-and-CSV workflow.
"""

from .analytic import (
    CostModel,
    KeepDecision,
    MonteCarloSpec,
    PopulationModel,
    ZipfLaw,
    expected_item_cost,
    global_ttl_cost,
    harmonic,
    individual_ttl_cost,
    keep_decision,
    lower_bound_cost,
    optimal_global_ttl,
    sample_item_rates,
)
from .engine import CostLedger, InvariantViolation, cost_per_request, run
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    analytic_table,
    emit_csv,
    load_config,
    parse_config,
    run_experiment,
    serialize_config,
    sweep,
    validation_report,
)
from .policies import (
    GlobalTtlPolicy,
    IndividualTtlPolicy,
    LowerBoundPolicy,
    LruPolicy,
    PerfectRatePolicy,
    PolicyVerdict,
    next_request_times,
)
from .presets import (
    default_cost_model,
    default_monte_carlo,
    default_population,
)
from .workload import (
    CountTraceRecord,
    TraceFormatError,
    gen_synthetic,
    overlay_ads,
    parse_count_trace,
    parse_request_trace,
    subsample_records,
    synthesize_from_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "CostLedger",
    "CountTraceRecord",
    "ConfigError",
    "ExperimentConfig",
    "GlobalTtlPolicy",
    "IndividualTtlPolicy",
    "InvariantViolation",
    "KeepDecision",
    "LowerBoundPolicy",
    "LruPolicy",
    "MonteCarloSpec",
    "PerfectRatePolicy",
    "PolicyVerdict",
    "PopulationModel",
    "ResultRow",
    "TraceFormatError",
    "ZipfLaw",
    "analytic_table",
    "cost_per_request",
    "default_cost_model",
    "default_monte_carlo",
    "default_population",
    "emit_csv",
    "expected_item_cost",
    "gen_synthetic",
    "global_ttl_cost",
    "harmonic",
    "individual_ttl_cost",
    "keep_decision",
    "load_config",
    "lower_bound_cost",
    "next_request_times",
    "optimal_global_ttl",
    "overlay_ads",
    "parse_config",
    "parse_count_trace",
    "parse_request_trace",
    "run",
    "run_experiment",
    "sample_item_rates",
    "serialize_config",
    "subsample_records",
    "sweep",
    "synthesize_from_counts",
    "validation_report",
]
