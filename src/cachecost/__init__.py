"""Cost modeling and simulation for caching under pay-per-use pricing.

The package answers one question from several angles: when a cloud
application pays per item-hour of cache storage and per item recomputation,
which items should it keep, and for how long? `analytic` gives closed-form
per-request costs under Poisson arrivals, `policies` and `engine` price
the same decisions on traces, from columns and event by event, and
`experiments`/`cli` wrap both in a reproducible config-and-CSV workflow.

The top level exports what the README's examples and the demos use, plus
the three errors those functions raise; everything else is imported from
its module.
"""

from .analytic import (
    KeepDecision,
    expected_item_cost,
    global_ttl_cost,
    individual_ttl_cost,
    keep_decision,
    lower_bound_cost,
    optimal_global_ttl,
)
from .engine import InvariantViolation, cost_per_request, run
from .experiments import (
    ConfigError,
    analytic_table,
    emit_csv,
    parse_config,
    run_experiment,
    sweep,
    validation_report,
)
from .policies import GlobalTtlPolicy
from .presets import default_cost_model, default_monte_carlo, default_population
from .workload import TraceFormatError, gen_synthetic, parse_count_trace

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "GlobalTtlPolicy",
    "InvariantViolation",
    "KeepDecision",
    "TraceFormatError",
    "analytic_table",
    "cost_per_request",
    "default_cost_model",
    "default_monte_carlo",
    "default_population",
    "emit_csv",
    "expected_item_cost",
    "gen_synthetic",
    "global_ttl_cost",
    "individual_ttl_cost",
    "keep_decision",
    "lower_bound_cost",
    "optimal_global_ttl",
    "parse_config",
    "parse_count_trace",
    "run",
    "run_experiment",
    "sweep",
    "validation_report",
]
