"""Default parameter sets used across the demos, configs and tests.

The prices model a pay-per-use video pipeline: one "item" is a short
personalized video chunk, recomputed by a transcoder on a miss, parked in
object storage while cached, and billed per delivery on the way out. The
catalog shapes model a large movie library crossed with a smaller ad
inventory, each with its own Zipf popularity skew.
"""

from __future__ import annotations

from .analytic import CostModel, MonteCarloSpec, PopulationModel, ZipfLaw

__all__ = [
    "DEFAULT_SEEDS",
    "default_cost_model",
    "default_monte_carlo",
    "default_population",
]

# Per-item list prices (dollars). Storage is per item-hour.
STORAGE_PER_ITEM_HOUR = 4.86e-7
COMPUTE_PER_ITEM = 7.2e-4
TRANSMISSION_PER_ITEM = 5.25e-4

MOVIE_CATALOG = 10_000
MOVIE_EXPONENT = 0.8
AD_CATALOG = 5_000
AD_EXPONENT = 0.94

DEFAULT_MC_SAMPLES = 25_000
DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def default_cost_model() -> CostModel:
    return CostModel(
        storage_per_item_hour=STORAGE_PER_ITEM_HOUR,
        compute_per_item=COMPUTE_PER_ITEM,
        transmission_per_item=TRANSMISSION_PER_ITEM,
    )


def default_population(lambda_global: float) -> PopulationModel:
    """Movie/ad population at the given global request rate (1/h)."""
    return PopulationModel(
        movies=ZipfLaw(MOVIE_CATALOG, MOVIE_EXPONENT),
        ads=ZipfLaw(AD_CATALOG, AD_EXPONENT),
        lambda_global=lambda_global,
    )


def default_monte_carlo(seed: int = 0) -> MonteCarloSpec:
    return MonteCarloSpec(samples=DEFAULT_MC_SAMPLES, seed=seed)
