"""Closed-form cost models for pay-per-use caching.

All quantities use a fixed unit system: time in hours, money in dollars,
request rates in requests per hour. The central trade-off is between
recomputing an item on demand (a one-off compute price) and keeping it in
storage between requests (a price per item-hour). Every evaluator in this
module returns an expected cost per request, including the flat
transmission price that is paid no matter what the cache does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "CostModel",
    "KeepDecision",
    "MonteCarloSpec",
    "PopulationModel",
    "ZipfLaw",
    "expected_item_cost",
    "global_ttl_cost",
    "harmonic",
    "individual_ttl_cost",
    "keep_decision",
    "keeps",
    "lower_bound_cost",
    "optimal_global_ttl",
    "sample_item_rates",
]


def _check_int(name: str, value: int, low: int) -> int:
    """`value` as a plain int: an integer (not a bool) of at least `low`."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class CostModel:
    """Unit prices of the three billable resources.

    storage_per_item_hour: dollars to keep one item stored for one hour.
    compute_per_item: dollars to (re)generate one item on a cache miss.
    transmission_per_item: dollars to deliver one item to the requester.
        Purely additive; it never influences a caching decision.
    """

    storage_per_item_hour: float
    compute_per_item: float
    transmission_per_item: float

    def __post_init__(self) -> None:
        s = _require_finite("storage_per_item_hour", self.storage_per_item_hour)
        c = _require_finite("compute_per_item", self.compute_per_item)
        x = _require_finite("transmission_per_item", self.transmission_per_item)
        if s <= 0.0 or c <= 0.0:
            raise ValueError("storage and compute prices must be positive")
        if x < 0.0:
            raise ValueError("transmission price must be >= 0")
        object.__setattr__(self, "storage_per_item_hour", s)
        object.__setattr__(self, "compute_per_item", c)
        object.__setattr__(self, "transmission_per_item", x)

    def break_even_rate(self) -> float:
        """The request rate (1/h) at which storing and recomputing cost the same."""
        return self.storage_per_item_hour / self.compute_per_item

    def break_even_window(self) -> float:
        """Gap length (h) whose storage cost equals one recompute."""
        return self.compute_per_item / self.storage_per_item_hour


class KeepDecision(enum.Enum):
    """Asymptotically optimal per-item choice when the rate is known."""

    NEVER_CACHE = "never_cache"
    CACHE_FOREVER = "cache_forever"


def harmonic(n: int, s: float) -> float:
    """Generalized harmonic number: sum of i**-s for i in 1..n.

    Terms are accumulated from the smallest (i = n) toward the largest so
    the tail of a decaying series is not swallowed by rounding.
    """
    n = _check_int("n", n, 1)
    s = _require_finite("s", s)
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    terms = np.arange(n, 0, -1, dtype=np.float64) ** -s
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


@dataclass(frozen=True)
class ZipfLaw:
    """Zipf popularity over ranks 1..n with exponent s >= 0.

    Rank 1 is the most popular; s = 0 degenerates to the uniform law.
    Derived arrays are cached on first use and shared by the samplers.
    """

    n: int
    s: float

    def __post_init__(self) -> None:
        n = _check_int("catalog size", self.n, 1)
        s = _require_finite("exponent", self.s)
        if s < 0.0:
            raise ValueError(f"exponent must be >= 0, got {s}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    @cached_property
    def h(self) -> float:
        """Normalizing constant: harmonic(n, s)."""
        return harmonic(self.n, self.s)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """pmf over ranks 1..n as a read-only float array."""
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** -self.s
        pmf = weights / self.h
        pmf.setflags(write=False)
        return pmf

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Inclusive cdf over ranks; last entry is forced to exactly 1."""
        cdf = np.cumsum(self.probabilities)
        cdf[-1] = 1.0
        cdf.setflags(write=False)
        return cdf

    def pmf(self, rank: int) -> float:
        if rank < 1 or rank > self.n:
            raise ValueError(f"rank must be in 1..{self.n}, got {rank}")
        return float(self.probabilities[rank - 1])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ranks by inverse cdf; int64 array of shape (size,)."""
        u = rng.random(size)
        return np.searchsorted(self.cumulative, u, side="right").astype(np.int64) + 1


@dataclass(frozen=True)
class PopulationModel:
    """Two independent Zipf popularity axes and a global request rate.

    A requestable item is a (movie rank, ad rank) pair; its probability is
    the product of the marginals and its own Poisson request rate is that
    probability times the global rate.
    """

    movies: ZipfLaw
    ads: ZipfLaw
    lambda_global: float

    def __post_init__(self) -> None:
        lam = _require_finite("lambda_global", self.lambda_global)
        if lam <= 0.0:
            raise ValueError(f"lambda_global must be positive, got {lam}")
        object.__setattr__(self, "lambda_global", lam)

    def rates(self, movies: np.ndarray, ads: np.ndarray) -> np.ndarray:
        """Poisson request rates (1/h) of the (movie, ad) rank pairs."""
        p = self.movies.probabilities[movies - 1] * self.ads.probabilities[ads - 1]
        return self.lambda_global * p


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sample count and seed for the population-average estimators."""

    samples: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _check_int("samples", self.samples, 1))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))


def _validate_rate(rate: float) -> float:
    rate = _require_finite("rate", rate)
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    return rate


def _validate_ttl(ttl: float) -> float:
    ttl = float(ttl)
    if math.isnan(ttl) or ttl < 0.0:
        raise ValueError(f"ttl must be >= 0, got {ttl!r}")
    return ttl


def expected_item_cost(rate: float, ttl: float, costs: CostModel) -> float:
    """Expected storage-plus-compute cost per request of one item.

    The item is requested as a Poisson process of the given rate and kept
    for `ttl` hours after each request. Transmission is not included here.
    ttl may be math.inf (keep forever); ttl = 0 means never store, which
    costs exactly one recompute per request.
    """
    return float(_expected_cost_array(_validate_rate(rate), _validate_ttl(ttl), costs))


def _expected_cost_array(rates: np.ndarray, ttl: float, costs: CostModel) -> np.ndarray:
    s, c = costs.storage_per_item_hour, costs.compute_per_item
    if ttl == 0.0:
        return np.full_like(rates, c)
    if math.isinf(ttl):
        return s / rates
    # (s/rate) * (1 - e^{-rate*ttl}) + c * e^{-rate*ttl}; expm1 keeps the
    # first term accurate when rate*ttl underflows toward 0.
    x = rates * ttl
    return (s / rates) * -np.expm1(-x) + c * np.exp(-x)


def keeps(rate, costs: CostModel):
    """Whether an item of this request rate is worth keeping: its rate
    strictly clears the break-even rate S/C. Works on floats and arrays."""
    return rate > costs.break_even_rate()


def keep_decision(rate: float, costs: CostModel) -> KeepDecision:
    """Never cache below the break-even rate, cache forever above it.

    At exactly the break-even rate both choices cost the same; the tie
    goes to NEVER_CACHE.
    """
    rate = _require_finite("rate", rate)
    if rate < 0.0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if keeps(rate, costs):
        return KeepDecision.CACHE_FOREVER
    return KeepDecision.NEVER_CACHE


def sample_item_rates(population: PopulationModel, mc: MonteCarloSpec) -> np.ndarray:
    """Per-item request rates of `mc.samples` items drawn from the population.

    Items are drawn by inverse cdf on each axis from one seeded generator,
    so a given spec always yields the same sample set. Reusing one spec
    across several evaluators prices every policy on identical draws.
    """
    rng = np.random.default_rng(mc.seed)
    movies = population.movies.sample(rng, mc.samples)
    ads = population.ads.sample(rng, mc.samples)
    return population.rates(movies, ads)


def global_ttl_cost(
    population: PopulationModel, ttl: float, costs: CostModel, mc: MonteCarloSpec
) -> float:
    """Expected cost per request when every item shares one TTL."""
    ttl = _validate_ttl(ttl)
    rates = sample_item_rates(population, mc)
    mean = float(np.mean(_expected_cost_array(rates, ttl, costs)))
    return mean + costs.transmission_per_item


def individual_ttl_cost(
    population: PopulationModel, costs: CostModel, mc: MonteCarloSpec
) -> float:
    """Expected cost per request when each item gets its ideal TTL.

    With a known per-item rate the ideal TTL is degenerate: keep forever
    when the rate strictly clears the break-even rate, otherwise never store.
    """
    rates = sample_item_rates(population, mc)
    s, c = costs.storage_per_item_hour, costs.compute_per_item
    per_item = np.where(keeps(rates, costs), s / rates, c)
    return float(np.mean(per_item)) + costs.transmission_per_item


def lower_bound_cost(
    population: PopulationModel, costs: CostModel, mc: MonteCarloSpec
) -> float:
    """Expected cost per request of the clairvoyant per-gap rule.

    Knowing each upcoming gap, pay the cheaper of bridging it in storage
    or recomputing at its end: E[min(gap * S, C)] per request, which for a
    Poisson item of rate r integrates to (S/r) * (1 - e^{-C*r/S}).
    """
    rates = sample_item_rates(population, mc)
    s, c = costs.storage_per_item_hour, costs.compute_per_item
    per_item = (s / rates) * -np.expm1(-(c / s) * rates)
    return float(np.mean(per_item)) + costs.transmission_per_item


def optimal_global_ttl(
    population: PopulationModel,
    costs: CostModel,
    mc: MonteCarloSpec,
    grid: "list[float] | tuple[float, ...] | np.ndarray",
) -> tuple[float, float]:
    """Grid search of the shared-TTL cost; returns (best ttl, its cost).

    One sample set is drawn and reused for every grid point, so the curve
    is sampled coherently and the argmin is not scrambled by independent
    noise. Cost ties resolve to the smaller TTL.
    """
    ttls = [_validate_ttl(t) for t in grid]
    if not ttls:
        raise ValueError("ttl grid must not be empty")
    rates = sample_item_rates(population, mc)
    x = costs.transmission_per_item
    best_ttl = None
    best_cost = math.inf
    for ttl in ttls:
        cost = float(np.mean(_expected_cost_array(rates, ttl, costs))) + x
        if cost < best_cost or (cost == best_cost and ttl < best_ttl):
            best_ttl, best_cost = ttl, cost
    return best_ttl, best_cost
