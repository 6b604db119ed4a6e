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
    "closed_form_cost",
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


def _check_int(name: str, value: int, low: int, high: "int | None" = None) -> int:
    """`value` as a plain int: an integer (not a bool), >= `low` and <= `high` if given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def _check_real(
    name: str, value: float, low: float, *, above: bool = False, high: "float | None" = None
) -> float:
    """`value` as a float: not NaN, at least `low` (above it when `above`),
    and finite, or at most `high` when given; `high = math.inf` admits +inf."""
    value = float(value)
    if not (value > low if above else value >= low):  # also catches NaN
        raise ValueError(f"{name} must be {'>' if above else '>='} {low}, got {value!r}")
    if high is None and value == math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")
    return value


def _validate_ttl(ttl: float) -> float:
    return _check_real("ttl", ttl, 0, high=math.inf)


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
        for name, above in (
            ("storage_per_item_hour", True),
            ("compute_per_item", True),
            ("transmission_per_item", False),
        ):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), 0, above=above))

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
    s = _check_real("s", s, 0)
    # cumsum adds in sequence; np.sum (pairwise) would round differently.
    return float(np.cumsum(np.arange(n, 0, -1, dtype=np.float64) ** -s)[-1])


_CHUNK = 1 << 15  # uniforms per guide-table pass in `ZipfLaw._ranks`

# Most ranks of one Zipf law. Its pmf, cdf and padded guide cdf hold 24
# bytes per rank, and building them peaks near 32, so about 3 GB at this limit.
MAX_CATALOG = 10**8


@dataclass(frozen=True)
class ZipfLaw:
    """Zipf popularity over ranks 1..n with exponent s >= 0.

    Rank 1 is the most popular; s = 0 degenerates to the uniform law.
    Derived arrays are cached on first use and shared by the samplers.

    `sample` inverts the cdf: a uniform u in [0, 1) draws the rank i + 1,
    where i counts the cdf entries <= u. It finds that count through a
    guide table (Chen & Asau's indexed search; Devroye 1986, section
    III.2.4): K buckets of width 1/K, each holding the range of counts its
    u can have, then a binary search over the widest bucket's range. The
    ranks are exactly those of `np.searchsorted(cumulative, u, "right") + 1`.
    """

    n: int
    s: float

    def __post_init__(self) -> None:
        n = _check_int("catalog size", self.n, 1, MAX_CATALOG)
        s = _check_real("exponent", self.s, 0)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """pmf over ranks 1..n as a read-only float array."""
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** -self.s
        pmf = weights / harmonic(self.n, self.s)
        pmf.setflags(write=False)
        return pmf

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Inclusive cdf over ranks, nondecreasing; last entry is exactly 1."""
        cdf = np.cumsum(self.probabilities)
        # the sum can round past 1 before its last entry
        np.minimum(cdf, 1.0, out=cdf)
        cdf[-1] = 1.0
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def _guide(self) -> "tuple[int, np.ndarray, np.ndarray, list]":
        """(K, lo, padded cdf, search steps) for `_ranks`.

        K is a power of two near 4n, at most 2**16, so u * K is exact and
        u in [j/K, (j+1)/K) has its count in [lo[j], lo[j + 1]]. The search
        takes as many steps as the widest bucket needs: 1 or 2 at the preset
        catalogs, more for a heavy tail that crowds many ranks into the last
        buckets. The cdf is padded with ones, which no u < 1 reaches, so a
        search step may read past the end of a bucket.
        """
        n, cdf = self.n, self.cumulative
        k = min(1 << 16, 1 << (4 * n - 1).bit_length())
        lo = np.searchsorted(cdf, np.arange(k + 1) / k, side="right")
        lo[-1] = n - 1  # a count for u < 1 stops at n - 1
        bits = int(np.diff(lo).max()).bit_length()
        padded = np.concatenate((cdf, np.ones(1 << bits)))
        steps = [np.int32(1 << b) for b in reversed(range(bits))]
        return k, lo.astype(np.int32), padded, steps

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        """Ranks drawn by the uniforms u in [0, 1); int64 array like u."""
        k, lo, padded, steps = self._guide
        ranks = np.empty(u.size, dtype=np.int64)
        # fixed chunks keep the int32 temporaries small and in cache
        for start in range(0, u.size, _CHUNK):
            part = u[start : start + _CHUNK]
            count = lo.take((part * k).astype(np.int32))
            for step in steps:
                count += (padded.take(count + (step - 1)) <= part) * step
            ranks[start : start + _CHUNK] = count
        ranks += 1
        return ranks

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ranks by inverse cdf; int64 array of shape (size,)."""
        return self._ranks(rng.random(size))


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
        lam = _check_real("lambda_global", self.lambda_global, 0, above=True)
        object.__setattr__(self, "lambda_global", lam)

    def rates(self, movies: np.ndarray, ads: np.ndarray) -> np.ndarray:
        """Poisson request rates (1/h) of the (movie, ad) rank pairs."""
        p = self.movies.probabilities[movies - 1] * self.ads.probabilities[ads - 1]
        return self.lambda_global * p


# Most items of one Monte Carlo draw. A draw and the per-item costs priced
# from it peak at about 40 bytes per item, so about 4 GB at this limit.
MAX_MC_SAMPLES = 10**8


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sample count and seed for the population-average estimators."""

    samples: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _check_int("samples", self.samples, 1, MAX_MC_SAMPLES))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))


def expected_item_cost(rate: float, ttl: float, costs: CostModel) -> float:
    """Expected storage-plus-compute cost per request of one item.

    The item is requested as a Poisson process of the given rate and kept
    for `ttl` hours after each request. Transmission is not included here.
    ttl may be math.inf (keep forever); ttl = 0 means never store, which
    costs exactly one recompute per request.
    """
    rate = _check_real("rate", rate, 0, above=True)
    return float(_ttl_item_costs(np.array([rate]), _validate_ttl(ttl), costs)[0])


# Per-item closed forms: the storage-plus-compute cost per request of items
# of the given Poisson rates. An overflow is already the right limit (e^-inf
# is 0, a cost past the float range is inf), so its warning is silenced.
# Where S/r is past the float range (r = 0 or a subnormal r) each form takes
# its limit as r -> 0 instead.


def _held_costs(rates: np.ndarray, costs: CostModel) -> np.ndarray:
    """S/r of each rate, the cost per request of an item kept forever; inf
    where r = 0 or the quotient overflows."""
    with np.errstate(over="ignore"):
        return np.divide(
            costs.storage_per_item_hour, rates, out=np.full_like(rates, np.inf), where=rates > 0
        )


def _ttl_item_costs(rates: np.ndarray, ttl: float, costs: CostModel) -> np.ndarray:
    """Cost of each item kept `ttl` hours after each of its requests."""
    s, c = costs.storage_per_item_hour, costs.compute_per_item
    if ttl == 0.0:
        return np.full_like(rates, c)
    held = _held_costs(rates, costs)
    if math.isinf(ttl):
        return held
    limit = np.isinf(held)
    held[limit] = 0.0  # keeps inf * 0 out; these items get the limit below
    with np.errstate(over="ignore"):
        # (s/rate) * (1 - e^{-rate*ttl}) + c * e^{-rate*ttl}; expm1 keeps
        # the first term accurate when rate*ttl underflows toward 0.
        x = rates * ttl
        cost = held * -np.expm1(-x) + c * np.exp(-x)
    # As r -> 0 every request is a miss that is then held for ttl hours.
    cost[limit] = c + s * ttl
    return cost


def _ideal_item_costs(rates: np.ndarray, costs: CostModel) -> np.ndarray:
    """Cost of each item under its ideal TTL for a known rate: kept forever
    when its rate strictly clears the break-even rate, else never stored."""
    return np.where(keeps(rates, costs), _held_costs(rates, costs), costs.compute_per_item)


def _floor_item_costs(rates: np.ndarray, costs: CostModel) -> np.ndarray:
    """Cost of each item under the clairvoyant per-gap rule: knowing each
    upcoming gap, pay the cheaper of bridging it in storage or recomputing
    at its end, E[min(gap * S, C)] = (S/r) * (1 - e^{-C*r/S}); C as r -> 0."""
    s, c = costs.storage_per_item_hour, costs.compute_per_item
    held = _held_costs(rates, costs)
    limit = np.isinf(held)
    held[limit] = 0.0  # keeps inf * 0 out; these items get the limit below
    with np.errstate(over="ignore"):
        cost = held * -np.expm1(-(c / s) * rates)
    cost[limit] = c
    return cost


# Closed form -> the per-item cost of items of these rates at these prices and
# the policy parameter, which only global_ttl reads (its ttl). individual_ttl
# is the known-rate ideal, which the windowed kind only approaches.
CLOSED_FORMS = {
    "global_ttl": lambda rates, costs, ttl: _ttl_item_costs(rates, ttl, costs),
    "individual_ttl": lambda rates, costs, _: _ideal_item_costs(rates, costs),
    "lower_bound": lambda rates, costs, _: _floor_item_costs(rates, costs),
}


def closed_form_cost(form: str, rates: np.ndarray, costs: CostModel, param=None) -> float:
    """Cost per request of a CLOSED_FORMS form over items of these rates: its mean plus transmission."""
    return float(np.mean(CLOSED_FORMS[form](rates, costs, param))) + costs.transmission_per_item


def _argmin_ttl(ttls: list, curve: list) -> tuple[float, float]:
    """(ttl, cost) of the lowest cost on a shared-TTL curve, NaN costs left
    out; cost ties resolve to the smaller TTL."""
    priced = ((c, t) for c, t in zip(curve, ttls) if not math.isnan(c))
    cost, ttl = min(priced, default=(math.inf, None))
    return ttl, cost


def keeps(rate, costs: CostModel):
    """Whether an item of this request rate is worth keeping: its rate
    strictly clears the break-even rate S/C. Works on floats and arrays."""
    return rate > costs.break_even_rate()


def keep_decision(rate: float, costs: CostModel) -> KeepDecision:
    """Never cache below the break-even rate, cache forever above it.

    At exactly the break-even rate both choices cost the same; the tie
    goes to NEVER_CACHE.
    """
    if keeps(_check_real("rate", rate, 0), costs):
        return KeepDecision.CACHE_FOREVER
    return KeepDecision.NEVER_CACHE


def sample_item_rates(population: PopulationModel, mc: MonteCarloSpec) -> np.ndarray:
    """Per-item request rates of `mc.samples` items drawn from the population.

    Items are drawn by inverse cdf on each axis from one seeded generator,
    so a given spec always yields the same sample set. Reusing one draw
    across several closed forms prices every policy on identical items.
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
    return closed_form_cost("global_ttl", sample_item_rates(population, mc), costs, ttl)


def individual_ttl_cost(population: PopulationModel, costs: CostModel, mc: MonteCarloSpec) -> float:
    """Expected cost per request when each item gets its ideal TTL for a known rate."""
    return closed_form_cost("individual_ttl", sample_item_rates(population, mc), costs)


def lower_bound_cost(population: PopulationModel, costs: CostModel, mc: MonteCarloSpec) -> float:
    """Expected cost per request of the clairvoyant per-gap rule."""
    return closed_form_cost("lower_bound", sample_item_rates(population, mc), costs)


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
    return _argmin_ttl(ttls, [closed_form_cost("global_ttl", rates, costs, t) for t in ttls])
