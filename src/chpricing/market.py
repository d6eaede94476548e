"""Consumer side of the market: log-utility demand and 24-hour day profiles.

Hourly demand has a price-inelastic industrial share mu1*nu*d1 plus an
elastic share mu2*(1+delta)*a/price coming from a logarithmic utility, so
the demand function is exactly the consumer best response to the price.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from . import _noise

__all__ = [
    "DemandModel",
    "DayProfile",
    "consumer_best_response",
    "hourly_demand",
    "hourly_utility",
    "inelastic_share",
    "demand_terms",
    "load_profile",
    "synthetic_profile",
    "default_profile",
    "sample_noise",
    "HOURS",
    "PROFILE_LOW",
    "PROFILE_MEAN",
    "PROFILE_HIGH",
]

HOURS = 24
NOISE_SD = 0.01  # relative noise on the elastic share, N(0, 0.01^2)

# bundled diurnal profile statistics (MW, pre-scaling)
PROFILE_LOW = 28340.0
PROFILE_MEAN = 41086.7
PROFILE_HIGH = 50780.0


@dataclass(frozen=True)
class DemandModel:
    """Parameters of the hourly demand family.

    ``a`` scales the elastic (log-utility) share; ``mu1``/``mu2`` weight
    the inelastic and elastic shares; ``nu`` rescales the raw profile to
    the fleet's size.  ``utility_constant`` is the additive constant of
    the hourly utility, reported so that settlement numbers match the
    chosen convention.
    """

    a: float
    mu1: float
    mu2: float
    nu: float
    utility_constant: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "mu1", "mu2", "nu", "utility_constant"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.a > 0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if not self.nu > 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        # zero weights are legal edges: mu2=0 gives a price-inelastic market
        if self.mu1 < 0 or self.mu2 < 0:
            raise ValueError(f"mu1 and mu2 must be >= 0, got {self.mu1}, {self.mu2}")


@dataclass(frozen=True)
class DayProfile:
    """24 hourly base demands plus the day's multiplicative noise draws."""

    base_demand: tuple[float, ...]  # MW, pre-nu scale
    noise: tuple[float, ...] = field(default=(0.0,) * HOURS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_demand", tuple(float(x) for x in self.base_demand))
        object.__setattr__(self, "noise", tuple(float(x) for x in self.noise))
        if len(self.base_demand) != HOURS:
            raise ValueError(f"base_demand needs {HOURS} values, got {len(self.base_demand)}")
        if len(self.noise) != HOURS:
            raise ValueError(f"noise needs {HOURS} values, got {len(self.noise)}")
        for t, (d1, delta) in enumerate(zip(self.base_demand, self.noise)):
            _check_base_demand(t, d1)
            # 1 + delta scales the elastic share, which must stay >= 0
            if not -1.0 <= delta < math.inf:
                raise ValueError(f"noise at hour {t} must be finite and >= -1, got {delta}")


def _check_base_demand(t: int, d1: float) -> None:
    if not 0.0 < d1 < math.inf:
        raise ValueError(f"base demand at hour {t} must be finite and > 0, got {d1}")


def _check_hour(t: int) -> None:
    if not 0 <= t < HOURS:
        raise ValueError(f"hour index {t} outside [0, {HOURS})")


def consumer_best_response(model: DemandModel, price: float) -> float:
    """Elastic demand a/price maximizing a*log(d) - price*d."""
    if not price > 0:
        raise ValueError(
            f"price must be > 0 (log-utility demand is unbounded near 0), got {price}")
    return model.a / price


def inelastic_share(model: DemandModel, profile: DayProfile, t: int) -> float:
    """mu1 * nu * d1[t]: the hour's price-insensitive demand floor (MW)."""
    _check_hour(t)
    return model.mu1 * model.nu * profile.base_demand[t]


def demand_terms(model: DemandModel, profile: DayProfile, t: int) -> tuple[float, float]:
    """(inelastic floor, elastic coefficient): demand is floor + coef/price."""
    floor = inelastic_share(model, profile, t)  # also validates the hour
    return floor, model.a * model.mu2 * (1.0 + profile.noise[t])


def hourly_demand(model: DemandModel, profile: DayProfile, t: int, price: float) -> float:
    """Total demand at hour t and the given price (MW)."""
    base = inelastic_share(model, profile, t)  # also validates the hour
    return base + model.mu2 * (1.0 + profile.noise[t]) * consumer_best_response(model, price)


def hourly_utility(model: DemandModel, profile: DayProfile, t: int, demand: float) -> float:
    """Gross consumer utility of the hour's aggregate demand ($).

    Defined for demand strictly above the inelastic floor; calibrated so
    that its marginal value at hourly_demand(price) equals the price.
    """
    floor, coef = demand_terms(model, profile, t)
    if coef == 0.0:
        if not demand >= floor - 1e-9:
            raise ValueError(f"demand {demand} below the inelastic floor {floor}")
        return model.utility_constant
    if not demand > floor:
        raise ValueError(
            f"utility undefined at demand {demand} <= inelastic floor {floor}")
    return coef * math.log(demand - floor) + model.utility_constant


def load_profile(document: str) -> DayProfile:
    """Parse a CSV day profile with header ``hour,d1`` and 24 rows."""
    reader = csv.reader(io.StringIO(document))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty profile document") from None
    if [h.strip().lower() for h in header[:2]] != ["hour", "d1"]:
        raise ValueError(f"profile header must be 'hour,d1', got {header!r}")
    values: dict[int, float] = {}
    for row in reader:
        if not row or not "".join(row).strip():
            continue
        try:
            hour, d1 = int(row[0]), float(row[1])
            _check_base_demand(hour, d1)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"bad profile row {row!r}: {exc}") from exc
        if hour in values:
            raise ValueError(f"duplicate hour {hour} in profile")
        values[hour] = d1
    if sorted(values) != list(range(HOURS)):
        raise ValueError(
            f"profile must cover hours 0..{HOURS - 1} exactly, got {sorted(values)}")
    return DayProfile(tuple(values[t] for t in range(HOURS)))


def synthetic_profile(low: float, mean: float, high: float) -> tuple[float, ...]:
    """A smooth diurnal day: night trough at hour 3, afternoon peak at 15.

    Built from a sinusoid raised to a power chosen so the 24 samples hit
    the requested minimum, mean, and maximum essentially exactly.
    """
    if not 0 < low < mean < high:
        raise ValueError(f"need 0 < low < mean < high, got {low}, {mean}, {high}")
    shape = [0.5 * (1.0 + math.sin(2.0 * math.pi * (t - 9.0) / 24.0))
             for t in range(HOURS)]
    theta = (mean - low) / (high - low)
    lo_limit = 1.0 / HOURS          # power -> inf: only the peak survives
    hi_limit = (HOURS - 1.0) / HOURS  # power -> 0: everything but the trough is 1
    if not lo_limit < theta < hi_limit:
        raise ValueError(
            f"mean {mean} not achievable with this diurnal shape for "
            f"range [{low}, {high}]")

    def shifted_mean(power: float) -> float:
        return sum(s ** power for s in shape) / HOURS

    lo_p, hi_p = 1e-8, 1e8  # shifted_mean is strictly decreasing in the power
    for _ in range(200):
        mid = math.sqrt(lo_p * hi_p)
        bracket = (mid, hi_p) if shifted_mean(mid) > theta else (lo_p, mid)
        # an unchanged bracket would repeat every later step unchanged
        if bracket == (lo_p, hi_p):
            break
        lo_p, hi_p = bracket
    power = math.sqrt(lo_p * hi_p)
    return tuple(low + (high - low) * s ** power for s in shape)


def default_profile() -> DayProfile:
    """The bundled synthetic day used by the experiment harness."""
    return DayProfile(synthetic_profile(PROFILE_LOW, PROFILE_MEAN, PROFILE_HIGH))


def sample_noise(seed: int) -> tuple[float, ...]:
    """24 hourly noise draws, one independent substream per (seed, hour).

    The per-hour substream makes the draws independent of evaluation
    order, so parallel runs reproduce the sequential ones bit for bit.
    Each draw is numpy's ``default_rng([seed, t]).normal(0, NOISE_SD)``,
    computed by chpricing's own copy of that stream (``_noise``), which
    does not change with the numpy version.
    """
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return tuple(_noise.normal([seed, t], NOISE_SD) for t in range(HOURS))
