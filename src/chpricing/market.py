"""Consumer side of the market: log-utility demand and 24-hour day profiles.

Hourly demand has a price-inelastic industrial share mu1*nu*d1 plus an
elastic share mu2*(1+delta)*a/price coming from a logarithmic utility, so
the demand function is exactly the consumer best response to the price.
Each formula is written once, over arrays of hours (_hour_terms, _demand,
_utility); hourly_demand, hourly_utility and inelastic_share call it for one.
"""
from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _noise

__all__ = [
    "DemandModel",
    "DayProfile",
    "consumer_best_response",
    "hourly_demand",
    "hourly_utility",
    "inelastic_share",
    "load_profile",
    "synthetic_profile",
    "default_profile",
    "sample_noise",
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


def consumer_best_response(model: DemandModel, price):
    """Elastic demand a/price maximizing a*log(d) - price*d (a price or an array)."""
    prices = np.asarray(price, dtype=float)
    if not (prices > 0).all():  # NaN included
        raise ValueError("price must be > 0 (log-utility demand is unbounded near 0), "
                         f"got {prices[~(prices > 0)][0].item()}")
    return model.a / price


def _hour_terms(model: DemandModel, profile: DayProfile, hours) -> tuple[np.ndarray, ...]:
    """(floor, share, coef) arrays of the hours: demand is floor + share*a/price,
    utility coef*log(demand - floor) + constant, coef = a*mu2*(1 + delta)."""
    # operator.index refuses a float hour; dtype=int keeps no hours an index array
    hours = np.array([operator.index(t) for t in hours], dtype=int)
    outside = (hours < 0) | (hours >= HOURS)
    if outside.any():
        raise ValueError(f"hour index {hours[outside][0].item()} outside [0, {HOURS})")
    gain = 1.0 + np.array(profile.noise)[hours]
    return (model.mu1 * model.nu * np.array(profile.base_demand)[hours],
            model.mu2 * gain, model.a * model.mu2 * gain)


def _demand(model: DemandModel, terms, price) -> np.ndarray:
    """Demand of hours with terms (floor, share, coef) at their prices."""
    return terms[0] + terms[1] * consumer_best_response(model, price)


def _utility(model: DemandModel, terms, demand) -> np.ndarray:
    """Gross utility of hours with terms (floor, share, coef) at their demands,
    by math.log (np.log may miss the last ulp).  ValueError for the first demand
    at or below its floor, less 1e-9 in a price-inelastic hour (coef 0)."""
    floor, coef, demand = terms[0], terms[2], np.asarray(demand, dtype=float)
    inelastic = coef == 0.0
    refused = ~np.where(inelastic, demand >= floor - 1e-9, demand > floor)
    if refused.any():
        d, f, flat = (np.broadcast_to(x, refused.shape)[refused.argmax()].item()
                      for x in (demand, floor, inelastic))
        raise ValueError(f"demand {d} below the inelastic floor {f}" if flat else
                         f"utility undefined at demand {d} <= inelastic floor {f}")
    logs = [math.log(gap) if gap > 0.0 else 0.0 for gap in (demand - floor).tolist()]
    return np.where(inelastic, model.utility_constant, coef * logs + model.utility_constant)


def inelastic_share(model: DemandModel, profile: DayProfile, t: int) -> float:
    """mu1 * nu * d1[t]: the hour's price-insensitive demand floor (MW)."""
    return _hour_terms(model, profile, (t,))[0][0].item()


def hourly_demand(model: DemandModel, profile: DayProfile, t: int, price: float) -> float:
    """Total demand at hour t and the given price (MW)."""
    return _demand(model, _hour_terms(model, profile, (t,)), price)[0].item()


def hourly_utility(model: DemandModel, profile: DayProfile, t: int, demand: float) -> float:
    """Gross consumer utility of the hour's aggregate demand ($), calibrated so
    that its marginal value at hourly_demand(price) equals the price.  Defined
    strictly above the inelastic floor (down to it when price-inelastic)."""
    return _utility(model, _hour_terms(model, profile, (t,)), demand)[0].item()


def load_profile(document: str) -> DayProfile:
    """Parse a CSV day profile with header ``hour,d1`` and 24 rows."""
    import csv  # here, not at the top: no other command reads a CSV

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
