"""Price formation: dual descent, exact dual prices, and convex baselines.

The hourly partial dual is phi(p) = [U(D(p)) - p*D(p)] + conjugate(p),
convex in the price with subgradient supply(p) - demand(p).  The dynamic
pricing loop walks down phi with diminishing steps; the exact dual price
is the sign change of the subgradient, in closed form on the fleet's
supply staircase.  Relaxed (dispatchable) supply is that same staircase.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .fleet import Fleet
from .hull import default_price_cap, uplifts
from .market import DayProfile, DemandModel, demand_terms, hourly_demand, hourly_utility
from .ucp import (
    InfeasibleError,
    QuadraticCost,
    conjugate,
    fleet_supply,
    relaxed_value,
    supply_staircase,
)

__all__ = [
    "PRICE_FLOOR",
    "METHODS",
    "HarmonicStep",
    "IterateRecord",
    "PricingTrace",
    "dual_value",
    "run_subgradient",
    "exact_dual",
    "run_lmp",
    "lmp_equilibrium",
    "dispatchable_price",
    "dispatchable_equilibrium",
]

PRICE_FLOOR = 1e-6  # $/MWh; keeps the elastic demand term finite

METHODS = ("chp_subgradient", "chp_exact", "lmp", "dispatchable")


@dataclass(frozen=True)
class HarmonicStep:
    """Diminishing step rule gamma_k = coef / k.

    A plain object rather than a closure so traces and worker processes
    can carry it around (picklable, printable).
    """

    coef: float

    def __post_init__(self) -> None:
        if not 0 < self.coef < math.inf:
            raise ValueError(f"step coefficient must be finite and > 0, got {self.coef}")

    def __call__(self, k: int) -> float:
        return self.coef / k


@dataclass(frozen=True)
class IterateRecord:
    """One accepted iterate of a price-formation loop."""

    k: int
    price: float       # $/MWh, after the k-th update
    demand: float      # MW at this price
    supply: float      # MW at this price
    step: float        # step size used to produce this price
    dual_value: float  # phi at this price
    uplift: float      # lost-profit payment at (price, demand); inf if demand infeasible
    elapsed_s: float = 0.0  # wall clock since loop start; excluded from determinism


@dataclass(frozen=True)
class PricingTrace:
    method: str
    records: tuple[IterateRecord, ...]
    final_price: float
    final_demand: float


def _check_start_price(price: float) -> None:
    if not PRICE_FLOOR < price < math.inf:
        raise ValueError(
            f"start price must be finite and exceed the floor {PRICE_FLOOR}, got {price}")


def dual_value(fleet: Fleet, model: DemandModel, profile: DayProfile, t: int,
               price: float) -> tuple[float, float]:
    """(phi, subgradient) of the hourly dual at a price.

    phi carries the utility's additive constant; the subgradient is
    supply minus demand, positive when the price is above the crossing.
    The price may sit on the floor, where a closed-form crossing can land.
    """
    if not PRICE_FLOOR <= price < math.inf:
        raise ValueError(
            f"price must be finite and at least the floor {PRICE_FLOOR}, got {price}")
    demand = hourly_demand(model, profile, t, price)
    utility = hourly_utility(model, profile, t, demand)
    phi = utility - price * demand + conjugate(fleet, price)
    return phi, fleet_supply(fleet, price) - demand


def _price_loop(method: str, respond: Callable[[float], tuple[float, float]],
                model: DemandModel, profile: DayProfile, t: int, price0: float,
                n_iters: int, step_rule: HarmonicStep,
                uplift_fleet: Fleet) -> PricingTrace:
    """Price iteration against ``respond(price) -> (supply, profit)``.

    Each round p_k = p_{k-1} - gamma_k * (supply - demand), clamped to the
    floor; after n_iters rounds the final price is accepted.  Uplift is
    priced against uplift_fleet, inf if demand is infeasible.  The loop
    never reads it, so every iterate is billed in one batch after the
    loop, and elapsed_s excludes that time.
    """
    _check_start_price(price0)
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    start = time.perf_counter()
    price = price0
    demand = hourly_demand(model, profile, t, price)
    supply, _profit = respond(price)
    rounds = []
    for k in range(1, n_iters + 1):
        step = step_rule(k)
        price = max(PRICE_FLOOR, price - step * (supply - demand))
        demand = hourly_demand(model, profile, t, price)
        supply, profit = respond(price)
        phi = hourly_utility(model, profile, t, demand) - price * demand + profit
        rounds.append(dict(k=k, price=price, demand=demand, supply=supply, step=step,
                           dual_value=phi, elapsed_s=time.perf_counter() - start))
    billed = uplifts(uplift_fleet, [r["price"] for r in rounds],
                     [r["demand"] for r in rounds])
    records = tuple(IterateRecord(uplift=up, **r) for r, up in zip(rounds, billed))
    return PricingTrace(method, records, price, demand)


def run_subgradient(fleet: Fleet, model: DemandModel, profile: DayProfile, t: int,
                    price0: float, n_iters: int,
                    step_rule: HarmonicStep) -> PricingTrace:
    """Dynamic pricing by subgradient descent on the hourly dual.

    Starting from price0, each round the suppliers and the consumer report
    their best responses and the price moves against the imbalance.
    """
    def respond(price: float) -> tuple[float, float]:
        return fleet_supply(fleet, price), conjugate(fleet, price)

    return _price_loop("chp_subgradient", respond, model, profile, t, price0,
                       n_iters, step_rule, uplift_fleet=fleet)


def exact_dual(fleet: Fleet, model: DemandModel, profile: DayProfile,
               t: int) -> tuple[float, float]:
    """Exact dual price: the sign change of supply minus demand.

    Returns (price, demand at that price).  The price is the smallest one
    whose best-response supply covers the demand floor + coef/p:
    a staircase breakpoint, or coef/(s - floor) inside a step of supply s.
    """
    price_cap = default_price_cap(fleet)
    demand_at_cap = hourly_demand(model, profile, t, price_cap)
    if fleet_supply(fleet, price_cap) < demand_at_cap:
        raise InfeasibleError(
            f"no crossing: demand {demand_at_cap} MW exceeds supply at the "
            f"price cap {price_cap}")
    floor, coef = demand_terms(model, profile, t)
    prices, supply = supply_staircase(fleet)
    # step i supplies levels[i] from starts[i] up to the next start
    starts = (PRICE_FLOOR,) + prices
    levels = (0.0,) + supply
    for i, level in enumerate(levels):
        price = max(starts[i], PRICE_FLOOR)
        if level >= hourly_demand(model, profile, t, price):
            break
        if level > floor:
            price = max(price, coef / (level - floor))
            if i + 1 == len(levels) or price < starts[i + 1]:
                break
    return price, hourly_demand(model, profile, t, price)


def run_lmp(quad: QuadraticCost, model: DemandModel, profile: DayProfile, t: int,
            price0: float, n_iters: int, step_rule: HarmonicStep,
            uplift_fleet: Fleet) -> PricingTrace:
    """The same price iteration with the fitted convex cost model supplying.

    Supply comes from the quadratic marginal-cost curve.  The per-iterate
    uplift is priced against uplift_fleet, the true nonconvex fleet, which
    is what the convex model's prices will actually have to pay.
    """
    def respond(price: float) -> tuple[float, float]:
        return quad.supply(price), quad.conjugate(price)

    return _price_loop("lmp", respond, model, profile, t, price0, n_iters,
                       step_rule, uplift_fleet)


def lmp_equilibrium(quad: QuadraticCost, model: DemandModel, profile: DayProfile,
                    t: int) -> tuple[float, float]:
    """Exact crossing of the quadratic supply curve with hourly demand.

    Below capacity, (p - beta)/(2 alpha) = floor + coef/p: the positive
    root of p^2 - b p - c with b = beta + 2 alpha floor, c = 2 alpha coef.
    Past capacity, demand falls to capacity at p = coef/(capacity - floor).
    """
    floor, coef = demand_terms(model, profile, t)
    b = quad.beta + 2.0 * quad.alpha * floor
    price = 0.5 * (b + math.sqrt(b * b + 8.0 * quad.alpha * coef))
    if price > quad.beta + 2.0 * quad.alpha * quad.capacity:
        if quad.capacity <= floor:
            raise InfeasibleError("no crossing for the quadratic supply curve")
        price = coef / (quad.capacity - floor)
    price = max(price, PRICE_FLOOR)
    return price, hourly_demand(model, profile, t, price)


def dispatchable_price(fleet: Fleet, y: float) -> float:
    """Marginal price of the relaxed-commitment cost at demand y."""
    _value, price = relaxed_value(fleet, y)
    return price


def dispatchable_equilibrium(fleet: Fleet, model: DemandModel, profile: DayProfile,
                             t: int) -> tuple[float, float]:
    """Clear the relaxed merit-order supply curve against hourly demand.

    Relaxed supply is the best-response staircase, so this is the exact
    dual price.
    """
    return exact_dual(fleet, model, profile, t)
