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

import numpy as np

from .fleet import Fleet
from .hull import default_price_cap, uplifts
from .market import DayProfile, DemandModel, demand_terms, hourly_demand, hourly_utility
from .ucp import (InfeasibleError, QuadraticCost, _staircase, conjugate, fleet_supply,
                  relaxed_value, ucp_values)

__all__ = [
    "PRICE_FLOOR",
    "MAX_ITERS",
    "METHODS",
    "ITERATIVE_METHODS",
    "HarmonicStep",
    "IterateRecord",
    "PricingTrace",
    "PricedHours",
    "check_loop_args",
    "dual_value",
    "price_hours",
    "run_subgradient",
    "exact_dual",
    "run_lmp",
    "lmp_equilibrium",
    "dispatchable_price",
    "dispatchable_equilibrium",
]

PRICE_FLOOR = 1e-6  # $/MWh; keeps the elastic demand term finite

# most rounds of a price loop; its columns hold rounds x hours floats
MAX_ITERS = 10_000

METHODS = ("chp_subgradient", "chp_exact", "lmp", "dispatchable")
# the methods that iterate, and so read a start price, n_iters and a step
ITERATIVE_METHODS = ("chp_subgradient", "lmp")


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


def check_loop_args(price0: float, n_iters: int) -> None:
    """Refuse a price loop's start price or round count before it allocates."""
    if not PRICE_FLOOR < price0 < math.inf:
        raise ValueError(
            f"start price must be finite and exceed the floor {PRICE_FLOOR}, got {price0}")
    if not 1 <= n_iters <= MAX_ITERS:
        raise ValueError(f"n_iters must be in [1, MAX_ITERS = {MAX_ITERS}], got {n_iters}")


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


@dataclass(frozen=True)
class PricedHours:
    """A method's rows for several hours, as (rows, hours) columns.

    Column j is hours[j].  Row k - 1 is a price loop's round k, one step
    and one clock for all the hours; a closed-form method's one row is
    k = 0, with step and clock 0.  cost is v at each row's demand; it and
    uplift are inf where no commitment covers the demand.
    """

    method: str
    hours: tuple[int, ...]
    step: np.ndarray       # (rows,)
    elapsed_s: np.ndarray  # (rows,) wall clock since loop start
    price: np.ndarray
    demand: np.ndarray
    supply: np.ndarray
    dual_value: np.ndarray
    cost: np.ndarray
    uplift: np.ndarray

    @property
    def first_k(self) -> int:
        """The number of the first row: round 1 of a loop, 0 if closed-form."""
        return 1 if self.method in ITERATIVE_METHODS else 0

    def trace(self, j: int) -> PricingTrace:
        """The iterate records of hours[j]."""
        columns = (self.price[:, j], self.demand[:, j], self.supply[:, j], self.step,
                   self.dual_value[:, j], self.uplift[:, j], self.elapsed_s)
        rows = zip(*(column.tolist() for column in columns))
        records = tuple(IterateRecord(k, *row) for k, row in enumerate(rows, self.first_k))
        return PricingTrace(self.method, records, records[-1].price, records[-1].demand)


def _crossing_price(fleet: Fleet, model: DemandModel, profile: DayProfile,
                    t: int) -> float:
    """exact_dual's price, or the price cap for an hour without a crossing."""
    try:
        return exact_dual(fleet, model, profile, t)[0]
    except InfeasibleError:
        return default_price_cap(fleet)


def price_hours(method: str, fleet: Fleet, model: DemandModel, profile: DayProfile,
                hours, price0: float, n_iters: int, step_rule: HarmonicStep | None,
                quad: QuadraticCost | None = None) -> PricedHours:
    """A method's rows for several hours at once, costed and billed.

    A price loop (chp_subgradient: supply off the fleet's staircase; lmp:
    off the quadratic model quad) takes n_iters rounds p_k = p_{k-1} -
    gamma_k * (supply - demand) from price0, clamped to the floor.  A
    closed-form method takes one row at exact_dual's price, or at the
    price cap where there is no crossing, and reads no price0, n_iters or
    step_rule.  Each hour keeps the float operations of hourly_demand and
    hourly_utility, so it prices as it would alone.  Every row's demand is
    costed (ucp_values) and billed against the fleet in one batch after
    the loop; elapsed_s excludes that time.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method}")
    if method in ITERATIVE_METHODS:
        check_loop_args(price0, n_iters)

    hours = tuple(hours)
    floor, coef = np.array([demand_terms(model, profile, t) for t in hours]).reshape(-1, 2).T
    share = np.array([model.mu2 * (1.0 + profile.noise[t]) for t in hours])
    inelastic = coef == 0.0

    def utility(demand: np.ndarray) -> np.ndarray:
        below = np.where(inelastic, demand < floor - 1e-9, demand <= floor)
        if below.any():
            j = int(below.argmax())
            hourly_utility(model, profile, hours[j], float(demand[j]))  # raises
        logs = [math.log(gap) if gap > 0.0 else 0.0 for gap in (demand - floor).tolist()]
        return np.where(inelastic, model.utility_constant,
                        coef * logs + model.utility_constant)

    def respond(price: np.ndarray) -> tuple[np.ndarray, ...]:
        demand = floor + share * (model.a / price)
        if method == "lmp":
            supply, profit = quad.supply(price), quad.conjugate(price)
        else:
            supply, profit = fleet_supply(fleet, price), conjugate(fleet, price)
        return demand, supply, utility(demand) - price * demand + profit

    start = time.perf_counter()
    if method not in ITERATIVE_METHODS:
        price = np.array([_crossing_price(fleet, model, profile, t) for t in hours])
        rounds = [(0.0, 0.0, price, *respond(price))]
    else:
        price = np.full(len(hours), float(price0))
        demand, supply, _phi = respond(price)
        rounds = []
        for k in range(1, n_iters + 1):
            step = step_rule(k)
            price = np.maximum(price - step * (supply - demand), PRICE_FLOOR)
            demand, supply, phi = respond(price)
            rounds.append((step, time.perf_counter() - start, price, demand, supply, phi))
    steps, elapsed, price, demand, supply, phi = (np.array(c) for c in zip(*rounds))
    cost = ucp_values(fleet, demand.ravel()).reshape(demand.shape)
    return PricedHours(method, hours, steps, elapsed, price, demand, supply, phi, cost,
                       uplifts(fleet, price, demand, cost))


def run_subgradient(fleet: Fleet, model: DemandModel, profile: DayProfile, t: int,
                    price0: float, n_iters: int,
                    step_rule: HarmonicStep) -> PricingTrace:
    """Dynamic pricing by subgradient descent on the hourly dual.

    Starting from price0, each round the suppliers and the consumer report
    their best responses and the price moves against the imbalance: the
    one-hour price_hours.
    """
    return price_hours("chp_subgradient", fleet, model, profile, (t,), price0,
                       n_iters, step_rule).trace(0)


def exact_dual(fleet: Fleet, model: DemandModel, profile: DayProfile,
               t: int) -> tuple[float, float]:
    """Exact dual price: the sign change of supply minus demand.

    Returns (price, demand at that price).  The price is the smallest one
    whose best-response supply covers the demand floor + coef/p:
    a staircase breakpoint, or coef/(s - floor) inside a step of supply s.
    """
    price_cap = default_price_cap(fleet)
    demand_at_cap = hourly_demand(model, profile, t, price_cap)
    prices, supply, _cost = _staircase(fleet)
    # step i supplies levels[i] from starts[i] up to the next start; every
    # breakpoint lies below the cap, so the top level is the supply there
    starts = [PRICE_FLOOR] + prices.tolist()
    levels = supply.tolist()
    if levels[-1] < demand_at_cap:
        raise InfeasibleError(
            f"no crossing: demand {demand_at_cap} MW exceeds supply at the "
            f"price cap {price_cap}")
    floor, coef = demand_terms(model, profile, t)
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
    return price_hours("lmp", uplift_fleet, model, profile, (t,), price0, n_iters,
                       step_rule, quad).trace(0)


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


def dispatchable_price(fleet: Fleet, y):
    """Marginal price of the relaxed-commitment cost at demand y (or each of
    an array of demands)."""
    _value, price = relaxed_value(fleet, y)
    return price


def dispatchable_equilibrium(fleet: Fleet, model: DemandModel, profile: DayProfile,
                             t: int) -> tuple[float, float]:
    """Clear the relaxed merit-order supply curve against hourly demand.

    Relaxed supply is the best-response staircase, so this is the exact
    dual price.
    """
    return exact_dual(fleet, model, profile, t)
