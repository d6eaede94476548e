"""Price formation: dual descent, exact dual prices, and convex baselines.

The hourly partial dual is phi(p) = [U(D(p)) - p*D(p)] + conjugate(p),
convex in the price with subgradient supply(p) - demand(p).  The dynamic
pricing loop walks down phi with diminishing steps; the exact dual price
is the sign change of the subgradient, read for all hours at once off the
fleet's supply staircase, which is also relaxed (dispatchable) supply.
Each formula is written once, over arrays of hours (_respond for phi,
_crossing_prices); dual_value and exact_dual call them for one hour.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fleet import Fleet
from .hull import default_price_cap, uplifts
from .market import DayProfile, DemandModel, _demand, _hour_terms, _utility, hourly_demand
from .ucp import (InfeasibleError, QuadraticCost, _staircase, conjugate, fleet_supply,
                  relaxed_value, ucp_values)

__all__ = [
    "HarmonicStep",
    "IterateRecord",
    "PricingTrace",
    "PricedHours",
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


class IterateRecord(NamedTuple):
    """One accepted iterate of a price-formation loop."""

    k: int
    price: float       # $/MWh, after the k-th update
    demand: float      # MW at this price
    supply: float      # MW at this price
    step: float        # step size used to produce this price
    dual_value: float  # phi at this price
    uplift: float      # lost-profit payment at (price, demand); inf if demand infeasible
    elapsed_s: float = 0.0  # wall clock since loop start; excluded from determinism


class PricingTrace(NamedTuple):
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
    demand, supply, phi = _respond(fleet, model, _hour_terms(model, profile, (t,)),
                                   np.array([price], dtype=float))
    return phi[0].item(), (supply - demand)[0].item()


def _respond(fleet: Fleet, model: DemandModel, terms, price: np.ndarray,
             quad: QuadraticCost | None = None) -> tuple[np.ndarray, ...]:
    """(demand, supply, phi) of hours with terms (floor, share, coef) at their
    prices; supply and profit come off the fleet's staircase, or off quad."""
    demand = _demand(model, terms, price)
    if quad is None:
        supply, profit = fleet_supply(fleet, price), conjugate(fleet, price)
    else:
        supply, profit = quad.supply(price), quad.conjugate(price)
    return demand, supply, _utility(model, terms, demand) - price * demand + profit


class PricedHours(NamedTuple):
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


def _crossing_prices(fleet: Fleet, model: DemandModel, terms
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Exact dual prices of hours with terms (floor, share, coef): the sign
    change of supply minus demand.  Also which hours have no crossing (demand
    at the price cap above the top level); they are priced at the cap.
    Step i supplies levels[i] from starts[i] up to the next breakpoint.  An
    hour crosses at the first step whose level covers demand at its start,
    or, above the floor, inside the step at coef/(level - floor).
    """
    prices, levels, _cost = _staircase(fleet)
    starts = np.maximum(np.append(PRICE_FLOOR, prices), PRICE_FLOOR)
    floor, _share, coef = column = tuple(term[:, None] for term in terms)
    at_start = levels >= _demand(model, column, starts)
    above = levels > floor
    inside = np.maximum(starts, coef / np.where(above, levels - floor, 1.0))
    # an inside crossing lies below the next breakpoint (none above the top step)
    crossed = at_start | (above & (inside < np.append(prices, np.inf)))
    # an hour that crosses nowhere has no crossing at the cap either
    first = crossed.argmax(axis=1)
    price = np.where(at_start, starts, inside)[np.arange(len(first)), first]
    cap = default_price_cap(fleet)
    uncrossed = levels[-1] < _demand(model, terms, cap)
    return np.where(uncrossed, cap, price), uncrossed


def price_hours(method: str, fleet: Fleet, model: DemandModel, profile: DayProfile,
                hours, price0: float, n_iters: int, step_rule: HarmonicStep | None,
                quad: QuadraticCost | None = None) -> PricedHours:
    """A method's rows for several hours at once, costed and billed.

    A price loop (chp_subgradient: supply off the fleet's staircase; lmp:
    off the quadratic model quad) takes n_iters rounds p_k = p_{k-1} -
    gamma_k * (supply - demand) from price0, clamped to the floor.  A
    closed-form method takes one row at the exact dual price, or at the
    price cap where there is no crossing, and reads no price0, n_iters or
    step_rule.  Each hour prices as it would alone: dual_value and
    exact_dual are the one-hour calls.  Every row's demand is costed
    (ucp_values) and billed against the fleet in one batch after the
    loop; elapsed_s excludes that time.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method}")
    if method in ITERATIVE_METHODS:
        check_loop_args(price0, n_iters)
    if (quad is None) == (method == "lmp"):
        raise ValueError("quad, the quadratic cost model, is for lmp and lmp alone")

    hours = tuple(hours)
    terms = _hour_terms(model, profile, hours)
    start = time.perf_counter()
    if method not in ITERATIVE_METHODS:
        price = _crossing_prices(fleet, model, terms)[0]
        rounds = [(0.0, 0.0, price, *_respond(fleet, model, terms, price))]
    else:
        price = np.full(len(hours), float(price0))
        demand, supply, _phi = _respond(fleet, model, terms, price, quad)
        rounds = []
        for k in range(1, n_iters + 1):
            step = step_rule(k)
            price = np.maximum(price - step * (supply - demand), PRICE_FLOOR)
            demand, supply, phi = _respond(fleet, model, terms, price, quad)
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
    """(exact dual price, demand there) of hour t: the one-hour _crossing_prices.
    Raises InfeasibleError where demand at the price cap exceeds capacity."""
    terms = _hour_terms(model, profile, (t,))
    price, uncrossed = _crossing_prices(fleet, model, terms)  # the cap if uncrossed
    price, demand = price[0].item(), _demand(model, terms, price)[0].item()
    if uncrossed[0]:
        raise InfeasibleError(
            f"no crossing: demand {demand} MW exceeds supply at the price cap {price}")
    return price, demand


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
    floor, _share, coef = (term.item() for term in _hour_terms(model, profile, (t,)))
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
    """The relaxed merit-order supply curve is the best-response staircase,
    so it clears hourly demand at the exact dual price."""
    return exact_dual(fleet, model, profile, t)
