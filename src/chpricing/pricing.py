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
from functools import partial
from typing import NamedTuple

import numpy as np

from .fleet import Fleet, check_integer, check_number
from .hull import default_price_cap, uplifts
from .market import DayProfile, DemandModel, _demand, _hour_terms, _utility
from .ucp import (InfeasibleError, _staircase, conjugate, fleet_supply, quadratic_fit,
                  relaxed_value, ucp_values)

__all__ = [
    "PriceLoop",
    "PricedHours",
    "dual_value",
    "price_hours",
    "run_subgradient",
    "exact_dual",
    "run_lmp",
    "dispatchable_price",
    "dispatchable_equilibrium",
]

PRICE_FLOOR = 1e-6  # $/MWh; keeps the elastic demand term finite

# most rounds of a price loop; its columns hold rounds x hours floats
MAX_ITERS = 10_000

METHODS = ("chp_subgradient", "chp_exact", "lmp", "dispatchable")
# the methods that iterate, and so take a PriceLoop
ITERATIVE_METHODS = ("chp_subgradient", "lmp")


@dataclass(frozen=True)
class PriceLoop:
    """An iterative method's start price, round count and step coefficient:
    round k steps by step_coef / k.  Checked before any loop."""

    price0: float
    n_iters: int
    step_coef: float

    def __post_init__(self) -> None:
        check_number("price0", self.price0)
        if not PRICE_FLOOR < self.price0 < math.inf:
            raise ValueError(f"start price must be finite and exceed the floor "
                             f"{PRICE_FLOOR}, got {self.price0}")
        check_integer("n_iters", self.n_iters)
        if not 1 <= self.n_iters <= MAX_ITERS:
            raise ValueError(
                f"n_iters must be in [1, MAX_ITERS = {MAX_ITERS}], got {self.n_iters}")
        check_number("coef", self.step_coef)
        if not 0 < self.step_coef < math.inf:
            raise ValueError(f"step coefficient must be finite and > 0, got {self.step_coef}")


def _check_loop(method: str, loop: PriceLoop | None) -> None:
    """Refuse an unknown method, a loop on a closed-form method and a
    missing loop on an iterative one."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method}")
    if not isinstance(loop, (PriceLoop, type(None))):
        raise ValueError(f"loop must be None or a PriceLoop, got {loop!r}")
    if (loop is None) == (method in ITERATIVE_METHODS):
        raise ValueError(f"{method} needs a PriceLoop" if loop is None
                         else f"{method} is closed-form and takes no PriceLoop")


def dual_value(fleet: Fleet, model: DemandModel, profile: DayProfile, t: int,
               price: float) -> tuple[float, float]:
    """(phi, subgradient) of the hourly dual at a price.

    phi carries the utility's additive constant; the subgradient is
    supply minus demand, positive when the price is above the crossing.
    The price may sit on the floor, where a closed-form crossing can land.
    """
    check_number("price", price)
    if not PRICE_FLOOR <= price < math.inf:
        raise ValueError(
            f"price must be finite and at least the floor {PRICE_FLOOR}, got {price}")
    demand, supply, phi, _gross = _respond(
        model, _hour_terms(model, profile, (t,)), np.array([price], dtype=float),
        partial(fleet_supply, fleet), partial(conjugate, fleet))
    return phi[0].item(), (supply - demand)[0].item()


def _respond(model: DemandModel, terms, price: np.ndarray, supply_at, profit_at
             ) -> tuple[np.ndarray, ...]:
    """(demand, supply, phi, gross utility) of hours with terms (floor, share,
    coef) at prices whose last axis is the hours, with the supplier's reads
    of supply and profit at a price."""
    demand, supply, profit = _demand(model, terms, price), supply_at(price), profit_at(price)
    utility = _utility(model, terms, demand)
    return demand, supply, utility - price * demand + profit, utility


class PricedHours(NamedTuple):
    """A method's rows for several hours, as (rows, hours) columns.

    Column j is hours[j].  Row k - 1 is a price loop's round k, one step
    and one clock for all the hours; a closed-form method's one row is
    k = 0, with step and clock 0.  utility (gross) and cost (v) are of each
    row's demand; cost and uplift are inf where no commitment covers it.
    """

    method: str
    hours: tuple[int, ...]
    step: np.ndarray       # (rows,)
    elapsed_s: np.ndarray  # (rows,) wall clock since loop start
    price: np.ndarray
    demand: np.ndarray
    supply: np.ndarray
    dual_value: np.ndarray
    utility: np.ndarray
    cost: np.ndarray
    uplift: np.ndarray

    @property
    def first_k(self) -> int:
        """The number of the first row: round 1 of a loop, 0 if closed-form."""
        return 1 if self.method in ITERATIVE_METHODS else 0


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
                hours, loop: PriceLoop | None = None) -> PricedHours:
    """A method's rows for several hours at once, costed and billed.

    A price loop (chp_subgradient: supply off the fleet's staircase; lmp:
    off quadratic_fit(fleet), fitted before the clock starts) takes the
    loop's n_iters rounds p_k = p_{k-1} - step_coef/k * (supply - demand) from
    its price0, clamped to the floor; a round only steps, and elapsed_s
    clocks the steps.  A closed-form method takes no loop and one row at
    the exact dual price, or at the price cap where there is no crossing.
    Each hour prices as it would alone: dual_value and exact_dual are the
    one-hour calls.  Then one _respond pass reports every row, and one
    ucp_values batch costs every row's demand.
    """
    _check_loop(method, loop)
    hours = tuple(hours)
    terms = _hour_terms(model, profile, hours)
    if method == "lmp":
        quad = quadratic_fit(fleet)
        supply_at, profit_at = quad.supply, quad.conjugate
    else:
        supply_at, profit_at = partial(fleet_supply, fleet), partial(conjugate, fleet)
    start = time.perf_counter()
    if loop is None:
        rounds = [(0.0, 0.0, _crossing_prices(fleet, model, terms)[0])]
    else:
        price = np.full(len(hours), float(loop.price0))
        rounds = []
        for k in range(1, loop.n_iters + 1):
            step = loop.step_coef / k
            excess = supply_at(price) - _demand(model, terms, price)
            price = np.maximum(price - step * excess, PRICE_FLOOR)
            rounds.append((step, time.perf_counter() - start, price))
    steps, elapsed, price = (np.array(c) for c in zip(*rounds))
    demand, supply, phi, utility = _respond(model, terms, price, supply_at, profit_at)
    cost = ucp_values(fleet, demand.ravel()).reshape(demand.shape)
    return PricedHours(method, hours, steps, elapsed, price, demand, supply, phi, utility,
                       cost, uplifts(fleet, price, demand, cost))


def run_subgradient(fleet: Fleet, model: DemandModel, profile: DayProfile, t: int,
                    price0: float, n_iters: int, step_coef: float) -> PricedHours:
    """Dynamic pricing by subgradient descent on the hourly dual.

    Starting from price0, each round the suppliers and the consumer report
    their best responses and the price moves against the imbalance: the
    one-hour price_hours, whose rows are the rounds.
    """
    return price_hours("chp_subgradient", fleet, model, profile, (t,),
                       PriceLoop(price0, n_iters, step_coef))


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


def run_lmp(fleet: Fleet, model: DemandModel, profile: DayProfile, t: int,
            price0: float, n_iters: int, step_coef: float) -> PricedHours:
    """The same price iteration with the fleet's fitted convex cost model supplying.

    Supply comes from the marginal-cost curve of quadratic_fit(fleet).  The
    per-iterate uplift is priced against the true nonconvex fleet, which is
    what the convex model's prices will actually have to pay.  Returns the
    one-hour price_hours.
    """
    return price_hours("lmp", fleet, model, profile, (t,),
                       PriceLoop(price0, n_iters, step_coef))


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
