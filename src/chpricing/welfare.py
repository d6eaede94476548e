"""Hourly settlement at a posted price, and daily aggregation."""
from __future__ import annotations

import math
from typing import NamedTuple

from .fleet import Fleet
from .hull import uplifts
from .market import HOURS, DayProfile, DemandModel, hourly_demand, hourly_utility
from .ucp import ucp_value

__all__ = ["HourResult", "DaySummary", "settle_hour", "summarize_day"]


class HourResult(NamedTuple):
    """Settlement of one hour at a posted price.

    Accounting identities, by construction:
      social_welfare  = utility_gross - supply_cost
      supplier_profit = price*demand - supply_cost
      utility_net     = utility_gross - price*demand
      social_welfare  = utility_net + supplier_profit
    """

    t: int
    price: float          # $/MWh
    demand: float         # MW, cleared at the price
    supply_cost: float    # $, exact commitment cost at the demand
    uplift: float         # $
    utility_gross: float  # $
    utility_net: float    # $
    supplier_profit: float  # $
    social_welfare: float   # $


class DaySummary(NamedTuple):
    price_min: float
    price_mean: float
    price_max: float
    total_demand: float
    total_utility_gross: float
    total_utility_net: float
    total_supplier_profit: float
    total_social_welfare: float
    total_uplift: float


def settle_hour(fleet: Fleet, model: DemandModel, profile: DayProfile, t: int,
                price: float) -> HourResult:
    """Settle hour t at a posted price, as a day settles its final row.

    Demand follows the consumer best response; supply cost is the exact
    commitment cost of serving it.  Raises InfeasibleError when no
    commitment covers the demand (above capacity or in a gap between
    minimum outputs), where a day marks the hour infeasible.
    """
    if not price > 0:
        raise ValueError(f"settlement price must be > 0, got {price}")
    demand = hourly_demand(model, profile, t, price)
    cost, _dispatch = ucp_value(fleet, demand)
    return hour_result(t, price, demand, cost, float(uplifts(fleet, price, demand, cost)),
                       hourly_utility(model, profile, t, demand))


def hour_result(t: int, price: float, demand: float, cost: float, uplift: float,
                utility_gross: float) -> HourResult:
    """The settlement of an hour cleared at (price, demand) and costing cost."""
    revenue = price * demand
    return HourResult(
        t=t,
        price=price,
        demand=demand,
        supply_cost=cost,
        uplift=uplift,
        utility_gross=utility_gross,
        utility_net=utility_gross - revenue,
        supplier_profit=revenue - cost,
        social_welfare=utility_gross - cost,
    )


def summarize_day(results: list[HourResult]) -> DaySummary:
    """Aggregate exactly 24 hourly settlements."""
    if len(results) != HOURS:
        raise ValueError(f"a day has {HOURS} hourly results, got {len(results)}")
    prices = [r.price for r in results]
    return DaySummary(
        price_min=min(prices),
        price_mean=math.fsum(prices) / len(prices),
        price_max=max(prices),
        total_demand=math.fsum(r.demand for r in results),
        total_utility_gross=math.fsum(r.utility_gross for r in results),
        total_utility_net=math.fsum(r.utility_net for r in results),
        total_supplier_profit=math.fsum(r.supplier_profit for r in results),
        total_social_welfare=math.fsum(r.social_welfare for r in results),
        total_uplift=math.fsum(r.uplift for r in results),
    )
