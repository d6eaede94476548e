"""Convex hull of the unit commitment value function, and hull prices.

Everything is read off the fleet's one supply staircase (``ucp._staircase``,
read at prices by ``ucp.fleet_supply`` and ``ucp.conjugate``).  The hull
value at demand y is max over prices of price*y - conjugate(price), a
concave piecewise linear function whose derivative is y minus the
best-response supply.  For independent units the hull is the relaxed
merit-order cost (``ucp.relaxed_value``), and the maximizing prices are
breakpoints of the staircase: the first whose cumulative supply reaches
y, up to the first whose supply exceeds y.  The hull value and that
interval come from one np.searchsorted pair per demand, the one the
relaxed cost reads; the hull price takes a demand or an array of demands.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .fleet import Fleet
from .ucp import (FEAS_EPS, _like, _locate, _staircase, conjugate, ucp_value,
                  ucp_values)

__all__ = [
    "HullPoint",
    "default_price_cap",
    "hull_value",
    "chp_fixed_demand",
    "uplift",
    "uplifts",
]

# default tolerance of bisect_first_true ($/MWh)
PRICE_TOL = 1e-9


class HullPoint(NamedTuple):
    """Hull value at one demand, with the supporting price interval.

    [price_lo, price_hi] is the set of prices whose best-response supply
    brackets the demand; every price in it supports the hull at demand.
    """

    demand: float      # MW
    hull_value: float  # $
    price_lo: float    # $/MWh
    price_hi: float    # $/MWh


# not public; kept because perfbench/tracing.py wraps it by name
def bisect_first_true(pred: Callable[[float], bool], lo: float, hi: float,
                      tol: float = PRICE_TOL) -> float:
    """Smallest x in [lo, hi] with pred(x), for pred monotone false -> true.

    Assumes pred(hi) holds; returns lo immediately when pred(lo) holds.
    """
    if pred(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=None)
def default_price_cap(fleet: Fleet) -> float:
    """A price at which every unit runs flat out.

    Above the worst segment cost plus the startup cost spread over the
    smallest segment, every unit's committed profit is strictly positive.
    """
    worst = 0.0
    for gtype in fleet.types:
        top_cost = max(s.marginal_cost for s in gtype.segments)
        min_cap = min(s.capacity for s in gtype.segments)
        worst = max(worst, top_cost + gtype.startup_cost / min_cap)
    return worst + 1.0


def _supporting_prices(fleet: Fleet, y) -> tuple[np.ndarray, ...]:
    """(clamped demands, relaxed cost, price_lo, price_hi) at y, from _locate."""
    ys, reach, above, value = _locate(fleet, y)
    # past the top step is default_price_cap, which every breakpoint lies below
    steps = np.append(_staircase(fleet)[0], default_price_cap(fleet))
    return ys, value, np.where(ys <= FEAS_EPS, 0.0, steps[reach]), steps[above]


def hull_value(fleet: Fleet, y) -> HullPoint:
    """Hull value and supporting price interval at demand y (fields of
    arrays for an array of demands).

    price_lo is the smallest price whose best-response supply reaches y;
    price_hi the first breakpoint whose supply exceeds y.  Both are
    breakpoints of the supply staircase, except that the interval starts
    at 0 when y = 0 and ends at the default price cap when y is the
    fleet's capacity.  Every breakpoint lies below that cap, where the
    whole fleet supplies.  The hull value is the relaxed cost at y, read
    off the same staircase.  Raises InfeasibleError when y lies outside
    [0, capacity].
    """
    ys, value, lo, hi = _supporting_prices(fleet, y)
    return HullPoint(*(_like(ys, x) for x in (ys, value, lo, hi)))


def chp_fixed_demand(fleet: Fleet, y):
    """Hull price at a fixed demand (or each of an array of demands): the
    midpoint of the supporting interval."""
    ys, _value, lo, hi = _supporting_prices(fleet, y)
    return _like(ys, 0.5 * (lo + hi))


def uplift(fleet: Fleet, price: float, y: float) -> float:
    """Lost-profit payment that makes the scheduled outcome incentive compatible:
    one pair of uplifts, costed by ucp_value, so a demand y that no
    commitment covers raises InfeasibleError."""
    return float(uplifts(fleet, price, y, ucp_value(fleet, y)[0]))


def uplifts(fleet: Fleet, prices, demands, values=None) -> np.ndarray:
    """Uplift conjugate(price) - (price*y - v(y)) at each (price, demand y): the
    fleet's best attainable profit at the price minus what it earns producing
    y, nonnegative and zero exactly where the price supports v at y.  v comes
    from one batched ucp_values (+inf where no commitment covers y), or from
    values where the caller has costed y."""
    prices = np.asarray(prices, dtype=float)
    demands = np.asarray(demands, dtype=float)
    return conjugate(fleet, prices) - (
        prices * demands - (ucp_values(fleet, demands) if values is None else values))
