"""Independent brute-force reference implementations used by the tests.

Everything here recomputes fleet economics from the raw problem
statement (grids, enumeration, min-plus convolution) without touching
the library's merit-order or closed-form shortcuts, so agreement is
meaningful.  Grids use integer-friendly steps; the builtin fixtures
have integer segment capacities and minimum outputs, which makes the
grid optima exact there.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from bisect import bisect_left, bisect_right

import numpy as np

from chpricing import (CostSegment, DayProfile, DemandModel, Fleet, GeneratorType,
                       InfeasibleError, QuadraticCost, default_price_cap)
from chpricing.pricing import PRICE_FLOOR
from chpricing.ucp import FEAS_EPS, relaxed_blocks


def segment_fill_cost(gtype: GeneratorType, g: float) -> float:
    """Variable cost of one unit producing g, filling segments in order."""
    cost, rem = 0.0, g
    for seg in gtype.segments:
        take = min(rem, seg.capacity)
        cost += take * seg.marginal_cost
        rem -= take
    return cost


def committed_cost(fleet: Fleet, counts: tuple[int, ...], y: float) -> float:
    """Startup plus cheapest dispatch cost of one commitment at demand y.

    The pure-Python merit-order fill: every committed unit runs at its
    minimum output, and the residual takes the free segment capacity
    cheapest first (ties by type, then segment), the units of a type
    sharing equally.  Summed in the library's order, so the float is
    exactly the library's.  Raises InfeasibleError when the commitment's
    output range misses y.
    """
    floor = ceil = 0.0
    for gtype, n in zip(fleet.types, counts):
        floor += n * gtype.min_output
        ceil += n * gtype.max_output
    if not floor - FEAS_EPS <= y <= ceil + FEAS_EPS:
        raise InfeasibleError(f"commitment {counts} cannot meet {y} MW")
    blocks = []
    for ti, gtype in enumerate(fleet.types):
        below_min = gtype.min_output
        for seg in gtype.segments:
            used = min(below_min, seg.capacity)
            below_min -= used
            if seg.capacity - used > 0.0:
                blocks.append((seg.marginal_cost, ti, seg.capacity - used))
    blocks.sort(key=lambda block: block[:2])
    residual = max(y - floor, 0.0)
    extra = [0.0] * len(fleet.types)
    for _cost, ti, free in blocks:
        take = min(residual, free * counts[ti])
        extra[ti] += take
        residual -= take
    cost = 0.0
    for gtype, n, add in zip(fleet.types, counts, extra):
        if n:
            g = min(gtype.min_output + add / n, gtype.max_output)
            cost += n * (gtype.startup_cost + segment_fill_cost(gtype, g))
    return cost


def unit_cost_grid(gtype: GeneratorType, step: float) -> np.ndarray:
    """Cost of one committed unit on the output grid; +inf below min_output."""
    n = round(gtype.max_output / step)
    out = np.full(n + 1, np.inf)
    lo = math.ceil(gtype.min_output / step - 1e-9)
    for i in range(lo, n + 1):
        out[i] = segment_fill_cost(gtype, i * step)
    return out


def minplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.full(a.size + b.size - 1, np.inf)
    for i, av in enumerate(a):
        if np.isfinite(av):
            out[i:i + b.size] = np.minimum(out[i:i + b.size], av + b)
    return out


def commitment_cost_grid(fleet: Fleet, counts: tuple[int, ...],
                         step: float) -> np.ndarray:
    """Startup plus optimal dispatch cost of one commitment, on the y grid."""
    acc = np.zeros(1)
    startup = 0.0
    for gtype, n in zip(fleet.types, counts):
        unit = unit_cost_grid(gtype, step)
        for _ in range(n):
            acc = minplus(acc, unit)
        startup += n * gtype.startup_cost
    return acc + startup


def fleet_value_grid(fleet: Fleet, step: float) -> np.ndarray:
    """v on the y grid: exhaustive commitment enumeration over count vectors."""
    size = round(fleet.total_capacity / step) + 1
    best = np.full(size, np.inf)
    for counts in itertools.product(
            *[range(t.unit_count + 1) for t in fleet.types]):
        grid = commitment_cost_grid(fleet, counts, step)
        m = min(size, grid.size)
        best[:m] = np.minimum(best[:m], grid[:m])
    return best


def grid_hull(values: np.ndarray, step: float) -> np.ndarray:
    """Biconjugate of a grid function: its lower convex envelope on the grid.

    Monotone-chain lower hull over the finite grid points, interpolated
    back onto the grid; +inf entries are outside the domain.
    """
    hull: list[tuple[float, float]] = []
    for i, v in enumerate(values):
        if not np.isfinite(v):
            continue
        p = (i * step, float(v))
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    xs, ys = zip(*hull)
    return np.interp(np.arange(values.size) * step, xs, ys)


def unit_best_response_grid(gtype: GeneratorType, price: float,
                            step: float = 0.01) -> tuple[float, float]:
    """One unit's profit-maximal (supply, profit) by grid search over g.

    Ties in profit resolve to the largest output, matching the library's
    maximal-supply convention.
    """
    best_profit, best_g = 0.0, 0.0
    n = round(gtype.max_output / step)
    lo = math.ceil(gtype.min_output / step - 1e-9)
    for i in range(lo, n + 1):
        g = i * step
        profit = price * g - segment_fill_cost(gtype, g) - gtype.startup_cost
        if profit > best_profit + 1e-12 or (
                profit > best_profit - 1e-12 and g > best_g):
            best_profit, best_g = profit, g
    if best_profit < -1e-12:
        return 0.0, 0.0
    return best_g, max(best_profit, 0.0)


def relaxed_unit_grid(gtype: GeneratorType, g: float,
                      z_steps: int = 40000) -> float:
    """Relaxed per-unit cost by grid search over the commitment level z."""
    if g == 0.0:
        return 0.0
    z_lo = g / gtype.max_output
    z_hi = 1.0 if gtype.min_output == 0 else min(1.0, g / gtype.min_output)
    if z_lo > z_hi + 1e-12:
        return math.inf
    best = math.inf
    for j in range(z_steps + 1):
        z = z_lo + (z_hi - z_lo) * j / z_steps
        cost, rem = gtype.startup_cost * z, g
        for seg in gtype.segments:
            take = min(rem, seg.capacity * z)
            cost += take * seg.marginal_cost
            rem -= take
        if rem <= 1e-9:
            best = min(best, cost)
    return best


def reduced_scarf(fleet: Fleet, per_type: int = 2) -> Fleet:
    return Fleet(tuple(dataclasses.replace(t, unit_count=per_type)
                       for t in fleet.types))


def seeded_wide_fleet(min_outputs: bool) -> Fleet:
    """The seeded fleet of 18 single-unit, one-segment types (262,144
    commitments, a table under MAX_TABLE_CELLS on which a grid costs tens
    of seconds).

    The draws of random.seed(1), in a fixed order per type: startup cost
    U(10, 500), minimum output U(1, 5) (drawn either way, kept only with
    min_outputs, else 0), then the segment's cost U(5, 60) and capacity
    U(6, 20).  With minimum outputs no commitment covers (0, 1) MW.
    """
    rng = random.Random(1)
    types = []
    for i in range(18):
        startup, minimum = rng.uniform(10.0, 500.0), rng.uniform(1.0, 5.0)
        segment = CostSegment(rng.uniform(5.0, 60.0), rng.uniform(6.0, 20.0))
        types.append(GeneratorType(f"T{i}", startup, minimum if min_outputs else 0.0,
                                   (segment,)))
    return Fleet(tuple(types))


def synthetic_profile_bisected(low: float, mean: float, high: float
                               ) -> tuple[float, ...]:
    """market.synthetic_profile with all 200 steps of its power bisection.

    The library stops once the bracket stops moving; every later step
    would leave it as it is, so the two must agree to the bit.
    """
    shape = [0.5 * (1.0 + math.sin(2.0 * math.pi * (t - 9.0) / 24.0))
             for t in range(24)]
    theta = (mean - low) / (high - low)
    lo_p, hi_p = 1e-8, 1e8
    for _ in range(200):
        mid = math.sqrt(lo_p * hi_p)
        if sum(s ** mid for s in shape) / 24 > theta:
            lo_p = mid
        else:
            hi_p = mid
    power = math.sqrt(lo_p * hi_p)
    return tuple(low + (high - low) * s ** power for s in shape)


def staircase_tuples(fleet: Fleet) -> tuple[tuple[float, ...], ...]:
    """The supply staircase as tuples (prices, supply, cost), no 0 step in
    front, summed block by block in merit order."""
    blocks = sorted((slope, ti, bi, width * gtype.unit_count)
                    for ti, gtype in enumerate(fleet.types)
                    for bi, (slope, width) in enumerate(relaxed_blocks(gtype)))
    prices: list[float] = []
    supply: list[float] = []
    cost: list[float] = []
    total = filled = 0.0
    for slope, _ti, _bi, width in blocks:
        total += width
        filled += slope * width
        if prices and prices[-1] == slope:
            supply[-1], cost[-1] = total, filled
        else:
            prices.append(slope)
            supply.append(total)
            cost.append(filled)
    return tuple(prices), tuple(supply), tuple(cost)


def fleet_supply_bisected(fleet: Fleet, price: float) -> float:
    """Best-response supply by bisect on the tuple staircase (upper step at a
    breakpoint)."""
    prices, supply, _cost = staircase_tuples(fleet)
    i = bisect_right(prices, price)
    return supply[i - 1] if i else 0.0


def conjugate_bisected(fleet: Fleet, price: float) -> float:
    """Best-response profit by bisect on the tuple staircase."""
    prices, supply, cost = staircase_tuples(fleet)
    i = bisect_right(prices, price) - 1
    return price * supply[i] - cost[i] if i >= 0 else 0.0


def _bisect_demand(fleet: Fleet, y: float) -> tuple[float, int, int]:
    """(clamped y, reaching step, first step above) by bisect; refuses a
    demand outside [0, capacity] and NaN."""
    capacity = fleet.total_capacity
    if not -FEAS_EPS <= y <= capacity + FEAS_EPS:
        raise InfeasibleError(
            f"demand {y} outside feasible range [0, {capacity}] MW")
    y = min(max(y, 0.0), capacity)
    _prices, supply, _cost = staircase_tuples(fleet)
    reach = min(bisect_left(supply, y - FEAS_EPS), len(supply) - 1)
    return y, reach, bisect_right(supply, y + FEAS_EPS)


def relaxed_value_bisected(fleet: Fleet, y: float) -> tuple[float, float]:
    """Relaxed cost and right-hand marginal price at y, by bisect."""
    prices, supply, cost = staircase_tuples(fleet)
    y, i, above = _bisect_demand(fleet, y)
    below_cost, below_mw = (cost[i - 1], supply[i - 1]) if i else (0.0, 0.0)
    return below_cost + prices[i] * (y - below_mw), prices[min(above, len(prices) - 1)]


def hull_interval_bisected(fleet: Fleet, y: float) -> tuple[float, float]:
    """The hull's supporting price interval at y, by bisect: 0 at y = 0 and
    the default price cap past the top step."""
    prices, _supply, _cost = staircase_tuples(fleet)
    y, reach, above = _bisect_demand(fleet, y)
    lo = 0.0 if y <= FEAS_EPS else prices[reach]
    hi = default_price_cap(fleet) if above == len(prices) else prices[above]
    return lo, hi


def inelastic_share(model: DemandModel, profile: DayProfile, t: int) -> float:
    """mu1 * nu * d1[t]: hour t's price-insensitive demand floor (MW)."""
    return model.mu1 * model.nu * profile.base_demand[t]


def hourly_demand_scalar(model: DemandModel, profile: DayProfile, t: int,
                         price: float) -> float:
    """Demand at hour t and a price, in Python floats: floor + share * a/price."""
    floor = inelastic_share(model, profile, t)
    return floor + model.mu2 * (1.0 + profile.noise[t]) * (model.a / price)


def hourly_utility_scalar(model: DemandModel, profile: DayProfile, t: int,
                          demand: float) -> float:
    """Gross utility of hour t at a demand, in Python floats; ValueError at or
    below the floor (less 1e-9 for a price-inelastic hour)."""
    floor = inelastic_share(model, profile, t)
    coef = model.a * model.mu2 * (1.0 + profile.noise[t])
    if coef == 0.0:
        if not demand >= floor - 1e-9:
            raise ValueError(f"demand {demand} below the inelastic floor {floor}")
        return model.utility_constant
    if not demand > floor:
        raise ValueError(
            f"utility undefined at demand {demand} <= inelastic floor {floor}")
    return coef * math.log(demand - floor) + model.utility_constant


def lmp_equilibrium(quad: QuadraticCost, model: DemandModel, profile: DayProfile,
                    t: int) -> tuple[float, float]:
    """Exact crossing of the quadratic supply curve with hour t's demand.

    Below capacity, (p - beta)/(2 alpha) = floor + coef/p: the positive
    root of p^2 - b p - c with b = beta + 2 alpha floor, c = 2 alpha coef.
    Past capacity, demand falls to capacity at p = coef/(capacity - floor).
    """
    floor = inelastic_share(model, profile, t)
    coef = model.a * model.mu2 * (1.0 + profile.noise[t])
    b = quad.beta + 2.0 * quad.alpha * floor
    price = 0.5 * (b + math.sqrt(b * b + 8.0 * quad.alpha * coef))
    if price > quad.beta + 2.0 * quad.alpha * quad.capacity:
        if quad.capacity <= floor:
            raise InfeasibleError("no crossing for the quadratic supply curve")
        price = coef / (quad.capacity - floor)
    price = max(price, PRICE_FLOOR)
    return price, hourly_demand_scalar(model, profile, t, price)


def exact_dual_scanned(fleet: Fleet, model: DemandModel, profile: DayProfile,
                       t: int) -> tuple[float, float]:
    """The exact dual of hour t by a scan of the tuple staircase, level by level.

    Level i is supplied from starts[i] (the price floor below the first
    breakpoint) up to the next breakpoint.  The first level that covers
    demand at its start, or that demand falls to at coef/(level - floor)
    before the next breakpoint, is the crossing.  Raises InfeasibleError
    where demand at the price cap exceeds the top level.
    """
    price_cap = default_price_cap(fleet)
    demand_at_cap = hourly_demand_scalar(model, profile, t, price_cap)
    prices, supply, _cost = staircase_tuples(fleet)
    starts = [PRICE_FLOOR, *prices]
    levels = [0.0, *supply]
    if levels[-1] < demand_at_cap:
        raise InfeasibleError(
            f"no crossing: demand {demand_at_cap} MW exceeds supply at the "
            f"price cap {price_cap}")
    floor = inelastic_share(model, profile, t)
    coef = model.a * model.mu2 * (1.0 + profile.noise[t])
    for i, level in enumerate(levels):
        price = max(starts[i], PRICE_FLOOR)
        if level >= hourly_demand_scalar(model, profile, t, price):
            break
        if level > floor:
            price = max(price, coef / (level - floor))
            if i + 1 == len(levels) or price < starts[i + 1]:
                break
    return price, hourly_demand_scalar(model, profile, t, price)


def milp_value(fleet: Fleet, y: float) -> float:
    """v(y) as a mixed-integer program solved by HiGHS (scipy.optimize.milp),
    +inf where it is infeasible; independent of any commitment enumeration.

    Integer n_t in [0, unit_count_t] units of each type, and MW s_tj >= 0 on
    each segment, with s_tj <= n_t * capacity_tj, sum_j s_tj >= n_t *
    min_output_t and sum s = y; minimise sum n_t * startup_t + sum c_tj *
    s_tj.  Segment costs are nondecreasing, so the LP fills them in order,
    and the units of a type share its output at no extra cost, as _fill
    assumes.  Only mip_rel_gap is set (to 0): HiGHS's primal feasibility
    tolerance stays at its default 1e-7, as milp takes no option for it.
    """
    # imported here: only the tests that compare against it pay for scipy
    from scipy.optimize import Bounds, LinearConstraint, milp

    types = fleet.types
    owner = np.array([ti for ti, gtype in enumerate(types) for _seg in gtype.segments])
    segments = [seg for gtype in types for seg in gtype.segments]
    # columns: n_t, then s_tj; rows: s_tj <= n_t * capacity_tj (one per
    # segment), sum_j s_tj >= n_t * min_output_t (one per type), sum s = y
    owned = (owner == np.arange(len(types))[:, None]).astype(float)
    capacity_rows = np.hstack([-owned.T * [[seg.capacity] for seg in segments],
                               np.eye(len(segments))])
    minimum_rows = np.hstack([-np.diag([gtype.min_output for gtype in types]), owned])
    balance_row = np.concatenate([np.zeros(len(types)), np.ones(len(segments))])
    result = milp([gtype.startup_cost for gtype in types] + [seg.marginal_cost
                                                              for seg in segments],
                  integrality=[1] * len(types) + [0] * len(segments),
                  bounds=Bounds(0.0, [gtype.unit_count for gtype in types]
                                + [np.inf] * len(segments)),
                  constraints=[LinearConstraint(capacity_rows, -np.inf, 0.0),
                               LinearConstraint(minimum_rows, 0.0, np.inf),
                               LinearConstraint(balance_row, y, y)],
                  options={"mip_rel_gap": 0})
    if result.status == 2:
        return math.inf
    if result.status != 0:
        raise RuntimeError(f"milp did not solve v({y}): {result.message}")
    return result.fun
