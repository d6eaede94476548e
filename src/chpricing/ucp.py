"""Unit commitment economics for startup-cost fleets.

Exact value function v(y) read off a per-fleet commitment table (every
per-type count vector with its output range, fixed cost and merit-order
fill, built once and evaluated with numpy; the cheapest commitments are
then re-dispatched exactly), merit-order dispatch, the continuous
commitment relaxation, and the startup-free convex baselines used for
LMP-style pricing.

The committed side has one merit order per fleet, cached: each type's
per-unit capacity free above its minimum output, cheapest first.  It is
the same for every commitment, so the commitment table and _fill, the
one merit-order fill behind dispatch_committed, ucp_value and
ucp_values, read it, each block times its type's count.

The fleet's convex side has one representation: the supply staircase,
the relaxed blocks of every unit in merit order, with each step's
cumulative supply and cost, cached once per fleet as read-only arrays.
Supply (fleet_supply), the Fenchel conjugate of v (conjugate), the
supplier best response and the relaxed cost (relaxed_value) are all read
off it with np.searchsorted, so at a break-even price every one of them
takes the upper step.  Supply, the conjugate and the relaxed cost each
take a number or a 1-D array: a float in gives a float out, an array in
gives an array out, with the same float operations either way.  A NaN
or infinite price is refused with ValueError, a NaN demand with
InfeasibleError.

v comes one demand at a time (ucp_value, with the cheapest Dispatch) or
for a whole set of demands (ucp_values).  ucp_value is v by its
definition: it costs every feasible commitment in one _fill pass.  The
batch keeps as candidates only the commitments within a rounding margin
of the least table cost (_batch_candidates), in two stages.  It groups
its demands by feasibility cell, the demands that share one feasible
set, and reads the table once per cell at the cell's least demand and
once more at its greatest where they differ, in chunks whose working
arrays hold at most BATCH_CELLS values.  Then every demand of a cell is
costed over the cell's whole candidate list, in _fill passes of whole
demands that hold at most BATCH_CELLS pair x type values each (one
demand with a longer list is a pass of its own).  Whether
a demand is covered is decided first, in the same pass of _cells: the
batch reads only covered cells, and _require_covered refuses a curve
grid or the fit's samples at the least uncovered demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fleet import Fleet, GeneratorType, check_integer, check_number

__all__ = [
    "Commitment",
    "Dispatch",
    "BestResponse",
    "QuadraticCost",
    "InfeasibleError",
    "dispatch_committed",
    "ucp_value",
    "ucp_values",
    "best_response",
    "fleet_supply",
    "conjugate",
    "relaxed_value",
    "no_startup_value",
    "quadratic_fit",
]

# absolute slack for MW feasibility comparisons
FEAS_EPS = 1e-9
# positivity floor for the fitted quadratic curvature ($/MW^2)
ALPHA_FLOOR = 1e-9
# most float64 values in a commitment table (64 MB); evaluating v(y) from
# it takes about as much again
MAX_TABLE_CELLS = 1 << 23
# most demands on a curve grid; a finer step is refused before the grid
# is built, which also keeps the step above the float spacing of capacity
MAX_GRID_POINTS = 10 ** 6
# most demand x commitment x block values in one working array of
# ucp_values (512 KB), so each chunk of demands stays in cache; also the
# most pair x type values of one of its _fill passes, which bounds memory
BATCH_CELLS = 1 << 16
FIT_SAMPLES = 121  # quadratic_fit's uniform grid over [0, capacity]


class InfeasibleError(Exception):
    """The requested output level cannot be met; the cost is +inf.

    Distinct from ValueError so callers can treat infeasibility as an
    outcome (a demand excursion beyond capacity) rather than a bug.
    """


class DegenerateCostError(ValueError):
    """A startup-free cost curve that is zero everywhere: no quadratic fits it."""


@dataclass(frozen=True)
class Commitment:
    """Number of committed units per generator type, in fleet order."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            counts = tuple(check_integer("count", n) for n in self.counts)
        except ValueError:
            raise ValueError(
                f"commitment counts must be integers, got {self.counts}") from None
        object.__setattr__(self, "counts", counts)
        if any(n < 0 for n in counts):
            raise ValueError(f"commitment counts must be >= 0, got {self.counts}")


class Dispatch(NamedTuple):
    """A feasible dispatch: who is on, what each unit produces, what it costs."""

    commitment: Commitment
    unit_outputs: tuple[float, ...]  # per type, each committed unit's MW; 0.0 if none
    total_output: float              # MW
    total_cost: float                # $ (startup + variable)


class BestResponse(NamedTuple):
    """Profit-maximizing fleet reaction to a fixed price."""

    supply: float        # MW
    profit: float        # $, equals the conjugate of the fleet cost function
    commitment: Commitment
    dispatch: Dispatch


@dataclass(frozen=True)
class QuadraticCost:
    """Convex cost model C(y) = alpha*y^2 + beta*y fitted to a fleet.

    Carries the fleet capacity so the implied marginal-cost supply curve
    can be clamped without further context.  Its reads, like fleet_supply
    and conjugate, refuse NaN and +-inf prices (_prices).
    """

    alpha: float     # $/MW^2, strictly positive
    beta: float      # $/MWh
    capacity: float  # MW

    def __post_init__(self) -> None:
        for field in ("alpha", "beta", "capacity"):
            check_number(field, getattr(self, field))
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not self.capacity > 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")

    def cost(self, y: float) -> float:
        return self.alpha * y * y + self.beta * y

    def supply(self, price):
        """Profit-maximizing output at a price (or array): clamp((p - beta)/(2 alpha))."""
        prices = _prices(price)
        return _like(prices, np.minimum(
            np.maximum((prices - self.beta) / (2.0 * self.alpha), 0.0), self.capacity))

    def conjugate(self, price):
        """Maximum profit at a price (or an array of prices) under this model."""
        prices = _prices(price)
        y = self.supply(prices)
        return _like(prices, prices * y - self.cost(y))


def _variable_costs(gtype: GeneratorType, g: np.ndarray) -> np.ndarray:
    """Variable cost of one unit at every output of g, clamped to [0, max]."""
    remaining = np.minimum(np.maximum(g, 0.0), gtype.max_output)
    cost = np.zeros(g.shape)
    for seg in gtype.segments:
        # once remaining is 0 every take is 0 and changes no sum
        take = np.minimum(remaining, seg.capacity)
        cost += take * seg.marginal_cost
        remaining -= take
    return cost


def _validate_commitment(fleet: Fleet, commitment: Commitment) -> None:
    if len(commitment.counts) != len(fleet.types):
        raise ValueError(
            f"commitment has {len(commitment.counts)} entries for "
            f"{len(fleet.types)} types")
    for gtype, n in zip(fleet.types, commitment.counts):
        if n > gtype.unit_count:
            raise ValueError(
                f"{gtype.name}: committed {n} of {gtype.unit_count} units")


@lru_cache(maxsize=None)
def _merit_order(fleet: Fleet) -> tuple[tuple[float, int, float], ...]:
    """Segment capacity one unit has free once it runs at its minimum.

    Returns (marginal_cost, type_idx, free MW per unit) in merit order:
    by cost, then type, then segment.  A commitment of n units of a type
    has n times each of its blocks free, in the same order.
    """
    blocks = []
    for ti, gtype in enumerate(fleet.types):
        rem_min = gtype.min_output
        for seg in gtype.segments:
            used = min(rem_min, seg.capacity)
            rem_min -= used
            if seg.capacity - used > 0.0:
                blocks.append((seg.marginal_cost, ti, seg.capacity - used))
    # stable, so blocks tied on cost and type keep their segment order
    blocks.sort(key=lambda block: block[:2])
    return tuple(blocks)


def _bounds(fleet: Fleet, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor, ceil) MW of each commitment counts[k] (a row), summed type by type."""
    floor, ceil = np.zeros(len(counts)), np.zeros(len(counts))
    for ti, gtype in enumerate(fleet.types):
        floor += counts[:, ti] * gtype.min_output
        ceil += counts[:, ti] * gtype.max_output
    return floor, ceil


def _fill(fleet: Fleet, counts: np.ndarray, floor: np.ndarray, ys: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest dispatch of each commitment counts[k] (a row) at demand ys[k].

    Every committed unit first runs at its minimum output (floor[k] MW in
    all); the residual then fills the fleet's _merit_order, which is exact
    because per-unit variable costs are convex piecewise linear.  Units of
    a type share its allocation equally, which costs the same as any
    other split.  Returns each type's per-unit output, shape (types, k),
    and each total cost; a type left off adds 0.0 to the cost.
    """
    residual = np.maximum(ys - floor, 0.0)
    per_unit = np.zeros((len(fleet.types), len(ys)))
    for _cost, ti, free in _merit_order(fleet):
        take = np.minimum(residual, free * counts[:, ti])
        per_unit[ti] += take
        residual -= take
    total = np.zeros(len(ys))
    for ti, gtype in enumerate(fleet.types):
        n = counts[:, ti]
        per_unit[ti] = gtype.min_output + per_unit[ti] / np.maximum(n, 1)
        total += n * (gtype.startup_cost + _variable_costs(gtype, per_unit[ti]))
    return per_unit, total


def _dispatch(commitment: Commitment, per_unit: list[float], total_cost: float) -> Dispatch:
    """The Dispatch whose committed units of each type run at per_unit MW."""
    outputs, total_output = [], 0.0
    for n, g in zip(commitment.counts, per_unit):
        outputs.append(g if n else 0.0)
        total_output += n * g
    return Dispatch(commitment, tuple(outputs), total_output, total_cost)


def dispatch_committed(fleet: Fleet, commitment: Commitment, y: float) -> Dispatch:
    """Cheapest dispatch of a fixed commitment meeting total output y (_fill)."""
    _validate_commitment(fleet, commitment)
    if not y >= -FEAS_EPS:
        raise ValueError(f"demand must be >= 0, got {y}")
    counts = np.array([commitment.counts])
    floor, ceil = _bounds(fleet, counts)
    if y < floor[0] - FEAS_EPS or y > ceil[0] + FEAS_EPS:
        raise InfeasibleError(
            f"commitment {commitment.counts} covers [{floor[0]}, {ceil[0]}] MW, "
            f"cannot meet {y} MW")
    per_unit, cost = _fill(fleet, counts, floor, np.array([y], dtype=float))
    return _dispatch(commitment, per_unit[:, 0].tolist(), float(cost[0]))


class _CommitmentTable(NamedTuple):
    """Every commitment of a fleet, in itertools.product order, as arrays.

    The floor and ceil are dispatch_committed's (_bounds), and
    ``lo``/``hi`` are them minus/plus FEAS_EPS, so feasibility is decided
    bit for bit as there.  ``base`` is the startup plus
    minimum-output cost.  A commitment's merit-order cost of the residual
    r above its floor (at most ``span``) is convex piecewise linear in r,
    so it is the largest of the lines ``lines[b] + slopes[b] * r``, one
    per free block b in merit order (a block a commitment leaves empty
    gives a supporting line at its breakpoint); the blocks are the
    fleet's _merit_order.
    """

    counts: np.ndarray  # (C, T) per-type counts, small unsigned ints
    floor: np.ndarray   # (C,) MW
    span: np.ndarray    # (C,) MW, ceil - floor
    lo: np.ndarray      # (C,) MW
    hi: np.ndarray      # (C,) MW
    base: np.ndarray    # (C,) $
    slopes: np.ndarray  # (B, 1) $/MWh
    lines: np.ndarray   # (B, C) $, each line's value at r = 0


# a table can reach 64 MB; a run needs two (its fleet and its startup-free copy)
@lru_cache(maxsize=8)
def _commitment_table(fleet: Fleet) -> _CommitmentTable:
    blocks = _merit_order(fleet)
    shape = tuple(t.unit_count + 1 for t in fleet.types)
    commitments = 1
    for size in shape:
        commitments *= size
    # floor, span, lo, hi, base and one line per block: float64 values per
    # commitment
    cells = commitments * (len(blocks) + 5)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"fleet has {commitments} commitments x {len(blocks)} free blocks: "
            f"its commitment table of {cells} values exceeds the limit of "
            f"{MAX_TABLE_CELLS}")
    counts = np.indices(shape, dtype=np.min_scalar_type(max(shape)))
    counts = counts.reshape(len(shape), commitments).T
    floor, ceil = _bounds(fleet, counts)
    base = np.zeros(commitments)
    for ti, gtype in enumerate(fleet.types):
        base += counts[:, ti] * (gtype.startup_cost
                                 + _variable_costs(gtype, np.float64(gtype.min_output)))
    slopes = np.array([b[0] for b in blocks])
    lines = np.empty((len(blocks), commitments))
    start = np.zeros(commitments)
    filled = np.zeros(commitments)
    for b, (slope, ti, free) in enumerate(blocks):
        lines[b] = filled - slope * start
        width = counts[:, ti] * free
        start += width
        filled += slope * width
    table = _CommitmentTable(counts, floor, ceil - floor, floor - FEAS_EPS,
                             ceil + FEAS_EPS, base, slopes[:, None], lines)
    for array in table:
        array.flags.writeable = False
    return table


def _table_costs(table: _CommitmentTable, ys: np.ndarray) -> np.ndarray:
    """Table cost of every commitment at demands ys.

    ys broadcasts against the commitments.  The table sums in another
    order than _fill, so this is the exact cost only within rounding; it
    is nondecreasing in the demand, float for float.
    """
    # np.clip(ys - floor, 0, span) at less cost; it differs only in the
    # sign of a zero, which no comparison sees
    residual = np.maximum(ys - table.floor, 0.0)
    np.minimum(residual, table.span, out=residual)
    fill = residual[..., None, :] * table.slopes
    fill += table.lines
    # costs are nonnegative, so 0 bounds the fill from below (and is the
    # fill of a commitment without free blocks)
    return table.base + fill.max(axis=-2, initial=0.0)


def _read(table: _CommitmentTable, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(feasible, approx) of every commitment at each demand of ys, shape
    ys.shape + (commitments,); approx is _table_costs, +inf if infeasible."""
    column = ys[..., None]
    feasible = (column >= table.lo) & (column <= table.hi)
    return feasible, np.where(feasible, _table_costs(table, column), np.inf)


def _cells(table: _CommitmentTable, ys: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group demands by feasibility cell: (order, cell, lows, highs, covered).

    ys[order] is sorted, cell[i] numbers the cell of ys[order[i]] from 0
    up, lows/highs are each cell's least and greatest demand, and covered
    says which cells some commitment covers.  The cell index of y counts
    the commitments opened (lo <= y) plus those closed (hi < y); y is
    covered where more are opened than closed.  Both counts grow with y,
    so a cell's demands are consecutive and share one feasible set.
    Python sorts the demands (numpy's sort would load kernels no other
    path uses), unless they come sorted, as grids do.
    """
    if (ys[1:] < ys[:-1]).any():
        order = np.fromiter(sorted(range(ys.size), key=ys.tolist().__getitem__),
                            np.intp, ys.size)
        ys = ys[order]
    else:
        order = np.arange(ys.size)
    # the commitments opened and closed at each demand
    opened = np.bincount(ys.searchsorted(table.lo, side="left"),
                         minlength=ys.size + 1)[:-1]
    closed = np.bincount(ys.searchsorted(table.hi, side="right"),
                         minlength=ys.size + 1)[:-1]
    new = (opened + closed) > 0
    new[0] = True
    starts = np.flatnonzero(new)
    # integer cumsums: a bool one loads a cast kernel no other path uses
    return (order, new.astype(np.intp).cumsum() - 1, ys[starts],
            ys[np.append(starts[1:], ys.size) - 1],
            (opened - closed).cumsum()[starts] > 0)


def _require_covered(fleet: Fleet, demands: np.ndarray) -> None:
    """Refuse demands that no commitment covers, before any table read or
    _fill: InfeasibleError naming the least of them.  The startup-free
    fleet has the same lo and hi, so this covers no_startup_values too."""
    _order, _cell, lows, _highs, covered = _cells(_commitment_table(fleet), demands)
    if not covered.all():
        raise InfeasibleError(f"no commitment can meet {float(lows[covered.argmin()])} MW")


def _batch_candidates(table: _CommitmentTable, ys: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates for the cheapest commitment at each demand: (order, pairs, cols).

    Demand ys[order[i]] has pairs[i] candidates, listed in cols in that
    order, each demand's in product order; a demand no commitment covers
    has none.  The table is read only for the covered _cells cells: once
    at a cell's least demand, and once more at its greatest where they
    differ, in chunks whose working arrays hold at most BATCH_CELLS
    values.  A cell lists its feasible commitments whose table cost at the
    least demand is within a margin of the least cost at the greatest: 1e-9
    * max(1, least, demand x max_slope) bounds the gap between a table cost
    and its fill (costs are >= 0, so no abs; max_slope is the table's
    largest slope).  Table costs grow with the demand, so the list holds
    every demand's least exact cost.
    """
    width = len(table.floor)
    chunk = max(1, BATCH_CELLS // (table.lines.size or width))
    max_slope = table.slopes.max(initial=0.0)
    order, cell, lows, highs, covered = _cells(table, ys)
    live = np.flatnonzero(covered)
    spread = live[highs[live] != lows[live]]
    least = np.full(lows.size, -np.inf)
    for start in range(0, spread.size, chunk):
        at = spread[start:start + chunk]
        least[at] = _read(table, highs[at])[1].min(axis=1)
    lists = [np.empty(0, np.intp)]  # none if no cell is covered
    for start in range(0, live.size, chunk):
        at = live[start:start + chunk]
        feasible, approx = _read(table, lows[at])
        # -inf where a cell is one demand, which np.maximum passes over
        top = np.maximum(approx.min(axis=-1), least[at])
        bound = top + 1e-9 * np.maximum(np.maximum(1.0, top), highs[at] * max_slope)
        listed = np.flatnonzero((approx <= bound[..., None]) & feasible)
        lists.append(listed + start * width)
    owner, cols = np.divmod(np.concatenate(lists), width)
    owner = live[owner]
    # each demand takes its cell's list: where its pairs and the list start
    count = np.bincount(owner, minlength=lows.size)
    pairs = count[cell]
    index = (count.cumsum() - count)[cell] - (pairs.cumsum() - pairs)
    return order, pairs, cols[np.repeat(index, pairs) + np.arange(pairs.sum())]


def ucp_value(fleet: Fleet, y: float) -> tuple[float, Dispatch]:
    """Exact unit commitment cost at demand y and its cheapest dispatch.

    Units of a type are interchangeable, so a commitment is a vector of
    per-type counts.  By definition: every feasible commitment of the
    fleet's cached commitment table is costed exactly in one _fill pass,
    in itertools.product order, and the first least cost wins.  Raises
    InfeasibleError when no commitment covers y, and ValueError when the
    table would exceed MAX_TABLE_CELLS.
    """
    if not -FEAS_EPS <= y <= fleet.total_capacity + FEAS_EPS:  # NaN included
        raise _outside(fleet, y)
    table = _commitment_table(fleet)
    feasible = np.flatnonzero((y >= table.lo) & (y <= table.hi))
    if not feasible.size:
        raise InfeasibleError(f"no commitment can meet {y} MW")
    per_unit, costs = _fill(fleet, table.counts[feasible], table.floor[feasible],
                            np.full(feasible.size, y, dtype=float))
    best = costs.argmin()  # the first of equal least costs
    cost = float(costs[best])
    commitment = Commitment(tuple(table.counts[feasible[best]]))
    return cost, _dispatch(commitment, per_unit[:, best].tolist(), cost)


def ucp_values(fleet: Fleet, demands) -> np.ndarray:
    """Exact unit commitment cost at each of a 1-D sequence of demands.

    The batched ucp_value: each value is the float ucp_value returns, and
    +inf where ucp_value raises InfeasibleError; the first NaN demand
    raises InfeasibleError, as in ucp_value, and demands of any other
    shape raise ValueError.  _batch_candidates reads the table once or
    twice per covered feasibility cell, not once per demand; every demand
    is costed exactly over its cell's candidates and takes the least,
    which is ucp_value's.  The _fill passes take whole demands' lists, at
    most BATCH_CELLS // types pairs a pass, or one longer list alone.
    Demands that no commitment covers are neither read nor costed.
    """
    table = _commitment_table(fleet)
    ys = np.asarray(demands, dtype=float)
    if ys.ndim != 1:
        raise ValueError(f"demands must be 1-D, got shape {ys.shape}")
    nan = np.isnan(ys)
    if nan.any():
        raise _outside(fleet, float(ys[nan.argmax()]))
    values = np.full(ys.shape, np.inf)
    if not ys.size:
        return values
    order, pairs, cols = _batch_candidates(table, ys)
    if cols.size:
        ends, costs = pairs.cumsum(), np.empty(cols.size)
        limit, lo = BATCH_CELLS // len(fleet.types), 0
        while lo < cols.size:
            # demand first's list starts at lo; take the whole lists that
            # end within limit pairs, or demand first's alone
            first = ends.searchsorted(lo, "right")
            stop = max(ends.searchsorted(lo + limit, "right"), first + 1)
            hi = ends[stop - 1]
            at = cols[lo:hi]
            costs[lo:hi] = _fill(fleet, table.counts.take(at, axis=0), table.floor.take(at),
                                 ys[order[first:stop]].repeat(pairs[first:stop]))[1]
            lo = hi
        costed = pairs > 0
        values[order[costed]] = np.minimum.reduceat(costs, (ends - pairs)[costed])
    return values


@lru_cache(maxsize=None)
def _staircase(fleet: Fleet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The supply staircase as read-only arrays: (prices, supply, cost).

    Every unit's relaxed blocks, sorted by slope, are summed in that
    order; ``prices`` are their distinct slopes.  ``supply`` and
    ``cost`` have a 0 step in front: ``supply[i + 1]`` is the capacity
    priced <= prices[i] and ``cost[i + 1]`` its relaxed cost, the sum of
    slope x width over those blocks.  So the np.searchsorted index of a
    price is its step's entry, 0 below the first step.
    """
    blocks = sorted((slope, ti, bi, width * gtype.unit_count)
                    for ti, gtype in enumerate(fleet.types)
                    for bi, (slope, width) in enumerate(relaxed_blocks(gtype)))
    prices: list[float] = []
    supply = [0.0]
    cost = [0.0]
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
    arrays = np.array(prices), np.array(supply), np.array(cost)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _like(arg: np.ndarray, value):
    """value as a float when arg is 0-d (a number came in), else as is."""
    return value if arg.ndim else float(value)


def _prices(price) -> np.ndarray:
    """price as a float array; NaN, sorted above every step, and +-inf,
    whose profit is not finite, raise ValueError."""
    prices = np.asarray(price, dtype=float)
    if not np.isfinite(prices).all():
        if np.isnan(prices).any():
            raise ValueError("price must be a number, got nan")
        raise ValueError(f"price must be finite, got {prices[np.isinf(prices)][0]}")
    return prices


def fleet_supply(fleet: Fleet, price):
    """Aggregate best-response supply at a price or an array of prices (MW).

    Read off the staircase; at a breakpoint price the upper step is
    supplied.  Raises ValueError for a NaN price.
    """
    steps, supply, _cost = _staircase(fleet)
    prices = _prices(price)
    return _like(prices, supply[steps.searchsorted(prices, side="right")])


def best_response(fleet: Fleet, price: float) -> BestResponse:
    """Fleet best response to a price, maximal-supply tie-break.

    Read off the staircase: supply is fleet_supply and profit is
    conjugate.  Each unit of a type produces its relaxed blocks priced
    at or below the price, a vertex of its committed cost, and commits
    when that output is positive, so a break-even unit takes its upper
    step.
    """
    counts = []
    outputs = []
    cost_total = 0.0
    for gtype in fleet.types:
        g = sum(width for slope, width in relaxed_blocks(gtype) if slope <= price)
        n = gtype.unit_count if g > 0.0 else 0
        if n:
            cost_total += n * (gtype.startup_cost
                               + float(_variable_costs(gtype, np.float64(g))))
        outputs.append(g if n else 0.0)
        counts.append(n)
    supply = fleet_supply(fleet, price)
    commitment = Commitment(tuple(counts))
    dispatch = Dispatch(commitment, tuple(outputs), supply, cost_total)
    return BestResponse(supply, conjugate(fleet, price), commitment, dispatch)


def conjugate(fleet: Fleet, price):
    """max_y (price*y - v(y)): the fleet's best-response profit at the price.

    Takes a price or an array of prices.  Read off the staircase: price x
    supply minus the relaxed cost of that supply, at the last step priced
    <= price; 0 below the first step.  Raises ValueError for a NaN price.
    """
    steps, supply, cost = _staircase(fleet)
    prices = _prices(price)
    i = steps.searchsorted(prices, side="right")
    return _like(prices, np.where(i > 0, prices * supply[i] - cost[i], 0.0))


def relaxed_blocks(gtype: GeneratorType) -> tuple[tuple[float, float], ...]:
    """(slope, width) pieces of the relaxed per-unit cost, slopes increasing.

    The relaxed cost is the lower convex envelope of the committed cost
    graph together with the off point (0, 0), so the pieces come from the
    lower hull of the committed cost vertices.
    """
    xs = {gtype.min_output}
    cum = 0.0
    for seg in gtype.segments:
        cum += seg.capacity
        if cum >= gtype.min_output:
            xs.add(cum)
    outputs = np.array(sorted(x for x in xs if x > 0.0))
    costs = gtype.startup_cost + _variable_costs(gtype, outputs)
    points = [(0.0, 0.0), *zip(outputs.tolist(), costs.tolist())]
    hull: list[tuple[float, float]] = []
    for p in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    blocks = []
    for (x0, c0), (x1, c1) in zip(hull, hull[1:]):
        blocks.append(((c1 - c0) / (x1 - x0), x1 - x0))
    return tuple(blocks)


def _outside(fleet: Fleet, y: float) -> InfeasibleError:
    return InfeasibleError(
        f"demand {y} outside feasible range [0, {fleet.total_capacity}] MW")


def _locate(fleet: Fleet, demands
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where demands sit on the staircase: (clamped demands, reach, above, cost).

    ``reach`` is the index of the step that reaches each demand, ``above``
    the first step whose supply exceeds it (len(prices) past the top) and
    ``cost`` the relaxed cost there: the cost of the steps below plus the
    demand's share of the reaching step.  Raises InfeasibleError for the
    first demand outside [0, capacity], NaN included.
    """
    prices, supply, cost = _staircase(fleet)
    capacity = fleet.total_capacity
    ys = np.asarray(demands, dtype=float)
    inside = (ys >= -FEAS_EPS) & (ys <= capacity + FEAS_EPS)
    if not inside.all():
        raise _outside(fleet, float(ys.flat[inside.argmin()]))
    ys = ys.clip(0.0, capacity)
    # searching below the top step caps the reaching step at the top one:
    # the staircase sums capacity in merit order, so its top can round
    # below total_capacity by more than FEAS_EPS on a very large fleet
    reach = supply[1:-1].searchsorted(ys - FEAS_EPS, side="left")
    above = supply[1:].searchsorted(ys + FEAS_EPS, side="right")
    return ys, reach, above, cost[reach] + prices[reach] * (ys - supply[reach])


def relaxed_value(fleet: Fleet, y):
    """Optimal relaxed-commitment cost at demand y and its marginal price.

    Takes a demand or an array of demands.  Read off the staircase: the
    cost of the steps below y plus y's share of the step that reaches it.
    The price is the right-hand derivative (the slope of the next
    marginal MW), the last slope at capacity.
    """
    prices, _supply, _cost = _staircase(fleet)
    ys, _reach, above, value = _locate(fleet, y)
    return _like(ys, value), _like(ys, prices.take(above, mode="clip"))


# not public; kept because perfbench/tracing.py wraps it by name
def relaxed_supply(fleet: Fleet, price: float) -> float:
    """Relaxed merit-order capacity priced <= price: by duality, fleet_supply."""
    return fleet_supply(fleet, price)


def _zero_startup(fleet: Fleet) -> Fleet:
    return Fleet(tuple(replace(t, startup_cost=0.0) for t in fleet.types))


def no_startup_value(fleet: Fleet, y: float) -> float:
    """Fleet cost at demand y with all startup costs removed."""
    return ucp_value(_zero_startup(fleet), y)[0]


def no_startup_values(fleet: Fleet, demands) -> np.ndarray:
    """no_startup_value at every demand (ucp_values: +inf where infeasible)."""
    return ucp_values(_zero_startup(fleet), demands)


def quadratic_fit(fleet: Fleet) -> QuadraticCost:
    """Least-squares fit of alpha*y^2 + beta*y to the startup-free cost curve.

    Sampled at FIT_SAMPLES evenly spaced demands over [0, capacity]; an
    uncovered sample is refused (_require_covered) before any is costed.
    The curvature is clamped to a small positive floor so the fitted
    model stays strictly convex even for a single-segment fleet.
    """
    cap = fleet.total_capacity
    ys = np.linspace(0.0, cap, FIT_SAMPLES)
    _require_covered(fleet, ys)
    target = no_startup_values(fleet, ys)
    if not np.any(target > 0.0):
        raise DegenerateCostError("degenerate cost curve: all sampled costs are zero")
    design = np.column_stack([ys * ys, ys])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    if alpha < ALPHA_FLOOR:
        alpha = ALPHA_FLOOR
        denom = float(np.dot(ys, ys))
        beta = float(np.dot(ys, target - alpha * ys * ys) / denom)
    return QuadraticCost(alpha, beta, cap)
