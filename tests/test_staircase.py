"""Property tests of the supply staircase over random small fleets.

Fleets have integer costs, capacities and minimum outputs, so every
vertex of v lies on the unit demand grid and the grid oracles are exact.
"""
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import oracles
from chpricing import (
    CostSegment,
    DayProfile,
    DemandModel,
    Fleet,
    GeneratorType,
    HarmonicStep,
    InfeasibleError,
    best_response,
    builtin_fleet,
    chp_fixed_demand,
    conjugate,
    default_price_cap,
    default_profile,
    dispatchable_price,
    dual_value,
    exact_dual,
    fleet_supply,
    hourly_demand,
    hourly_utility,
    hull_value,
    quadratic_fit,
    relaxed_value,
    run_subgradient,
    sample_noise,
    settle_hour,
    ucp_value,
    ucp_values,
    uplift,
    uplifts,
)
from chpricing import market, ucp
from chpricing.market import PROFILE_HIGH
from chpricing.pricing import PRICE_FLOOR, price_hours
from chpricing.ucp import FEAS_EPS, relaxed_supply

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def one_unit(gtype):
    """A fleet of one unit of gtype: its relaxed value is the unit's relaxed cost."""
    return Fleet((dataclasses.replace(gtype, unit_count=1),))


@st.composite
def generator_types(draw, name):
    n_segments = draw(st.integers(1, 3))
    costs = sorted(draw(st.lists(st.integers(0, 60), min_size=n_segments,
                                 max_size=n_segments)))
    caps = draw(st.lists(st.integers(1, 12), min_size=n_segments,
                         max_size=n_segments))
    return GeneratorType(
        name, float(draw(st.integers(0, 400))),
        float(draw(st.integers(0, sum(caps)))),
        tuple(CostSegment(float(c), float(w)) for c, w in zip(costs, caps)),
        draw(st.integers(1, 2)))


@st.composite
def fleets(draw):
    n_types = draw(st.integers(1, 3))
    return Fleet(tuple(draw(generator_types(f"T{i}")) for i in range(n_types)))


@st.composite
def priced_hours(draw):
    """A fleet with a one-hour demand model that clears below the price cap."""
    fleet = draw(fleets())
    cap_mw = fleet.total_capacity
    mu1 = draw(st.floats(0.0, 0.9))
    elastic = draw(st.floats(0.001, 0.09))  # share of capacity at the price cap
    mu2 = 0.2
    model = DemandModel(a=elastic * cap_mw * default_price_cap(fleet) / mu2,
                        mu1=mu1, mu2=mu2, nu=1.0)
    return fleet, model, DayProfile((cap_mw,) * 24)


def probe_prices(fleet):
    """Every breakpoint, the midpoints between them, and prices beyond both ends."""
    prices, _supply = oracles.staircase_tuples(fleet)[:2]
    mids = [0.5 * (a + b) for a, b in zip(prices, prices[1:])]
    return list(prices) + mids + [0.5 * prices[0], prices[-1] + 1.0]


BREAKEVEN_FLEET = Fleet((GeneratorType("U", 700.0, 0.0, (CostSegment(12.0, 13.0),)),))


@PROPERTY
@given(fleets())
@example(BREAKEVEN_FLEET)
def test_relaxed_supply_is_best_response_supply(fleet):
    # breakpoints included: every reading of the staircase takes the upper step
    for p in probe_prices(fleet):
        supply = fleet_supply(fleet, p)
        assert supply == relaxed_supply(fleet, p)
        reaction = best_response(fleet, p)
        assert reaction.supply == supply
        assert reaction.profit == conjugate(fleet, p)
        dispatch = reaction.dispatch
        assert dispatch.total_output == supply
        assert math.fsum(n * g for n, g in zip(
            dispatch.commitment.counts, dispatch.unit_outputs)) == pytest.approx(
            supply, abs=rounding(supply))
        assert p * supply - dispatch.total_cost == pytest.approx(
            reaction.profit, abs=rounding(p * supply, dispatch.total_cost))


def assert_reads(read, reference, probes):
    """read == reference at every probe, one float at a time and as one array:
    a float in gives floats out, an array in arrays of its shape."""
    def columns(out):
        return out if isinstance(out, tuple) else (out,)

    expected = [columns(reference(x)) for x in probes]
    got = [columns(read(x)) for x in probes]
    assert got == expected
    assert all(type(x) is float for row in got for x in row)
    arrays = columns(read(np.array(probes)))
    assert all(isinstance(column, np.ndarray) and column.shape == (len(probes),)
               for column in arrays)
    assert list(zip(*(column.tolist() for column in arrays))) == expected


@PROPERTY
@given(fleets())
@example(BREAKEVEN_FLEET)
def test_array_reads_equal_scalar_reads(fleet):
    prices, _supply = oracles.staircase_tuples(fleet)[:2]
    probes = [0.0, 0.5 * prices[0], prices[-1] + 1.0]
    for p in prices:
        probes += [np.nextafter(p, -math.inf), p, np.nextafter(p, math.inf)]
    probes = [float(p) for p in probes]
    assert_reads(lambda p: fleet_supply(fleet, p),
                 lambda p: oracles.fleet_supply_bisected(fleet, p), probes)
    assert_reads(lambda p: conjugate(fleet, p),
                 lambda p: oracles.conjugate_bisected(fleet, p), probes)


def probe_demands(fleet):
    """0, capacity and every supply level, each exactly, +-FEAS_EPS (where the
    bisections switch) and one float either side of all of those."""
    _prices, supply = oracles.staircase_tuples(fleet)[:2]
    probes = set()
    for level in (0.0, fleet.total_capacity) + supply:
        for y in (level - FEAS_EPS, level, level + FEAS_EPS):
            probes.update((y, float(np.nextafter(y, -math.inf)),
                           float(np.nextafter(y, math.inf))))
    return sorted(probes)


def demand_reads(fleet):
    """Each read of the staircase at a demand, with its bisect reference."""
    def hull_point(y):
        point = hull_value(fleet, y)
        return point.hull_value, point.price_lo, point.price_hi

    def hull_point_bisected(y):
        return (oracles.relaxed_value_bisected(fleet, y)[0],
                *oracles.hull_interval_bisected(fleet, y))

    return [
        (lambda y: relaxed_value(fleet, y),
         lambda y: oracles.relaxed_value_bisected(fleet, y)),
        (hull_point, hull_point_bisected),
        (lambda y: chp_fixed_demand(fleet, y),
         lambda y: 0.5 * sum(oracles.hull_interval_bisected(fleet, y))),
        (lambda y: dispatchable_price(fleet, y),
         lambda y: oracles.relaxed_value_bisected(fleet, y)[1]),
    ]


@PROPERTY
@given(fleets())
@example(BREAKEVEN_FLEET)
def test_array_demand_reads_equal_scalar_reads(fleet):
    inside, refused = [], []
    for y in probe_demands(fleet):
        try:
            oracles.relaxed_value_bisected(fleet, y)
        except InfeasibleError as exc:
            refused.append((y, str(exc)))
        else:
            inside.append(y)
    # one float below -FEAS_EPS and one above capacity + FEAS_EPS
    assert refused[0][0] < 0.0 < fleet.total_capacity < refused[-1][0]
    for read, reference in demand_reads(fleet):
        assert_reads(read, reference, inside)
        # a demand out of range is named with the reference's message; in an
        # array, the first one
        for y, message in refused:
            for demands in (y, [*inside, y, 2.0 * fleet.total_capacity]):
                with pytest.raises(InfeasibleError) as info:
                    read(demands)
                assert str(info.value) == message


def test_array_demand_reads_refuse_nan():
    for read, _reference in demand_reads(BREAKEVEN_FLEET):
        for demands in (math.nan, [1.0, math.nan]):
            with pytest.raises(InfeasibleError, match="demand nan outside"):
                read(demands)


def test_price_reads_refuse_nan(gribik):
    # np.searchsorted sorts NaN above every step: unguarded, the supply
    # would be the whole fleet and the conjugate and uplift NaN.  At +inf
    # the conjugate is inf, so the uplift inf - inf would be NaN too.  The
    # LMP day's quadratic reads stand in for the staircase's: unguarded, a
    # NaN price was NaN supply and +inf infinite profit
    quad = quadratic_fit(gribik)
    for bad, message in ((math.nan, "price must be a number, got nan"),
                         (math.inf, "price must be finite, got inf"),
                         (-math.inf, "price must be finite, got -inf")):
        calls = [
            lambda: fleet_supply(gribik, bad),
            lambda: fleet_supply(gribik, [90.0, bad]),
            lambda: conjugate(gribik, bad),
            lambda: conjugate(gribik, [90.0, bad]),
            lambda: best_response(gribik, bad),
            lambda: uplift(gribik, bad, 300.0),
            lambda: uplifts(gribik, [90.0, bad], [300.0, 300.0]),
            lambda: quad.supply(bad),
            lambda: quad.supply([90.0, bad]),
            lambda: quad.conjugate(bad),
            lambda: quad.conjugate([90.0, bad]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


@PROPERTY
@given(priced_hours())
def test_exact_dual_is_the_crossing(hour):
    fleet, model, profile = hour
    price, demand = exact_dual(fleet, model, profile, 0)
    assert demand == hourly_demand(model, profile, 0, price)
    # inside a step supply equals demand up to rounding
    assert fleet_supply(fleet, price) >= demand * (1.0 - 1e-12)
    if price != PRICE_FLOOR:
        below = price * (1.0 - 1e-9)
        assert fleet_supply(fleet, below) < hourly_demand(model, profile, 0, below)


# a free unit: price-inelastic demand clears at the price floor
FREE_FLEET = Fleet((GeneratorType("F", 0.0, 0.0, (CostSegment(0.0, 100.0),)),))
# no commitment covers (100, 100.3) MW
GAP_FLEET = Fleet((GeneratorType("A", 0.0, 0.0, (CostSegment(10.0, 100.0),)),
                   GeneratorType("B", 50.0, 100.3, (CostSegment(20.0, 101.0),))))


@st.composite
def closed_form_days(draw):
    """A fleet and a noisy day whose inelastic peak is 0.3-2x its capacity.

    fleets() draws zero-cost steps and minimum outputs; mu2 = 0 makes the
    day price-inelastic, and a peak above capacity leaves hours without a
    crossing.
    """
    fleet = draw(fleets())
    cap_mw = fleet.total_capacity
    mu2 = draw(st.sampled_from([0.0, 0.2]))
    peak = draw(st.floats(0.3, 2.0)) * cap_mw
    elastic = draw(st.floats(0.001, 0.3))  # share of capacity at the price cap
    model = DemandModel(a=elastic * cap_mw * default_price_cap(fleet) / 0.2, mu1=0.8,
                        mu2=mu2, nu=peak / (0.8 * PROFILE_HIGH),
                        utility_constant=draw(st.floats(-100.0, 100.0)))
    noise = sample_noise(draw(st.integers(0, 2**32)))
    return fleet, model, DayProfile(default_profile().base_demand, noise)


@PROPERTY
@given(closed_form_days())
@example((FREE_FLEET, DemandModel(a=1.0, mu1=0.8, mu2=0.0, nu=0.001), default_profile()))
@example((GAP_FLEET, DemandModel(a=1040.12, mu1=0.8, mu2=0.2, nu=1.125),
          DayProfile((100.0,) * 24)))
# inelastic demand of exactly 300 (a step's level), 600 (capacity) and 700 MW
@example((builtin_fleet("gribik"), DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=0.01),
          DayProfile((30000.0, 60000.0, 70000.0) * 8)))
def test_array_crossing_and_utility_equal_the_scan(day):
    # every hour of a closed-form day, and each one-hour call, is the scan's
    # float, or its InfeasibleError and the price cap where there is no crossing
    fleet, model, profile = day
    cap = default_price_cap(fleet)
    priced = price_hours("chp_exact", fleet, model, profile, range(24))
    prices, demands = priced.price[0].tolist(), priced.demand[0].tolist()
    for t in range(24):
        try:
            expected = oracles.exact_dual_scanned(fleet, model, profile, t)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError, match=f"^{re.escape(str(exc))}$"):
                exact_dual(fleet, model, profile, t)
            expected = cap, oracles.hourly_demand_scalar(model, profile, t, cap)
        else:
            assert exact_dual(fleet, model, profile, t) == expected
        assert (prices[t], demands[t]) == expected
        assert hourly_demand(model, profile, t, prices[t]) == demands[t]
    utilities = [oracles.hourly_utility_scalar(model, profile, t, demands[t])
                 for t in range(24)]
    terms = market._hour_terms(model, profile, range(24))
    assert market._utility(model, terms, demands).tolist() == utilities
    assert [hourly_utility(model, profile, t, demands[t]) for t in range(24)] == utilities
    assert priced.dual_value[0].tolist() == [
        u - p * d + conjugate(fleet, p) for u, p, d in zip(utilities, prices, demands)]


@PROPERTY
@given(fleets())
def test_hull_value_endpoints_and_grid_biconjugate(fleet):
    prices, _supply = oracles.staircase_tuples(fleet)[:2]
    price_cap = default_price_cap(fleet)
    values = oracles.fleet_value_grid(fleet, 1.0)
    hull = oracles.grid_hull(values, 1.0)
    for y in range(int(fleet.total_capacity) + 1):
        point = hull_value(fleet, float(y))
        assert point.price_lo == 0.0 or point.price_lo in prices
        assert point.price_hi == price_cap or point.price_hi in prices
        assert point.price_lo <= point.price_hi
        assert point.hull_value == pytest.approx(
            hull[y], abs=1e-9 * max(1.0, abs(hull[y])))


def half_unit_demands(fleet):
    """Every integer demand up to capacity and the midpoints between them."""
    return [0.5 * i for i in range(int(2 * fleet.total_capacity) + 1)]


def rounding(*terms):
    """Absolute float tolerance for a sum of terms of these magnitudes."""
    return 1e-9 * max([1.0] + [abs(x) for x in terms])


@PROPERTY
@given(fleets())
def test_price_cap_elicits_full_fleet(fleet):
    # hull_value ends the last supporting interval at the cap, which rests
    # on every staircase breakpoint lying below it
    price_cap = default_price_cap(fleet)
    assert fleet_supply(fleet, price_cap) == fleet.total_capacity
    prices, _supply = oracles.staircase_tuples(fleet)[:2]
    assert prices[-1] < price_cap


@PROPERTY
@given(fleets())
def test_conjugate_is_its_grid_definition(fleet):
    # integer fleets put every vertex and domain end of v on the unit grid,
    # where the maximum of p*y - v(y) is attained
    values = oracles.fleet_value_grid(fleet, 1.0)
    feasible = [(y, v) for y, v in enumerate(values.tolist()) if math.isfinite(v)]
    for p in probe_prices(fleet):
        ref = max(p * y - v for y, v in feasible)
        assert conjugate(fleet, p) == pytest.approx(
            ref, abs=rounding(ref, p * fleet.total_capacity))


@PROPERTY
@given(fleets())
def test_hull_below_value_and_uplift_nonnegative(fleet):
    demands = half_unit_demands(fleet)
    values = ucp_values(fleet, demands).tolist()
    prices = probe_prices(fleet)
    for y, v in zip(demands, values):
        if math.isinf(v):
            with pytest.raises(InfeasibleError):
                ucp_value(fleet, y)
            continue
        point = hull_value(fleet, y)
        assert point.hull_value <= v + rounding(v)
        # zero at the supporting prices, positive elsewhere
        for p in (point.price_lo, point.price_hi):
            assert uplift(fleet, p, y) == pytest.approx(
                v - point.hull_value, abs=rounding(v, p * y))
        for p, up in zip(prices, uplifts(fleet, prices, [y] * len(prices))):
            assert up >= -rounding(v, p * y)


@PROPERTY
@given(fleets())
def test_hull_price_minimizes_uplift(fleet):
    # criterion 5 on random fleets: no probe price bills less uplift
    prices = probe_prices(fleet)
    for y in half_unit_demands(fleet):
        star = chp_fixed_demand(fleet, y)
        billed = uplifts(fleet, [star] + prices, [y] * (len(prices) + 1))
        if math.isinf(billed[0]):
            continue
        for p, up in zip(prices, billed[1:]):
            assert billed[0] <= up + rounding(up, p * y, star * y)


@PROPERTY
@given(priced_hours())
def test_settlement_identities(hour):
    fleet, model, profile = hour
    star, _demand = exact_dual(fleet, model, profile, 0)
    for price in [star] + [p for p in probe_prices(fleet) if p > 0]:
        demand = hourly_demand(model, profile, 0, price)
        try:
            r = settle_hour(fleet, model, profile, 0, price)
        except InfeasibleError:
            # only a demand that no commitment covers goes unsettled
            assert ucp_values(fleet, [demand])[0] == math.inf
            continue
        assert (r.t, r.price, r.demand) == (0, price, demand)
        assert r.supply_cost == ucp_value(fleet, demand)[0]
        assert r.utility_gross == hourly_utility(model, profile, 0, demand)
        assert r.social_welfare == r.utility_gross - r.supply_cost
        assert r.utility_net == r.utility_gross - price * demand
        assert r.supplier_profit == price * demand - r.supply_cost
        assert r.social_welfare == pytest.approx(
            r.utility_net + r.supplier_profit,
            abs=rounding(r.utility_gross, price * demand, r.supply_cost))
        assert r.uplift == uplift(fleet, price, demand)
        assert r.uplift >= -rounding(r.supply_cost, price * demand)


@PROPERTY
@given(generator_types("U"), st.floats(0.0, 1.0))
def test_relaxed_unit_cost_matches_z_grid(gtype, frac):
    g = frac * gtype.max_output
    z_steps = 2000
    ref = oracles.relaxed_unit_grid(gtype, g, z_steps=z_steps)
    got = relaxed_value(one_unit(gtype), g)[0]
    # the z grid misses the optimum by at most one grid cell of the
    # objective, whose slope in z is at most S + max_c * max_output
    z_lo = g / gtype.max_output
    z_hi = 1.0 if gtype.min_output == 0 else min(1.0, g / gtype.min_output)
    slope = gtype.startup_cost + gtype.segments[-1].marginal_cost * gtype.max_output
    assert got <= ref + 1e-9 * max(1.0, ref)
    assert got >= ref - slope * (z_hi - z_lo) / z_steps - 1e-9 * max(1.0, ref)


def test_breakeven_breakpoint_takes_upper_step():
    # the committed profit at the rounded break-even 12 + 700/13 is about
    # -1e-13, so a commitment decided by its sign would drop the step
    fleet = BREAKEVEN_FLEET
    (breakeven,), (full,) = oracles.staircase_tuples(fleet)[:2]
    assert (breakeven, full) == (12.0 + 700.0 / 13.0, 13.0)
    assert fleet_supply(fleet, breakeven) == 13.0
    reaction = best_response(fleet, breakeven)
    assert (reaction.supply, reaction.commitment.counts) == (13.0, (1,))
    # inelastic demand inside the step clears at the break-even price with
    # the upper step supplied
    model = DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=1.0)
    profile = DayProfile((6.5,) * 24)
    price, demand = exact_dual(fleet, model, profile, 0)
    assert (price, demand) == (breakeven, 6.5)
    _phi, imbalance = dual_value(fleet, model, profile, 0, price)
    assert imbalance == 13.0 - 6.5
    point = hull_value(fleet, 6.5)
    assert point.price_lo == point.price_hi == breakeven
    # the loop reads the same staircase, so its first step goes down
    priced = run_subgradient(fleet, model, profile, 0, breakeven, 1, HarmonicStep(1.0))
    assert priced.price[0, 0] == breakeven - 6.5


# HiGHS decides feasibility within its default primal feasibility tolerance,
# 1e-7 MW, and ucp_values within FEAS_EPS = 1e-9 MW, so near a commitment's
# floor or ceiling the two can disagree: every demand compared with the MILP
# keeps MILP_MARGIN x max(1, capacity) MW from all of them
MILP_MARGIN = 1e-6
MILP_SHARES = st.lists(st.floats(0.0, 1.1), min_size=1, max_size=3)
MILP_PROPERTY = settings(PROPERTY, max_examples=30)


def milp_demands(fleet, shares):
    """The demands share x capacity that keep the margin from every
    commitment's floor and ceiling."""
    capacity = fleet.total_capacity
    edges = set()
    for counts in itertools.product(*(range(t.unit_count + 1) for t in fleet.types)):
        edges.add(sum(n * t.min_output for n, t in zip(counts, fleet.types)))
        edges.add(sum(n * t.max_output for n, t in zip(counts, fleet.types)))
    margin = MILP_MARGIN * max(1.0, capacity)
    return [share * capacity for share in shares
            if all(abs(share * capacity - edge) >= margin for edge in edges)]


def check_milp_values(fleet, shares):
    """ucp_values against oracles.milp_value: infinities agree exactly, and
    finite values within what HiGHS's tolerance allows.

    HiGHS may break each of its rows (one per segment, one per type and the
    demand balance) by up to 1e-7 MW, and moving that much output between
    segments moves the cost by at most 1e-7 times the dearest marginal
    cost; 1e-12 relative covers the two summation orders.  In two samples
    of 300 drawn fleets the largest gaps read 1.0e-6 $ (a demand HiGHS met
    3.7e-8 MW past a capacity; the bound there is 5.4e-5 $) and 4.5e-13 $.
    """
    rows = sum(len(t.segments) for t in fleet.types) + len(fleet.types) + 1
    dearest = max(seg.marginal_cost for t in fleet.types for seg in t.segments)
    demands = milp_demands(fleet, shares)
    for y, value in zip(demands, ucp_values(fleet, demands).tolist()):
        reference = oracles.milp_value(fleet, y)
        if math.isinf(value) or math.isinf(reference):
            assert value == reference
        else:
            assert abs(value - reference) <= 1e-7 * rows * dearest + 1e-12 * abs(reference)


@MILP_PROPERTY
@given(fleets(), MILP_SHARES)
@example(BREAKEVEN_FLEET, [0.5, 1.05])
@example(GAP_FLEET, [100.15 / 201.0, 0.25, 0.75])  # 100.15 MW is in the gap
def test_ucp_values_are_the_milp_value(fleet, shares):
    check_milp_values(fleet, shares)


def test_milp_property_catches_a_reversed_merit_order(monkeypatch):
    # a planted mutant: _fill, and the tables built meanwhile (left out of
    # the cache), take the free blocks dearest first
    merit_order = ucp._merit_order
    monkeypatch.setattr(ucp, "_merit_order", lambda fleet: merit_order(fleet)[::-1])
    monkeypatch.setattr(ucp, "_commitment_table", ucp._commitment_table.__wrapped__)
    # the property's draws, with a failure reported as found, not shrunk
    mutant = settings(MILP_PROPERTY, phases=[Phase.generate])(
        given(fleets(), MILP_SHARES)(check_milp_values))
    with pytest.raises(AssertionError):
        mutant()
