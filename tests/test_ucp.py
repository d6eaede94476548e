import dataclasses
import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from chpricing import (
    Commitment,
    Fleet,
    GeneratorType,
    CostSegment,
    InfeasibleError,
    QuadraticCost,
    best_response,
    conjugate,
    dispatch_committed,
    fleet_supply,
    hull_value,
    no_startup_value,
    quadratic_fit,
    relaxed_value,
    ucp_value,
    ucp_values,
)
from chpricing import ucp
from chpricing.ucp import (
    FEAS_EPS,
    MAX_TABLE_CELLS,
    no_startup_values,
    relaxed_supply,
    unit_variable_cost,
)
from test_staircase import PROPERTY, fleets, one_unit


def enumerated_value(fleet, y):
    """v(y) by enumerating every commitment, the first strict minimum winning.

    The loop ucp_value replaced, kept as its reference: every commitment
    is costed by oracles.committed_cost, which shares no code with the
    library, and only the winner is dispatched.  ucp_value must pick the
    same commitment and return the same float and Dispatch.
    """
    if not -FEAS_EPS <= y <= fleet.total_capacity + FEAS_EPS:
        raise InfeasibleError(f"demand {y} outside [0, {fleet.total_capacity}] MW")
    best = best_counts = None
    for counts in product(*(range(t.unit_count + 1) for t in fleet.types)):
        try:
            cost = oracles.committed_cost(fleet, counts, y)
        except InfeasibleError:
            continue
        if best is None or cost < best:
            best, best_counts = cost, counts
    if best is None:
        raise InfeasibleError(f"no commitment can meet {y} MW")
    return best, dispatch_committed(fleet, Commitment(best_counts), y)


def value_and_counts(value_fn, fleet, y):
    try:
        v, dispatch = value_fn(fleet, y)
    except InfeasibleError:
        return None
    return v, dispatch.commitment.counts


def assert_matches_enumeration(fleet, demands):
    for y in demands:
        assert value_and_counts(ucp_value, fleet, y) == \
            value_and_counts(enumerated_value, fleet, y), y


def enumerated_values(fleet, demands):
    """enumerated_value at each demand, +inf where it raises InfeasibleError."""
    values = []
    for y in demands:
        try:
            values.append(enumerated_value(fleet, y)[0])
        except InfeasibleError:
            values.append(math.inf)
    return values


def batch_demands(fleet):
    """Integer demands, commitment edges, 0, capacity and infeasible points.

    The infeasible points lie below 0, above capacity, and (when every
    type has a minimum output) in the gap between 0 and the smallest one.
    """
    cap = fleet.total_capacity
    gap = 0.5 * min(t.min_output for t in fleet.types)
    return ([float(y) for y in range(int(cap) + 1)] + commitment_edges(fleet)
            + [0.0, cap, -1.0, -2 * FEAS_EPS, cap + 2 * FEAS_EPS, cap + 1.0, gap])


def commitment_edges(fleet):
    """Every commitment's floor and ceil, and those points +- FEAS_EPS/2."""
    edges = set()
    for counts in product(*(range(t.unit_count + 1) for t in fleet.types)):
        for edge in (sum(n * t.min_output for n, t in zip(counts, fleet.types)),
                     sum(n * t.max_output for n, t in zip(counts, fleet.types))):
            edges.update((edge - 0.5 * FEAS_EPS, edge, edge + 0.5 * FEAS_EPS))
    return sorted(edges)


def drawn_fleet():
    """Three two-unit types whose costs and sizes are not integers, so
    their fills round."""
    rng = np.random.default_rng(5)
    return Fleet(tuple(
        GeneratorType(f"T{i}", float(rng.uniform(0, 900)), float(rng.uniform(1, 9)),
                      (CostSegment(float(c), float(rng.uniform(10, 30))),
                       CostSegment(float(c + rng.uniform(1, 20)),
                                   float(rng.uniform(5, 15)))), 2)
        for i, c in enumerate(rng.uniform(5, 50, size=3))))


def assert_fill_matches_oracle(fleet, demands):
    """One _fill pass over every feasible commitment at each demand costs
    each the float of the pure-Python fill, oracles.committed_cost."""
    table = ucp._commitment_table(fleet)
    ys, commitments = [], []
    for y in demands:
        feasible = np.flatnonzero((y >= table.lo) & (y <= table.hi))
        ys += [y] * feasible.size
        commitments += feasible.tolist()
    commitments = np.array(commitments, dtype=int)
    _per_unit, costs = ucp._fill(fleet, table.counts[commitments],
                                 table.floor[commitments], np.array(ys))
    assert costs.tolist() == [
        oracles.committed_cost(fleet, tuple(table.counts[c].tolist()), y)
        for y, c in zip(ys, commitments)]


def by_name(fleet, name):
    return next(t for t in fleet.types if t.name == name)


class TestUnitVariableCost:
    def test_two_segment_fill(self, gribik):
        assert unit_variable_cost(by_name(gribik, "A"), 150.0) == 65 * 100 + 110 * 50

    def test_zero_output(self, gribik):
        assert unit_variable_cost(by_name(gribik, "A"), 0.0) == 0.0

    def test_single_segment(self, scarf):
        assert unit_variable_cost(by_name(scarf, "MedTech"), 2.0) == 14.0

    def test_out_of_range(self, gribik):
        with pytest.raises(ValueError):
            unit_variable_cost(by_name(gribik, "A"), 200.5)
        with pytest.raises(ValueError):
            unit_variable_cost(by_name(gribik, "A"), -1.0)

    def test_nan_output_refused(self, gribik):
        # NaN fails both range comparisons, so unchecked it costs nan
        with pytest.raises(ValueError, match=r"^A: output nan outside \[0, 200.0\]$"):
            unit_variable_cost(by_name(gribik, "A"), math.nan)


class TestDispatchCommitted:
    def test_two_type_merit_order(self, gribik):
        d = dispatch_committed(gribik, Commitment((1, 0, 1)), 300.0)
        assert d.total_cost == pytest.approx(20500.0, abs=1e-9)
        assert d.total_output == pytest.approx(300.0, abs=1e-9)

    def test_empty_commitment(self, gribik):
        d = dispatch_committed(gribik, Commitment((0, 0, 0)), 0.0)
        assert d.total_cost == 0.0

    def test_identical_units_share(self, scarf):
        d = dispatch_committed(scarf, Commitment((0, 5, 0)), 35.0)
        assert d.total_cost == pytest.approx(5 * (30 + 14), abs=1e-9)
        assert d.outputs[1] == (7.0,) * 5

    def test_infeasible_demand(self, gribik):
        with pytest.raises(InfeasibleError):
            dispatch_committed(gribik, Commitment((1, 0, 0)), 300.0)

    def test_nan_demand_refused(self, gribik):
        with pytest.raises(ValueError, match="demand must be >= 0, got nan"):
            dispatch_committed(gribik, Commitment((1, 0, 1)), math.nan)

    def test_bad_counts(self, gribik):
        with pytest.raises(ValueError):
            dispatch_committed(gribik, Commitment((2, 0, 0)), 100.0)
        with pytest.raises(ValueError):
            dispatch_committed(gribik, Commitment((1, 0)), 100.0)

    @pytest.mark.parametrize("counts", [(1.7, 0, True), (0.9, 1, 1), (1, 0, 1.0),
                                        (1, 0, "1"), (1, 0, None)])
    def test_non_integer_counts_refused(self, counts):
        # int() would commit (1, 0, 1) for the first and (0, 1, 1) for the second
        with pytest.raises(ValueError, match="commitment counts must be integers"):
            Commitment(counts)

    def test_numpy_integer_counts_accepted(self, gribik):
        # the commitment table holds its counts as small unsigned numpy ints
        commitment = Commitment((np.uint8(1), np.int64(0), np.uint8(1)))
        assert commitment.counts == (1, 0, 1)
        assert all(type(n) is int for n in commitment.counts)
        assert dispatch_committed(gribik, commitment, 300.0) == \
            dispatch_committed(gribik, Commitment((1, 0, 1)), 300.0)

    def test_min_output_respected(self, scarf):
        d = dispatch_committed(scarf, Commitment((1, 0, 3)), 9.0)
        # three committed units at their minimum, two uncommitted slots at 0
        assert d.outputs[2][:3] == (2.0, 2.0, 2.0)
        assert d.outputs[2][3:] == (0.0, 0.0)
        assert d.outputs[0] == (3.0,) + (0.0,) * 5
        assert d.total_output == pytest.approx(9.0, abs=1e-12)

    @pytest.mark.parametrize("counts", [(1, 0, 0), (0, 1, 0), (1, 1, 1),
                                        (1, 0, 1), (0, 1, 1)])
    def test_matches_grid_oracle_gribik(self, gribik, counts):
        grid = oracles.commitment_cost_grid(gribik, counts, 1.0)
        for i in range(0, grid.size, 23):
            if math.isfinite(grid[i]):
                d = dispatch_committed(gribik, Commitment(counts), float(i))
                assert d.total_cost == pytest.approx(grid[i], abs=1e-9)

    def test_matches_grid_oracle_scarf(self, scarf):
        small = oracles.reduced_scarf(scarf)
        for counts in [(2, 0, 1), (1, 2, 2), (0, 1, 2), (2, 2, 2)]:
            grid = oracles.commitment_cost_grid(small, counts, 0.5)
            lo = sum(n * t.min_output for n, t in zip(counts, small.types))
            for i in range(grid.size):
                y = i * 0.5
                if y >= lo and math.isfinite(grid[i]):
                    d = dispatch_committed(small, Commitment(counts), y)
                    assert d.total_cost == pytest.approx(grid[i], abs=1e-9)


class TestUcpValue:
    def test_zero_demand(self, gribik):
        v, d = ucp_value(gribik, 0.0)
        assert v == 0.0
        assert d.commitment.counts == (0, 0, 0)

    def test_one_unit_region(self, gribik):
        v, _ = ucp_value(gribik, 100.0)
        assert v == pytest.approx(6500.0, abs=1e-9)

    def test_two_unit_region(self, gribik):
        v, d = ucp_value(gribik, 300.0)
        assert v == pytest.approx(20500.0, abs=1e-9)
        assert d.commitment.counts == (1, 0, 1)

    def test_startup_heavy_point(self, scarf):
        # cheapest way to serve 96.6 MW commits 5 Smokestack + 2 HighTech
        # + 1 MedTech (5*53 + 2*30 + 28 + 240 + 18.2); greedier-looking
        # commitments such as 5 HighTech + 4 Smokestack cost 616.8
        v, d = ucp_value(scarf, 96.6)
        assert v == pytest.approx(611.2, abs=1e-9)
        assert d.commitment.counts == (5, 2, 1)

    def test_infeasible(self, gribik):
        with pytest.raises(InfeasibleError):
            ucp_value(gribik, -1.0)
        with pytest.raises(InfeasibleError):
            ucp_value(gribik, 600.5)

    def test_nan_demand_refused(self, gribik):
        # NaN fails every comparison, so it must not pass the range check
        with pytest.raises(InfeasibleError,
                           match=r"^demand nan outside feasible range \[0, 600.0\] MW$"):
            ucp_value(gribik, math.nan)

    def test_full_grid_against_enumeration_oracle(self, gribik):
        grid = oracles.fleet_value_grid(gribik, 1.0)
        for i in range(grid.size):
            v, _ = ucp_value(gribik, float(i))
            assert v == pytest.approx(grid[i], abs=1e-9)

    @PROPERTY
    @given(fleets())
    def test_matches_enumeration(self, fleet):
        integers = range(int(fleet.total_capacity) + 1)
        assert_matches_enumeration(fleet, [float(y) for y in integers])
        assert_matches_enumeration(fleet, commitment_edges(fleet))

    def test_builtin_fleets_match_enumeration(self, gribik, scarf):
        for fleet in (gribik, scarf):
            ys = np.linspace(0.0, fleet.total_capacity, 121)
            assert_matches_enumeration(fleet, [float(y) for y in ys])

    def test_ties_go_to_first_commitment_in_product_order(self):
        twin = GeneratorType("A", 100.0, 5.0,
                             (CostSegment(10.0, 10.0), CostSegment(20.0, 10.0)), 2)
        fleet = Fleet((twin, dataclasses.replace(twin, name="B")))
        # one unit of either type serves 12 MW: (0, 1) precedes (1, 0)
        v, d = ucp_value(fleet, 12.0)
        assert d.commitment.counts == (0, 1)
        assert v == 100.0 + 10.0 * 10.0 + 20.0 * 2.0
        ys = [0.5 * k for k in range(int(2 * fleet.total_capacity) + 1)]
        assert_matches_enumeration(fleet, ys + commitment_edges(fleet))

    def test_rounding_near_tie_is_decided_exactly(self):
        # the table's sum for the cheapest commitment rounds above another
        # commitment's; only the margin keeps the true minimum a candidate
        gtype = GeneratorType("T0", 49.99728236586185, 2.2322924378479447,
                              (CostSegment(48.30903919059715, 5.722652655298768),
                               CostSegment(49.40903919059715, 4.005856858709137)), 2)
        fleet = Fleet((gtype, dataclasses.replace(gtype, name="T1", unit_count=1),
                       dataclasses.replace(gtype, name="T2", unit_count=1)))
        y = 12.164358907444809
        expected = enumerated_value(fleet, y)
        assert value_and_counts(ucp_value, fleet, y) == \
            (expected[0], expected[1].commitment.counts)
        assert ucp_values(fleet, [y]).tolist() == [expected[0]]

    def test_units_without_free_capacity(self):
        # every unit runs at its only output level, so no block is left to fill
        fleet = Fleet((GeneratorType("A", 3.0, 4.0, (CostSegment(2.0, 4.0),), 2),
                       GeneratorType("B", 1.0, 6.0, (CostSegment(1.0, 6.0),), 1)))
        assert ucp_value(fleet, 10.0) == enumerated_value(fleet, 10.0)
        assert ucp_value(fleet, 10.0)[1].commitment.counts == (1, 1)
        with pytest.raises(InfeasibleError):
            ucp_value(fleet, 5.0)
        assert_matches_enumeration(fleet, [float(y) for y in range(15)])

    def test_table_size_bounded_before_allocation(self, monkeypatch):
        gtype = GeneratorType("T0", 10.0, 0.0, (CostSegment(5.0, 10.0),), 10)
        fleet = Fleet(tuple(dataclasses.replace(gtype, name=f"T{i}") for i in range(10)))
        commitments = 11 ** 10

        def no_table(*args, **kwargs):
            raise AssertionError("commitment table allocated")

        monkeypatch.setattr(np, "indices", no_table)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"{commitments} commitments.*{MAX_TABLE_CELLS}"):
                ucp_value(fleet, 50.0)
            elapsed = time.perf_counter() - start
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_largest_three_type_fleet_fits(self):
        fleet = Fleet(tuple(GeneratorType(f"T{i}", 10.0 * i, 1.0,
                                          (CostSegment(5.0 + i, 10.0),), 40)
                            for i in range(3)))
        v, d = ucp_value(fleet, 555.5)
        assert d.total_output == pytest.approx(555.5, abs=1e-9)
        all_on = dispatch_committed(fleet, Commitment((40, 40, 40)), 555.5)
        assert relaxed_value(fleet, 555.5)[0] <= v < all_on.total_cost

    @PROPERTY
    @given(fleets(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_batch_dispatch_costs_every_commitment_exactly(self, fleet, fractions):
        demands = [f * fleet.total_capacity for f in fractions] + batch_demands(fleet)
        assert_fill_matches_oracle(fleet, demands)

    def test_fill_matches_oracle_where_sums_round(self, gribik, scarf):
        # hypothesis's fleets hold integers and at most 2 units per type,
        # so their fills hardly round; scarf's 5-6 units and drawn_fleet's
        # fractions do
        for fleet in (gribik, scarf, drawn_fleet()):
            demands = np.linspace(-1.0, fleet.total_capacity + 1, 97).tolist()
            assert_fill_matches_oracle(fleet, demands)

    @PROPERTY
    @given(fleets())
    def test_batch_matches_enumeration(self, fleet):
        demands = batch_demands(fleet)
        assert ucp_values(fleet, demands).tolist() == enumerated_values(fleet, demands)

    def test_batch_matches_scalar(self, gribik, scarf):
        for fleet in (gribik, scarf, drawn_fleet()):
            demands = [float(y) for y in np.linspace(-1.0, fleet.total_capacity + 1, 243)]
            scalar = [value_and_counts(ucp_value, fleet, y) for y in demands]
            assert ucp_values(fleet, demands).tolist() == \
                [math.inf if v is None else v[0] for v in scalar]

    def test_batch_chunks_do_not_change_values(self, scarf, monkeypatch):
        # 252 commitments x 3 blocks: whole chunks of 86 demands by default
        demands = [float(y) for y in np.linspace(-2.0, 163.0, 701)]
        whole = ucp_values(scarf, demands)
        assert np.isinf(whole).sum() == sum(not 0.0 <= y <= 161.0 for y in demands)
        for cells in (1, 756 * 3, 756 * 7 + 5):
            monkeypatch.setattr(ucp, "BATCH_CELLS", cells)
            assert ucp_values(scarf, demands).tolist() == whole.tolist()

    def test_batch_costs_no_infeasible_demand(self, monkeypatch):
        fleet = Fleet((GeneratorType("A", 3.0, 4.0, (CostSegment(2.0, 6.0),), 2),
                       GeneratorType("B", 1.0, 5.0, (CostSegment(1.0, 6.0),), 1)))
        costed = []
        fill = ucp._fill
        expected = ucp_value(fleet, 10.0)[0]

        def spy(fleet, counts, floor, ys):
            costed.extend(ys.tolist())
            return fill(fleet, counts, floor, ys)

        monkeypatch.setattr(ucp, "_fill", spy)
        infeasible = [-1.0, 2.0, 18.5, 30.0]
        assert ucp_values(fleet, infeasible).tolist() == [math.inf] * 4
        assert costed == []
        assert ucp_values(fleet, infeasible + [10.0]).tolist() == \
            [math.inf] * 4 + [expected]
        assert set(costed) == {10.0}

    def test_batch_of_no_demands(self, gribik):
        assert ucp_values(gribik, []).shape == (0,)

    @pytest.mark.parametrize("demands, shape", [
        (300.0, r"\(\)"), ([[100.0, 200.0], [300.0, 400.0]], r"\(2, 2\)"),
        ([[]], r"\(1, 0\)")])
    def test_batch_refuses_other_shapes(self, gribik, demands, shape):
        with pytest.raises(ValueError, match=rf"^demands must be 1-D, got shape {shape}$"):
            ucp_values(gribik, demands)

    def test_batch_refuses_nan_demand(self, gribik):
        # unguarded, the feasibility mask reads NaN as uncoverable: +inf
        with pytest.raises(InfeasibleError,
                           match=r"^demand nan outside feasible range \[0, 600.0\] MW$"):
            ucp_values(gribik, [100.0, math.nan, 700.0])

    def test_reduced_scarf_against_enumeration_oracle(self, scarf):
        small = oracles.reduced_scarf(scarf)
        grid = oracles.fleet_value_grid(small, 0.1)
        for i in range(0, grid.size, 3):
            v, _ = ucp_value(small, i * 0.1)
            assert v == pytest.approx(grid[i], abs=1e-8)


class TestBestResponse:
    def test_interior_price(self, gribik):
        r = best_response(gribik, 90.0)
        assert r.supply == pytest.approx(300.0)
        assert r.profit == pytest.approx(6500.0)
        assert r.commitment.counts == (1, 0, 1)

    def test_zero_price(self, gribik, scarf):
        for fleet in (gribik, scarf):
            r = best_response(fleet, 0.0)
            assert r.supply == 0.0
            assert r.profit == 0.0

    def test_profit_neutral_unit_commits_fully(self, scarf):
        # at 7 the MedTech units earn exactly zero and are kept at full output
        r = best_response(scarf, 7.0)
        assert r.supply == pytest.approx(161.0)
        assert r.profit == pytest.approx(6 * 11 + 5 * 5, abs=1e-9)

    def test_marginal_segment_tie_taken_fully(self, gribik):
        assert fleet_supply(gribik, 65.0) == pytest.approx(100.0)
        assert fleet_supply(gribik, 64.999) == 0.0

    @pytest.mark.parametrize("fixture_name", ["gribik", "scarf"])
    def test_supply_nondecreasing(self, fixture_name, gribik, scarf):
        fleet = gribik if fixture_name == "gribik" else scarf
        cap = 160.0 if fixture_name == "gribik" else 9.0
        prices = np.linspace(0.0, cap, 400)
        supplies = [fleet_supply(fleet, float(p)) for p in prices]
        assert all(b >= a - 1e-9 for a, b in zip(supplies, supplies[1:]))

    def test_per_unit_grid_oracle(self, gribik, scarf):
        for fleet, prices in ((gribik, (20, 40, 64.9, 65, 66, 90, 95, 105, 111, 150)),
                              (scarf, (1, 2.5, 3, 5, 6.2857, 6.3125, 6.4, 7, 7.5))):
            for gtype in fleet.types:
                single = Fleet((dataclasses.replace(gtype, unit_count=1),))
                for price in prices:
                    g_star, p_star = oracles.unit_best_response_grid(gtype, price)
                    r = best_response(single, float(price))
                    assert r.profit == pytest.approx(p_star, abs=0.02 * max(1.0, price))
                    assert r.supply == pytest.approx(g_star, abs=0.011)


class TestConjugate:
    def test_pointwise_values(self, gribik, scarf):
        assert conjugate(gribik, 90.0) == pytest.approx(6500.0, abs=1e-9)
        assert conjugate(gribik, 0.0) == 0.0
        assert conjugate(scarf, 6.3125) == pytest.approx(0.9375, abs=1e-12)

    def test_equals_best_response_profit(self, gribik, scarf):
        for fleet, hi in ((gribik, 151.0), (scarf, 8.0)):
            for lam in np.linspace(0.0, hi, 41):
                assert conjugate(fleet, float(lam)) == \
                    best_response(fleet, float(lam)).profit

    def test_matches_grid_definition(self, gribik, scarf):
        # v is piecewise linear with integer breakpoints on these fleets,
        # so the grid max over integer y is the exact conjugate
        for fleet, lams in ((gribik, np.arange(0.0, 120.1, 2.5)),
                            (scarf, np.arange(0.0, 8.1, 0.25))):
            cap = int(fleet.total_capacity)
            values = [ucp_value(fleet, float(y))[0] for y in range(cap + 1)]
            for lam in lams:
                grid_max = max(lam * y - v for y, v in enumerate(values))
                assert conjugate(fleet, float(lam)) == \
                    pytest.approx(max(grid_max, 0.0), abs=1e-6)


class TestRelaxed:
    def test_proportional_spread_beats_full_commit(self, gribik):
        c = by_name(gribik, "C")
        for g in (0.0, 37.5, 100.0, 153.0, 200.0):
            assert relaxed_value(one_unit(c), g)[0] == pytest.approx(70.0 * g, abs=1e-9)

    def test_full_commitment_endpoint(self, gribik):
        assert relaxed_value(one_unit(by_name(gribik, "B")), 200.0)[0] == \
            pytest.approx(19000.0, abs=1e-9)

    def test_zero(self, gribik):
        assert relaxed_value(one_unit(by_name(gribik, "A")), 0.0)[0] == 0.0

    def test_out_of_range(self, gribik):
        with pytest.raises(InfeasibleError):
            relaxed_value(one_unit(by_name(gribik, "A")), 201.0)

    def test_against_z_grid_oracle(self, gribik, scarf):
        for fleet in (gribik, scarf):
            for gtype in fleet.types:
                for frac in (0.15, 0.4, 0.77, 1.0):
                    g = frac * gtype.max_output
                    got = relaxed_value(one_unit(gtype), g)[0]
                    ref = oracles.relaxed_unit_grid(gtype, g)
                    assert got <= ref + 1e-9
                    assert got == pytest.approx(ref, abs=0.02)

    def test_merit_order_value_and_price(self, gribik):
        assert relaxed_value(gribik, 250.0) == (pytest.approx(17000.0), 70.0)
        assert relaxed_value(gribik, 406.69)[1] == 95.0
        assert relaxed_value(gribik, 0.0) == (0.0, 65.0)

    def test_right_derivative_at_block_boundary(self, gribik):
        # 300 MW exactly exhausts the 65 and 70 blocks; the next MW costs 95
        assert relaxed_value(gribik, 300.0)[1] == 95.0

    def test_below_ucp_and_convex(self, gribik, scarf):
        for fleet, step in ((gribik, 20.0), (scarf, 7.0)):
            ys = np.arange(0.0, fleet.total_capacity + 1e-9, step)
            vals = {}
            for y in ys:
                r, _ = relaxed_value(fleet, float(y))
                v, _ = ucp_value(fleet, float(y))
                assert r <= v + 1e-9
                vals[float(y)] = r
            for a, b in zip(ys, ys[2:]):
                mid = relaxed_value(fleet, float(0.5 * (a + b)))[0]
                assert mid <= 0.5 * (vals[float(a)] + vals[float(b)]) + 1e-9

    def test_supply_inverts_price(self, gribik):
        assert relaxed_supply(gribik, 64.0) == 0.0
        assert relaxed_supply(gribik, 65.0) == 100.0
        assert relaxed_supply(gribik, 94.99) == 300.0
        assert relaxed_supply(gribik, 120.0) == 600.0

    def test_infeasible(self, gribik):
        with pytest.raises(InfeasibleError):
            relaxed_value(gribik, 600.1)

    def test_capacity_above_rounded_staircase_top(self):
        # the staircase sums capacity in merit order, the fleet in type
        # order; at this scale the staircase top rounds 1.9e-9 MW lower
        caps = (1866397.6, 2688466.3, 1116163.2, 1886766.7)
        fleet = Fleet(tuple(GeneratorType(f"T{i}", 0.0, 0.0,
                                          (CostSegment(40.0 - 10.0 * i, cap),))
                            for i, cap in enumerate(caps)))
        cap_mw = fleet.total_capacity
        assert oracles.staircase_tuples(fleet)[1][-1] < cap_mw - FEAS_EPS
        value, price = relaxed_value(fleet, cap_mw)
        assert value == pytest.approx(sum((40.0 - 10.0 * i) * cap
                                          for i, cap in enumerate(caps)))
        assert price == 40.0
        point = hull_value(fleet, cap_mw)
        assert (point.hull_value, point.price_lo) == (value, 40.0)


class TestNoStartup:
    def test_merit_order_over_all_segments(self, gribik):
        assert no_startup_value(gribik, 300.0) == pytest.approx(10000.0)
        assert no_startup_value(gribik, 0.0) == 0.0
        assert no_startup_value(gribik, 600.0) == pytest.approx(36500.0)

    def test_batch_matches_scalar(self, gribik, scarf):
        for fleet in (gribik, scarf):
            ys = [float(y) for y in np.linspace(0.0, fleet.total_capacity, 121)]
            assert no_startup_values(fleet, ys).tolist() == \
                [no_startup_value(fleet, y) for y in ys]


class TestQuadraticFit:
    def test_linear_target_degenerates_to_slope(self):
        fleet = Fleet((GeneratorType("flat", 0.0, 0.0,
                                     (CostSegment(12.0, 50.0),)),))
        quad = quadratic_fit(fleet)
        assert quad.alpha > 0.0
        assert quad.beta == pytest.approx(12.0, abs=1e-6)

    def test_quadratic_term_improves_fit(self, gribik):
        ys = np.linspace(0.0, gribik.total_capacity, 121)
        target = np.array([no_startup_value(gribik, float(y)) for y in ys])
        quad = quadratic_fit(gribik)
        res = float(np.sum((quad.alpha * ys**2 + quad.beta * ys - target) ** 2))
        beta_only = float(np.sum(ys * target) / np.sum(ys * ys))
        res_lin = float(np.sum((beta_only * ys - target) ** 2))
        assert res < res_lin

    def test_zero_intercept(self, gribik):
        assert quadratic_fit(gribik).cost(0.0) == 0.0

    def test_sample_count_validated(self, gribik):
        with pytest.raises(ValueError):
            quadratic_fit(gribik, sample_count=2)

    def test_uncoverable_sample_rejected(self):
        # a 4-5 MW unit cannot serve the 1.25 MW sample of its grid
        fleet = Fleet((GeneratorType("A", 0.0, 4.0, (CostSegment(1.0, 5.0),)),))
        with pytest.raises(InfeasibleError, match="1.25 MW"):
            quadratic_fit(fleet, sample_count=5)

    def test_degenerate_target_rejected(self):
        fleet = Fleet((GeneratorType("free", 0.0, 0.0,
                                     (CostSegment(0.0, 10.0),)),))
        with pytest.raises(ValueError):
            quadratic_fit(fleet)

    def test_supply_clamps_to_capacity(self, gribik):
        quad = quadratic_fit(gribik)
        assert quad.supply(1e9) == gribik.total_capacity
        assert quad.supply(-1e9) == 0.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            QuadraticCost(alpha=0.0, beta=1.0, capacity=10.0)

    @pytest.mark.parametrize("beta, capacity, message", [
        (math.nan, 10.0, "beta must be finite"), (math.inf, 10.0, "beta must be finite"),
        (-math.inf, 10.0, "beta must be finite"), (1.0, math.nan, "capacity must be > 0"),
        (1.0, 0.0, "capacity must be > 0"), (1.0, -5.0, "capacity must be > 0")])
    def test_beta_and_capacity_validated(self, beta, capacity, message):
        # unchecked, QuadraticCost(1.0, nan, 10.0).supply(5.0) is nan
        with pytest.raises(ValueError, match=message):
            QuadraticCost(alpha=1.0, beta=beta, capacity=capacity)
