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
from chpricing import cli, ucp
from chpricing.ucp import (
    FEAS_EPS,
    MAX_TABLE_CELLS,
    no_startup_values,
    relaxed_supply,
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
    """Integer demands, commitment edges, 0, capacity and infeasible points."""
    return ([float(y) for y in range(int(fleet.total_capacity) + 1)]
            + commitment_edges(fleet) + range_ends(fleet))


def range_ends(fleet):
    """0, capacity and infeasible points.

    The infeasible points lie below 0, above capacity, and (when every
    type has a minimum output) in the gap between 0 and the smallest one.
    """
    cap = fleet.total_capacity
    gap = 0.5 * min(t.min_output for t in fleet.types)
    return [0.0, cap, -1.0, -2 * FEAS_EPS, cap + 2 * FEAS_EPS, cap + 1.0, gap]


def sparse_demands(fleet, fractions):
    """The given fractions of capacity, about nine commitment edges and
    range_ends: few enough to enumerate a fleet of 3-5 unit types."""
    edges = commitment_edges(fleet)
    return ([f * fleet.total_capacity for f in fractions]
            + edges[::max(1, len(edges) // 9)] + range_ends(fleet))


FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)


@st.composite
def fractional_fleets(draw):
    """Up to 3 types of 3-5 units whose costs and sizes are drawn as
    floats, not integers, so that sharing a fill among a type's units
    rounds."""
    def real(lo, hi):
        return draw(st.floats(lo, hi, allow_subnormal=False))

    types = []
    for i in range(draw(st.integers(1, 3))):
        costs = sorted(real(0.0, 60.0) for _ in range(draw(st.integers(1, 2))))
        segments = tuple(CostSegment(c, real(0.5, 6.0)) for c in costs)
        max_output = sum(s.capacity for s in segments)
        types.append(GeneratorType(f"T{i}", real(0.0, 400.0),
                                   real(0.0, 1.0) * max_output, segments,
                                   draw(st.integers(3, 5))))
    return Fleet(tuple(types))


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


def cell_boundaries(fleet):
    """Every commitment's lo, hi and floor + span, and one float either side."""
    table = ucp._commitment_table(fleet)
    edges = np.concatenate([table.lo, table.hi, table.floor + table.span])
    return sorted({float(y) for y in np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])})


def priced(value_fn, fleet, y):
    """value_fn(fleet, y), a (cost, Dispatch) pair, or None where it is infeasible."""
    try:
        return value_fn(fleet, y)
    except InfeasibleError:
        return None


def spy_reads(monkeypatch):
    """Record the number of demands of every commitment-table read."""
    reads = []
    read = ucp._read

    def spy(table, ys):
        reads.append(np.size(ys))
        return read(table, ys)

    monkeypatch.setattr(ucp, "_read", spy)
    return reads


def record_fills(monkeypatch):
    """Record the number of (demand, commitment) pairs of every _fill pass."""
    pairs = []
    fill = ucp._fill

    def spy(fleet, counts, floor, ys):
        pairs.append(len(ys))
        return fill(fleet, counts, floor, ys)

    monkeypatch.setattr(ucp, "_fill", spy)
    return pairs


def cell_of(table, y):
    """The feasibility cell of demand y: commitments with lo <= y plus hi < y."""
    return int((y >= table.lo).sum() + (y > table.hi).sum())


def cell_list(table, *demands):
    """The candidate list of the one cell that holds the demands, as
    _batch_candidates gives it to each of them."""
    _order, pairs, cols = ucp._batch_candidates(table, np.array(demands, dtype=float))
    assert (pairs == pairs[0]).all()
    return cols[:pairs[0]]


def by_name(fleet, name):
    return next(t for t in fleet.types if t.name == name)


class TestUnitVariableCost:
    """One unit's variable cost, as the table's base and best_response read it."""

    def test_two_segment_fill(self, gribik):
        cost = ucp._variable_costs(by_name(gribik, "A"), np.float64(150.0))
        assert cost == 65 * 100 + 110 * 50

    def test_zero_output(self, gribik):
        assert ucp._variable_costs(by_name(gribik, "A"), np.float64(0.0)) == 0.0

    def test_single_segment(self, scarf):
        assert ucp._variable_costs(by_name(scarf, "MedTech"), np.float64(2.0)) == 14.0


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
        assert d.commitment.counts[1] == 5 and d.unit_outputs[1] == 7.0

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

    def test_bool_counts_refused(self):
        # bool is an int subclass; (True, False, 1) once committed (1, 0, 1)
        with pytest.raises(ValueError, match="commitment counts must be integers"):
            Commitment((True, False, 1))

    def test_negative_counts_refused(self):
        with pytest.raises(ValueError,
                           match=r"^commitment counts must be >= 0, got \(-1, 0, 0\)$"):
            Commitment((-1, 0, 0))

    def test_numpy_integer_counts_accepted(self, gribik):
        # the commitment table holds its counts as small unsigned numpy ints
        commitment = Commitment((np.uint8(1), np.int64(0), np.uint8(1)))
        assert commitment.counts == (1, 0, 1)
        assert all(type(n) is int for n in commitment.counts)
        assert dispatch_committed(gribik, commitment, 300.0) == \
            dispatch_committed(gribik, Commitment((1, 0, 1)), 300.0)

    def test_min_output_respected(self, scarf):
        d = dispatch_committed(scarf, Commitment((1, 0, 3)), 9.0)
        # three committed units at their minimum; a type with none on reads 0
        assert d.commitment.counts == (1, 0, 3)
        assert d.unit_outputs == (3.0, 0.0, 2.0)
        assert d.total_output == pytest.approx(9.0, abs=1e-12)

    def test_work_is_bounded_by_the_type_count(self):
        # one output per type: a million units once built an 8 MB tuple per call
        fleet = Fleet((GeneratorType("U", 10.0, 1.0, (CostSegment(5.0, 10.0),), 10 ** 6),))
        tracemalloc.start()
        try:
            reaction = best_response(fleet, 6.0)
            d = dispatch_committed(fleet, Commitment((500_000,)), 2.0e6)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert reaction.commitment.counts == (10 ** 6,)
        assert reaction.dispatch.unit_outputs == (10.0,)
        assert reaction.supply == 1.0e7
        assert d.unit_outputs == (4.0,) and d.total_output == 2.0e6

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
    @given(fleets(), fractional_fleets(), FRACTIONS)
    def test_matches_enumeration(self, fleet, rounding_fleet, fractions):
        integers = range(int(fleet.total_capacity) + 1)
        assert_matches_enumeration(fleet, [float(y) for y in integers])
        assert_matches_enumeration(fleet, commitment_edges(fleet))
        assert_matches_enumeration(rounding_fleet, sparse_demands(rounding_fleet, fractions))

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
    @given(fleets(), fractional_fleets(), FRACTIONS)
    def test_batch_dispatch_costs_every_commitment_exactly(self, fleet, rounding_fleet,
                                                           fractions):
        demands = [f * fleet.total_capacity for f in fractions] + batch_demands(fleet)
        assert_fill_matches_oracle(fleet, demands)
        assert_fill_matches_oracle(rounding_fleet, sparse_demands(rounding_fleet, fractions))

    def test_fill_matches_oracle_where_sums_round(self, gribik, scarf):
        # fixed fleets whose fills round (scarf's 5-6 units, drawn_fleet's
        # fractions), on a denser demand grid than the property's
        for fleet in (gribik, scarf, drawn_fleet()):
            demands = np.linspace(-1.0, fleet.total_capacity + 1, 97).tolist()
            assert_fill_matches_oracle(fleet, demands)

    @PROPERTY
    @given(fleets(), fractional_fleets(), FRACTIONS)
    def test_batch_matches_enumeration(self, fleet, rounding_fleet, fractions):
        demands = batch_demands(fleet)
        assert ucp_values(fleet, demands).tolist() == enumerated_values(fleet, demands)
        demands = sparse_demands(rounding_fleet, fractions)
        assert ucp_values(rounding_fleet, demands).tolist() == \
            enumerated_values(rounding_fleet, demands)

    def test_batch_matches_scalar(self, gribik, scarf):
        for fleet in (gribik, scarf, drawn_fleet()):
            demands = [float(y) for y in np.linspace(-1.0, fleet.total_capacity + 1, 243)]
            scalar = [value_and_counts(ucp_value, fleet, y) for y in demands]
            assert ucp_values(fleet, demands).tolist() == \
                [math.inf if v is None else v[0] for v in scalar]

    def test_batch_chunks_do_not_change_values(self, scarf, monkeypatch):
        # 252 commitments x 3 blocks: a table read of one cell holds 756
        # working values, so chunks of 86 cells by default, and one cell per
        # chunk at 756 or fewer
        demands = [float(y) for y in np.linspace(-2.0, 163.0, 701)]
        whole = ucp_values(scarf, demands)
        assert np.isinf(whole).sum() == sum(not 0.0 <= y <= 161.0 for y in demands)
        reads = spy_reads(monkeypatch)
        for cells in (1, 756, 756 * 3, 756 * 7 + 5):
            monkeypatch.setattr(ucp, "BATCH_CELLS", cells)
            reads.clear()
            assert ucp_values(scarf, demands).tolist() == whole.tolist()
            assert max(reads) == max(1, cells // 756)

    @PROPERTY
    @given(fleets(), st.randoms(use_true_random=False))
    def test_cell_boundaries_match_enumeration(self, fleet, rng):
        # every table lo and hi, every floor + span, and one float either
        # side, shuffled and each twice: the batch's cells split exactly there
        distinct = cell_boundaries(fleet)
        demands = distinct * 2
        rng.shuffle(demands)
        expected = {}
        for y in distinct:
            # the cost and the whole Dispatch, or None where infeasible
            expected[y] = priced(enumerated_value, fleet, y)
            assert priced(ucp_value, fleet, y) == expected[y], y
        assert ucp_values(fleet, demands).tolist() == [
            math.inf if expected[y] is None else expected[y][0] for y in demands]

    def test_iterative_day_reads_once_or_twice_per_cell(self, scarf, tmp_path,
                                                        monkeypatch):
        # the benchmark's scarf chp-subgradient day: one batch of 24 x 50 rows
        batches = []
        grouped = ucp._batch_candidates

        def spy(table, ys):
            batches.append((table, ys.copy(), len(reads)))
            return grouped(table, ys)

        reads = spy_reads(monkeypatch)
        monkeypatch.setattr(ucp, "_batch_candidates", spy)
        costed = record_fills(monkeypatch)
        assert cli.main(["run", "--fleet", "scarf", "--method", "chp-subgradient",
                         "--iters", "50", "--seed", "1", "--jobs", "1",
                         "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        (table, ys, before), = batches
        rows = sum(reads[before:])
        cells = {}
        for y in ys:
            cells.setdefault(cell_of(table, y), []).append(y)
        assert ys.size == 1200
        assert len(cells) <= rows <= min(ys.size, 2 * len(cells))
        assert rows < ys.size / 10
        # each demand is costed over its whole cell's list, which holds the
        # candidates a read of its own keeps
        pairs = 0
        for members in cells.values():
            listed = cell_list(table, min(members), max(members))
            for y in members:
                assert set(cell_list(table, y)) <= set(listed)
            pairs += len(members) * listed.size
        assert costed == [pairs]

    def test_batch_reads_a_two_demand_cell_at_both_ends(self, scarf, monkeypatch):
        # 12 cells of two demands each: one pass of 12 rows at their least
        # demands and one of 12 at their greatest
        table = ucp._commitment_table(scarf)
        base = np.linspace(150.0, 10.0, 12)
        demands = np.concatenate([base, np.nextafter(base, np.inf)]).tolist()
        assert len({cell_of(table, y) for y in demands}) == 12
        expected = [ucp_value(scarf, y)[0] for y in demands]
        reads = spy_reads(monkeypatch)
        costed = record_fills(monkeypatch)
        assert ucp_values(scarf, demands).tolist() == expected
        assert reads == [12, 12]
        assert costed == [2 * sum(cell_list(table, y, np.nextafter(y, np.inf)).size
                                  for y in base)]

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

    def test_batch_reads_no_uncovered_cell(self, monkeypatch):
        # the fleet above covers 0, [4, 6], [8, 12] and [13, 18] MW; the batch
        # mixes in demands from every gap and past capacity
        fleet = Fleet((GeneratorType("A", 3.0, 4.0, (CostSegment(2.0, 6.0),), 2),
                       GeneratorType("B", 1.0, 5.0, (CostSegment(1.0, 6.0),), 1)))
        demands = [7.0, 18.0, 2.0, 5.5, 12.5, 0.0, 10.0, 30.0, 6.5, 13.0]
        expected = [math.inf if (value := priced(ucp_value, fleet, y)) is None
                    else value[0] for y in demands]
        assert expected.count(math.inf) == 5
        read_demands = []
        read = ucp._read

        def spy(table, ys):
            read_demands.extend(ys.tolist())
            return read(table, ys)

        monkeypatch.setattr(ucp, "_read", spy)
        assert ucp_values(fleet, demands).tolist() == expected
        # 13 and 18 MW share a cell, read at both ends
        assert sorted(read_demands) == [0.0, 5.5, 10.0, 13.0, 18.0]
        read_demands.clear()
        # the 18-type fleet with minimum outputs: below 1 MW only 0 is covered
        wide = oracles.seeded_wide_fleet(min_outputs=True)
        assert ucp_values(wide, [0.5, 0.0, 0.1]).tolist() == [math.inf, 0.0, math.inf]
        assert read_demands == [0.0]

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

    def test_value_costs_every_feasible_commitment_without_a_table_read(
            self, gribik, scarf, monkeypatch):
        # v(y) by its definition: no approximate table cost, no margin
        reads = spy_reads(monkeypatch)
        costed = record_fills(monkeypatch)
        for fleet in (gribik, scarf, drawn_fleet()):
            table = ucp._commitment_table(fleet)
            for y in sparse_demands(fleet, (0.1, 0.45, 0.8)):
                expected = priced(enumerated_value, fleet, y)  # fills its winner
                costed.clear()
                assert priced(ucp_value, fleet, y) == expected, y
                feasible = int(((y >= table.lo) & (y <= table.hi)).sum())
                assert costed == ([feasible] if expected else []), y
        assert reads == []

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

    def test_uncoverable_sample_rejected(self, monkeypatch):
        # the 121 samples over 120 MW are 1 MW apart; a 4-120 MW unit cannot
        # serve 1 MW, the first sample above 0.  Refused before any is costed
        fleet = Fleet((GeneratorType("A", 0.0, 4.0, (CostSegment(1.0, 120.0),)),))
        costed = record_fills(monkeypatch)
        reads = spy_reads(monkeypatch)
        with pytest.raises(InfeasibleError, match=r"^no commitment can meet 1\.0 MW$"):
            quadratic_fit(fleet)
        assert costed == reads == []

    def test_degenerate_target_rejected(self):
        fleet = Fleet((GeneratorType("free", 0.0, 0.0,
                                     (CostSegment(0.0, 10.0),)),))
        with pytest.raises(ValueError):
            quadratic_fit(fleet)

    def test_supply_clamps_to_capacity(self, gribik):
        quad = quadratic_fit(gribik)
        assert quad.supply(1e9) == gribik.total_capacity
        assert quad.supply(-1e9) == 0.0

    def test_reads_take_a_price_or_a_sequence(self, gribik):
        # as fleet_supply and conjugate do: a float for a price (once
        # np.float64), an array for a list (once TypeError)
        quad = quadratic_fit(gribik)
        for read in (quad.supply, quad.conjugate):
            assert type(read(90.0)) is float
            assert read([90.0, 120.0]).tolist() == [read(90.0), read(120.0)]

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

    @pytest.mark.parametrize("value", ["5", True])
    @pytest.mark.parametrize("field", ["alpha", "beta", "capacity"])
    def test_field_that_is_not_a_number(self, field, value):
        # unchecked, "5" met a comparison as TypeError and True passed as 1
        fields = {"alpha": 1.0, "beta": 1.0, "capacity": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
            QuadraticCost(**fields)
