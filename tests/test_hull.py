import math

import numpy as np
import pytest

from chpricing import (
    CostSegment,
    Fleet,
    GeneratorType,
    InfeasibleError,
    chp_fixed_demand,
    conjugate,
    default_price_cap,
    fleet_supply,
    hull_value,
    ucp_value,
    uplift,
    uplifts,
)


def grid_biconjugate(fleet, y, dlam):
    """max over a price grid of lam*y - conjugate(lam), an exact lower bound."""
    cap = default_price_cap(fleet)
    lams = np.arange(0.0, cap + 1e-12, dlam)
    return max(float(l) * y - conjugate(fleet, float(l)) for l in lams)


class TestPriceCap:
    def test_worst_breakeven_plus_one(self, gribik, scarf):
        # B needs 90 + 6000/100; Smokestack needs 3 + 53/16 but MedTech's
        # top marginal 7 dominates
        assert default_price_cap(gribik) == 151.0
        assert default_price_cap(scarf) == 8.0

    def test_cap_elicits_full_fleet(self, gribik, scarf):
        for fleet in (gribik, scarf):
            assert fleet_supply(fleet, default_price_cap(fleet)) == \
                fleet.total_capacity


class TestHullValue:
    def test_hull_touches_v_at_vertex(self, gribik):
        p = hull_value(gribik, 300.0)
        assert p.hull_value == pytest.approx(20500.0, abs=1e-6)
        assert p.price_lo == pytest.approx(70.0, abs=1e-6)
        assert p.price_hi == pytest.approx(95.0, abs=1e-6)

    def test_zero_demand(self, gribik):
        p = hull_value(gribik, 0.0)
        assert p.hull_value == 0.0
        assert p.price_lo == 0.0

    def test_interior_of_flat_segment(self, scarf):
        p = hull_value(scarf, 96.6)
        assert p.hull_value == pytest.approx(608.85, abs=1e-6)
        # both ends are the staircase breakpoint itself
        assert p.price_lo == p.price_hi == 6.3125

    def test_upper_kink_spans_two_breakevens(self, gribik):
        # supply steps 300->500 at 95 and 500->600 at 110, so the
        # subdifferential at 500 is the whole interval between them
        p = hull_value(gribik, 500.0)
        assert p.price_lo == pytest.approx(95.0, abs=1e-6)
        assert p.price_hi == pytest.approx(110.0, abs=1e-6)
        assert p.hull_value == pytest.approx(ucp_value(gribik, 500.0)[0], abs=1e-6)

    def test_matches_grid_biconjugate(self, gribik, scarf):
        for fleet, dlam, step in ((gribik, 0.05, 37.0), (scarf, 0.005, 9.0)):
            cap = fleet.total_capacity
            for y in np.arange(0.0, cap + 1e-9, step):
                got = hull_value(fleet, float(y)).hull_value
                ref = grid_biconjugate(fleet, float(y), dlam)
                # the hull value is exact up to rounding, which may put it
                # a hair below the grid max
                assert got >= ref - 1e-6
                assert got == pytest.approx(ref, abs=dlam * cap + 1e-6)

    def test_infeasible_demand(self, gribik):
        with pytest.raises(InfeasibleError):
            hull_value(gribik, -2.0)
        with pytest.raises(InfeasibleError):
            hull_value(gribik, 601.0)


class TestChpFixedDemand:
    def test_flat_segment_price_unique(self, scarf):
        assert chp_fixed_demand(scarf, 96.6) == pytest.approx(6.3125, abs=1e-6)

    def test_vertex_midpoint(self, gribik):
        assert chp_fixed_demand(gribik, 300.0) == pytest.approx(82.5, abs=1e-6)

    def test_upper_kink_midpoint(self, gribik):
        assert chp_fixed_demand(gribik, 500.0) == pytest.approx(102.5, abs=1e-6)

    def test_any_subgradient_gives_same_uplift(self, gribik):
        # uplift is constant across the supporting interval; the example
        # demand sits on the hull so it vanishes at all three prices
        for p in (95.0, 102.5, 110.0):
            assert uplift(gribik, p, 500.0) == pytest.approx(0.0, abs=1e-6)


class TestUplift:
    def test_supporting_price_zero_uplift(self, gribik):
        assert uplift(gribik, 95.0, 300.0) == pytest.approx(0.0, abs=1e-9)

    def test_zero_price_zero_demand(self, gribik):
        assert uplift(gribik, 0.0, 0.0) == 0.0

    def test_off_hull_demand(self, scarf):
        # v(96.6) = 611.2 so the gap term is 609.7875 - 611.2
        assert uplift(scarf, 6.3125, 96.6) == pytest.approx(2.35, abs=1e-9)

    def test_nonnegative_on_grid(self, gribik, scarf):
        for fleet, pstep, ystep in ((gribik, 13.0, 47.0), (scarf, 0.7, 13.0)):
            for p in np.arange(0.0, default_price_cap(fleet), pstep):
                for y in np.arange(0.0, fleet.total_capacity + 1e-9, ystep):
                    assert uplift(fleet, float(p), float(y)) >= -1e-9 * max(
                        1.0, abs(ucp_value(fleet, float(y))[0]))


    def test_one_pair_of_the_batch(self, gribik, scarf):
        for fleet, price, y in ((gribik, 95.0, 450.0), (scarf, 6.3125, 96.6)):
            assert uplift(fleet, price, y) == uplifts(fleet, [price], [y])[0]

    def test_batch_costs_demands_of_any_shape(self, scarf):
        # v is costed here, not passed in, for a 0-d and a 2-D batch
        assert uplifts(scarf, 6.0, 50.0) == uplift(scarf, 6.0, 50.0)
        prices = np.array([[6.0, 6.3125, 7.0], [0.0, 10.0, 6.0]])
        demands = np.array([[50.0, 96.6, 161.0], [0.0, 42.0, 130.0]])
        billed = uplifts(scarf, prices, demands)
        assert billed.shape == (2, 3)
        assert billed.tolist() == [[uplift(scarf, p, y) for p, y in zip(*row)]
                                   for row in zip(prices.tolist(), demands.tolist())]

    def test_messages(self, gribik):
        with pytest.raises(InfeasibleError,
                           match=r"^demand 700.0 outside feasible range \[0, 600.0\] MW$"):
            uplift(gribik, 90.0, 700.0)
        gap = Fleet((GeneratorType("A", 0.0, 0.0, (CostSegment(10.0, 100.0),)),
                     GeneratorType("B", 50.0, 100.3, (CostSegment(20.0, 101.0),))))
        with pytest.raises(InfeasibleError, match=r"^no commitment can meet 100.15 MW$"):
            uplift(gap, 20.0, 100.15)
        with pytest.raises(ValueError, match="^price must be a number, got nan$"):
            uplift(gribik, math.nan, 300.0)

    def test_batch_refuses_nan_demand(self, gribik):
        with pytest.raises(InfeasibleError,
                           match=r"^demand nan outside feasible range \[0, 600.0\] MW$"):
            uplifts(gribik, [90.0, 95.0], [300.0, math.nan])


class TestHullProperties:
    @pytest.mark.parametrize("name,ys", [
        ("gribik", np.arange(0.0, 601.0, 50.0)),
        ("scarf", np.arange(0.0, 161.5, 14.0)),
    ])
    def test_subgradient_inequality(self, name, ys, gribik, scarf):
        fleet = gribik if name == "gribik" else scarf
        hv = {float(y): hull_value(fleet, float(y)).hull_value for y in ys}
        for y in (150.0, 300.0, 500.0) if name == "gribik" else (42.0, 96.6, 130.0):
            lam = chp_fixed_demand(fleet, y)
            base = hull_value(fleet, y).hull_value
            for d in ys:
                scale = max(1.0, abs(hv[float(d)]))
                assert hv[float(d)] >= base + lam * (float(d) - y) - 1e-6 * scale

    def test_hull_below_v_light(self, scarf):
        for y in np.arange(0.0, 161.5, 7.0):
            v, _ = ucp_value(scarf, float(y))
            assert hull_value(scarf, float(y)).hull_value <= v + 1e-9 * max(1.0, v)
