import math

import pytest

import chpricing as ch
from chpricing import (
    DayProfile,
    DemandModel,
    InfeasibleError,
    settle_hour,
    summarize_day,
)


class TestAccountingIdentities:
    CASES = [("gribik", 95.0, 0), ("gribik", 102.5, 15), ("gribik", 80.0, 3),
             ("scarf", 6.3125, 0), ("scarf", 7.2, 15), ("scarf", 5.0, 9)]

    @pytest.mark.parametrize("fixture,price,t", CASES)
    def test_identities(self, fixture, price, t, request, day_profile):
        fleet = request.getfixturevalue(fixture)
        model = request.getfixturevalue(f"{fixture}_model")
        r = settle_hour(fleet, model, day_profile, t, price)
        assert r.social_welfare == r.utility_gross - r.supply_cost
        assert r.utility_net == r.utility_gross - price * r.demand
        assert r.supplier_profit == price * r.demand - r.supply_cost
        assert r.social_welfare == pytest.approx(
            r.utility_net + r.supplier_profit, rel=1e-9)
        assert r.uplift == pytest.approx(
            ch.uplift(fleet, price, r.demand), abs=1e-9)
        assert r.uplift >= -1e-9
        assert r.t == t and r.price == price

    def test_demand_and_cost_sources(self, scarf, scarf_model, mean_profile):
        r = settle_hour(scarf, scarf_model, mean_profile, 0, 6.3125)
        assert r.demand == ch.hourly_demand(scarf_model, mean_profile, 0, 6.3125)
        value, _ = ch.ucp_value(scarf, r.demand)
        assert r.supply_cost == value
        assert r.supplier_profit == pytest.approx(
            6.3125 * r.demand - value, rel=1e-12)
        # small but strictly negative at the exact dual price: the merit
        # order runs units below break-even to cover the inelastic share
        assert -1.5 < r.supplier_profit < 0.0
        assert r.supplier_profit == pytest.approx(-1.405, abs=0.01)

    def test_forced_demand_decomposition(self, gribik):
        # inelastic model pinning demand at 300 MW regardless of price
        model = DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=0.01,
                            utility_constant=50000.0)
        profile = DayProfile((30000.0,) * 24)
        for price in (80.0, 95.0, 101.0):
            r = settle_hour(gribik, model, profile, 0, price)
            assert r.demand == 300.0
            assert r.utility_gross == 50000.0
            # lost-profit payment tops settled profit up to the conjugate
            assert r.supplier_profit + r.uplift == pytest.approx(
                ch.conjugate(gribik, price), rel=1e-12)

    def test_zero_uplift_at_supporting_price(self, gribik):
        model = DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=0.01)
        profile = DayProfile((30000.0,) * 24)
        r = settle_hour(gribik, model, profile, 0, 95.0)
        assert r.uplift == pytest.approx(0.0, abs=1e-9)
        assert r.supplier_profit == pytest.approx(8000.0, abs=1e-9)


class TestSettleErrors:
    def test_nonpositive_price(self, gribik, gribik_model, mean_profile):
        with pytest.raises(ValueError):
            settle_hour(gribik, gribik_model, mean_profile, 0, 0.0)

    def test_nan_price(self, gribik, gribik_model, mean_profile):
        # refused as a price, before any demand is computed from it
        with pytest.raises(ValueError, match="price must be > 0, got nan"):
            settle_hour(gribik, gribik_model, mean_profile, 0, math.nan)

    def test_price_that_is_not_a_number(self, gribik, gribik_model, mean_profile):
        # unchecked, the comparison with 0 raises TypeError
        with pytest.raises(ValueError, match=r"^price must be a number, got '5'$"):
            settle_hour(gribik, gribik_model, mean_profile, 0, "5")

    def test_bool_price_refused(self, gribik, gribik_model, mean_profile):
        # bool is an int subclass; True once settled at 1 $/MWh
        with pytest.raises(ValueError, match=r"^price must be a number, got True$"):
            settle_hour(gribik, gribik_model, mean_profile, 0, True)

    def test_demand_beyond_capacity(self, gribik):
        model = DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=0.01)
        profile = DayProfile((70000.0,) * 24)
        with pytest.raises(InfeasibleError,
                           match=r"^demand 700.0 outside feasible range \[0, 600.0\] MW$"):
            settle_hour(gribik, model, profile, 0, 95.0)

    def test_messages(self, gribik, gribik_model, mean_profile):
        with pytest.raises(ValueError, match=r"^settlement price must be > 0, got -1.0$"):
            settle_hour(gribik, gribik_model, mean_profile, 0, -1.0)
        with pytest.raises(ValueError, match=r"^hour index 24 outside \[0, 24\)$"):
            settle_hour(gribik, gribik_model, mean_profile, 24, 95.0)

    def test_billed_by_uplifts(self, scarf, scarf_model, day_profile):
        r = settle_hour(scarf, scarf_model, day_profile, 15, 7.2)
        assert r.uplift == ch.uplifts(scarf, [7.2], [r.demand])[0]


class TestSummarizeDay:
    def test_requires_full_day(self, scarf, scarf_model, day_profile):
        results = [settle_hour(scarf, scarf_model, day_profile, t, 6.3125)
                   for t in range(23)]
        with pytest.raises(ValueError, match="^a day has 24 hourly results, got 23$"):
            summarize_day(results)

    def test_aggregates(self, scarf, scarf_model, day_profile):
        results = [settle_hour(scarf, scarf_model, day_profile, t, 6.3125)
                   for t in range(24)]
        day = summarize_day(results)
        assert day.price_min == day.price_mean == day.price_max == 6.3125
        assert day.total_demand == pytest.approx(
            math.fsum(r.demand for r in results), rel=1e-15)
        assert day.total_uplift == pytest.approx(
            math.fsum(r.uplift for r in results), rel=1e-15)
        assert day.total_social_welfare == pytest.approx(
            day.total_utility_net + day.total_supplier_profit, rel=1e-9)

    def test_price_spread(self, gribik, gribik_model, day_profile):
        prices = [90.0 + t for t in range(24)]
        results = [settle_hour(gribik, gribik_model, day_profile, t, p)
                   for t, p in zip(range(24), prices)]
        day = summarize_day(results)
        assert day.price_min == 90.0
        assert day.price_max == 113.0
        assert day.price_mean == pytest.approx(101.5, rel=1e-12)
