import dataclasses
import math
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chpricing as ch
from chpricing import pricing
from chpricing.pricing import MAX_ITERS, PRICE_FLOOR, PriceLoop, price_hours
from chpricing import (
    DayProfile,
    DemandModel,
    HarmonicStep,
    InfeasibleError,
    dispatchable_equilibrium,
    dispatchable_price,
    dual_value,
    exact_dual,
    lmp_equilibrium,
    quadratic_fit,
    run_lmp,
    run_subgradient,
)


# a PricedHours column per hour, without the shared step and clock
HOUR_COLUMNS = ("price", "demand", "supply", "dual_value", "utility", "cost", "uplift")


def hour_rows(priced, j=0):
    """The rows of hours[j], each a dict of its columns' floats."""
    columns = [getattr(priced, name)[:, j].tolist() for name in HOUR_COLUMNS]
    return [dict(zip(HOUR_COLUMNS, row)) for row in zip(*columns)]


class TestHarmonicStep:
    def test_call(self):
        rule = HarmonicStep(0.1)
        assert rule(1) == 0.1
        assert rule(4) == 0.025

    def test_frozen(self):
        rule = HarmonicStep(0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.coef = 0.2

    def test_picklable(self):
        rule = HarmonicStep(0.01)
        clone = pickle.loads(pickle.dumps(rule))
        assert clone == rule and clone(3) == rule(3)

    def test_nonpositive_coef(self):
        for coef in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                HarmonicStep(coef)

    def test_coef_that_is_not_a_number(self):
        # unchecked, the range comparison raises TypeError
        with pytest.raises(ValueError, match=r"^coef must be a number, got '0.1'$"):
            HarmonicStep("0.1")

    def test_bool_coef_refused(self):
        # bool is an int subclass; True once ran as coefficient 1
        with pytest.raises(ValueError, match=r"^coef must be a number, got True$"):
            HarmonicStep(True)


class TestDualValue:
    def test_mean_hour_components(self, gribik, gribik_model, mean_profile):
        phi, sub = dual_value(gribik, gribik_model, mean_profile, 0, 100.0)
        assert sub == pytest.approx(500.0 - 406.6936, abs=1e-9)
        demand = ch.hourly_demand(gribik_model, mean_profile, 0, 100.0)
        expected = (ch.hourly_utility(gribik_model, mean_profile, 0, demand)
                    - 100.0 * demand + ch.conjugate(gribik, 100.0))
        assert phi == expected

    def test_subgradient_sign_flip(self, gribik, gribik_model, mean_profile):
        # commitment of the two startup-cost units flips between 94 and 96
        _, sub_low = dual_value(gribik, gribik_model, mean_profile, 0, 94.0)
        _, sub_high = dual_value(gribik, gribik_model, mean_profile, 0, 96.0)
        assert sub_low < 0 < sub_high

    def test_convex_in_price(self, scarf, scarf_model, day_profile):
        prices = [1.0, 2.5, 4.2, 5.0, 6.3125, 7.1, 8.0]
        for lo, hi in zip(prices, prices[1:]):
            mid = 0.5 * (lo + hi)
            f_lo, _ = dual_value(scarf, scarf_model, day_profile, 9, lo)
            f_hi, _ = dual_value(scarf, scarf_model, day_profile, 9, hi)
            f_mid, _ = dual_value(scarf, scarf_model, day_profile, 9, mid)
            assert f_mid <= 0.5 * (f_lo + f_hi) + 1e-9 * abs(f_mid)

    def test_price_floor(self, gribik, gribik_model, mean_profile):
        with pytest.raises(ValueError):
            dual_value(gribik, gribik_model, mean_profile, 0, 0.0)

    @pytest.mark.parametrize("price", [0.0, math.inf, math.nan])
    def test_price_must_be_finite_and_on_the_floor(self, price, gribik, gribik_model,
                                                    mean_profile):
        # at inf the demand would sit on the floor, where the utility is undefined
        with pytest.raises(ValueError, match=re.escape(
                f"price must be finite and at least the floor 1e-06, got {price}")):
            dual_value(gribik, gribik_model, mean_profile, 0, price)

    def test_price_that_is_not_a_number(self, gribik, gribik_model, mean_profile):
        with pytest.raises(ValueError, match=r"^price must be a number, got '5'$"):
            dual_value(gribik, gribik_model, mean_profile, 0, "5")

    def test_bool_price_refused(self, gribik, gribik_model, mean_profile):
        with pytest.raises(ValueError, match=r"^price must be a number, got True$"):
            dual_value(gribik, gribik_model, mean_profile, 0, True)


class TestRunSubgradient:
    def test_first_iterate(self, gribik, gribik_model, mean_profile):
        priced = run_subgradient(gribik, gribik_model, mean_profile, 0,
                                 price0=100.0, n_iters=1,
                                 step_rule=HarmonicStep(0.1))
        assert (priced.method, priced.hours) == ("chp_subgradient", (0,))
        assert priced.price.shape == (1, 1) and priced.first_k == 1
        assert priced.price[0, 0] == pytest.approx(90.66936, abs=1e-9)
        assert priced.step.tolist() == [0.1]

    def test_zero_step_keeps_start(self, gribik, gribik_model, mean_profile):
        priced = run_subgradient(gribik, gribik_model, mean_profile, 0,
                                 price0=100.0, n_iters=3, step_rule=lambda k: 0.0)
        assert priced.price[:, 0].tolist() == [100.0] * 3

    def test_floor_clamp(self, scarf, scarf_model, mean_profile):
        priced = run_subgradient(scarf, scarf_model, mean_profile, 0,
                                 price0=8.0, n_iters=1,
                                 step_rule=HarmonicStep(10.0))
        assert priced.price[0, 0] == PRICE_FLOOR

    def test_record_bookkeeping(self, scarf, scarf_model, day_profile):
        priced = run_subgradient(scarf, scarf_model, day_profile, 3,
                                 price0=10.0, n_iters=12,
                                 step_rule=HarmonicStep(0.01))
        assert priced.price.shape == (12, 1) and priced.first_k == 1
        for rec in hour_rows(priced):
            assert rec["demand"] == ch.hourly_demand(
                scarf_model, day_profile, 3, rec["price"])
            phi, sub = dual_value(scarf, scarf_model, day_profile, 3, rec["price"])
            assert rec["dual_value"] == pytest.approx(phi, rel=1e-12)
            assert rec["supply"] - rec["demand"] == pytest.approx(sub, rel=1e-12)

    def test_validation(self, gribik, gribik_model, mean_profile):
        with pytest.raises(ValueError):
            run_subgradient(gribik, gribik_model, mean_profile, 0, 100.0, 0,
                            HarmonicStep(0.1))
        with pytest.raises(ValueError):
            run_subgradient(gribik, gribik_model, mean_profile, 0, PRICE_FLOOR,
                            5, HarmonicStep(0.1))
        for price0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="start price must be finite"):
                run_subgradient(gribik, gribik_model, mean_profile, 0, price0,
                                5, HarmonicStep(0.1))

    def test_converges_on_trough_hour(self, scarf, scarf_model, day_profile):
        priced = run_subgradient(scarf, scarf_model, day_profile, 3,
                                 price0=10.0, n_iters=100,
                                 step_rule=HarmonicStep(0.01))
        assert abs(priced.price[-1, 0] - 6.3125) < 0.15

    def test_day_price_spread(self, scarf, scarf_model, day_profile):
        finals = [run_subgradient(scarf, scarf_model, day_profile, t, 10.0, 100,
                                  HarmonicStep(0.01)).price[-1, 0]
                  for t in range(24)]
        # peak hours stall well above the uniform exact dual price 6.3125
        assert 6.30 < min(finals) < 6.32
        assert 7.4 < max(finals) < 7.5

    def test_iterates_are_valid_subgradients(self, gribik, scarf, gribik_model,
                                             scarf_model, day_profile):
        cases = [(gribik, gribik_model, 100.0, 0.1, (60.0, 80.0, 95.0, 120.0)),
                 (scarf, scarf_model, 10.0, 0.01, (4.0, 5.5, 6.3125, 8.0))]
        for fleet, model, price0, coef, probes in cases:
            priced = run_subgradient(fleet, model, day_profile, 15, price0, 20,
                                     HarmonicStep(coef))
            for rec in hour_rows(priced):
                sub = rec["supply"] - rec["demand"]
                for mu in probes:
                    phi_mu, _ = dual_value(fleet, model, day_profile, 15, mu)
                    bound = rec["dual_value"] + sub * (mu - rec["price"])
                    assert phi_mu >= bound - 1e-6 * max(1.0, abs(phi_mu))


class TestPriceHours:
    """The hours-vector loop against one-hour loops, row for row."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(method=st.sampled_from(["chp_subgradient", "lmp"]),
           fleet_name=st.sampled_from(["gribik", "scarf"]),
           mu2=st.sampled_from([0.0, 0.2]),
           seed=st.integers(0, 2**32),
           price0=st.floats(1.0, 200.0),
           coef=st.floats(1e-3, 10.0),
           n_iters=st.integers(1, 6))
    @example(method="chp_subgradient", fleet_name="scarf", mu2=0.2, seed=0,
             price0=8.0, coef=10.0, n_iters=3)  # the first step hits the floor
    @example(method="lmp", fleet_name="gribik", mu2=0.0, seed=5, price0=100.0,
             coef=1.0, n_iters=4)  # inelastic demand, clamped at the floor
    def test_day_equals_one_hour_loops(self, method, fleet_name, mu2, seed, price0,
                                       coef, n_iters):
        fleet = ch.builtin_fleet(fleet_name)
        a, nu = (3.9e4, 0.01) if fleet_name == "gribik" else (455.0, 0.0025)
        model = DemandModel(a=a, mu1=0.8, mu2=mu2, nu=nu, utility_constant=7.0)
        profile = DayProfile(ch.default_profile().base_demand, ch.sample_noise(seed))
        rule = HarmonicStep(coef)
        day = price_hours(method, fleet, model, profile, range(24),
                          PriceLoop(price0, n_iters, rule))
        one_hour = run_lmp if method == "lmp" else run_subgradient
        for t in range(24):
            one = one_hour(fleet, model, profile, t, price0, n_iters, rule)
            assert (one.method, one.hours) == (method, (t,))
            assert one.step.tolist() == day.step.tolist()
            assert list(hour_rows(one)) == list(hour_rows(day, t))

    def test_floor_clamp_in_a_vector(self, scarf, scarf_model, day_profile):
        day = price_hours("chp_subgradient", scarf, scarf_model, day_profile,
                          (0, 15), PriceLoop(8.0, 2, HarmonicStep(10.0)))
        assert day.price[0].tolist() == [PRICE_FLOOR, PRICE_FLOOR]
        assert day.hours == (0, 15) and day.price.shape == (2, 2)

    def test_utility_error_of_an_hour(self, gribik, gribik_model, day_profile):
        # a/price underflows next to the floor, so demand sits on the floor
        with pytest.raises(ValueError, match="utility undefined"):
            price_hours("chp_subgradient", gribik, gribik_model, day_profile,
                        range(24), PriceLoop(1e300, 1, lambda k: 0.0))

    @pytest.mark.parametrize("method", ["chp_exact", "dispatchable"])
    def test_closed_form_row(self, method, scarf, scarf_model, day_profile):
        # one k = 0 row at the exact dual, costed and billed like the loops
        day = price_hours(method, scarf, scarf_model, day_profile, range(24))
        assert day.price.shape == (1, 24) and day.first_k == 0
        assert day.step.tolist() == day.elapsed_s.tolist() == [0.0]
        for j in range(24):
            (record,) = hour_rows(day, j)
            assert (record["price"], record["demand"]) == \
                ch.exact_dual(scarf, scarf_model, day_profile, j)
            phi, imbalance = ch.dual_value(scarf, scarf_model, day_profile, j,
                                           record["price"])
            assert (record["dual_value"], record["supply"] - record["demand"]) == \
                (phi, imbalance)
            assert record["uplift"] == ch.uplift(scarf, record["price"], record["demand"])

    def test_no_hours(self, gribik, gribik_model, mean_profile):
        day = price_hours("chp_exact", gribik, gribik_model, mean_profile, ())
        assert day.price.shape == day.uplift.shape == (1, 0)

    def test_loop_args_boundaries(self):
        assert PriceLoop(10.0, MAX_ITERS, HarmonicStep(0.1)).n_iters == MAX_ITERS
        assert PriceLoop(10.0, 1, HarmonicStep(0.1)).n_iters == 1

    def test_start_price_that_is_not_a_number(self):
        with pytest.raises(ValueError, match=r"^price0 must be a number, got '10'$"):
            PriceLoop("10", 5, HarmonicStep(0.1))

    def test_bool_loop_args_refused(self):
        # True once passed as start price 1 and as one round
        with pytest.raises(ValueError, match=r"^n_iters must be an integer, got True$"):
            PriceLoop(10.0, True, HarmonicStep(0.1))
        with pytest.raises(ValueError, match=r"^price0 must be a number, got True$"):
            PriceLoop(True, 5, HarmonicStep(0.1))

    @pytest.mark.parametrize("method", ["chp_subgradient", "lmp"])
    def test_loop_only_steps(self, method, scarf, scarf_model, day_profile,
                             monkeypatch):
        # phi and the utility are evaluated once, over every row, after the loop
        calls = {"utility": 0, "profit": 0}

        def counted(key, function):
            def spy(*args):
                calls[key] += 1
                return function(*args)
            return spy

        loop = PriceLoop(10.0, 50, HarmonicStep(0.01))
        expected = price_hours(method, scarf, scarf_model, day_profile, range(24), loop)
        monkeypatch.setattr(pricing, "_utility", counted("utility", pricing._utility))
        if method == "lmp":
            monkeypatch.setattr(ch.QuadraticCost, "conjugate",
                                counted("profit", ch.QuadraticCost.conjugate))
        else:
            monkeypatch.setattr(pricing, "conjugate", counted("profit", pricing.conjugate))
        day = price_hours(method, scarf, scarf_model, day_profile, range(24), loop)
        assert calls == {"utility": 1, "profit": 1}
        assert day.price.shape == day.utility.shape == (50, 24)
        for got, want in zip(day[2:], expected[2:]):
            if got is not day.elapsed_s:
                assert got.tolist() == want.tolist()
        assert day.utility[-1].tolist() == [
            ch.hourly_utility(scarf_model, day_profile, t, demand)
            for t, demand in enumerate(day.demand[-1].tolist())]

    @pytest.mark.parametrize("n_iters", [2.5, 2.0, "2"])
    def test_non_integer_round_count_refused(self, n_iters, gribik, gribik_model,
                                             mean_profile):
        # range() once raised TypeError on 2.5 after the check let it through
        message = f"^n_iters must be an integer, got {n_iters!r}$"
        with pytest.raises(ValueError, match=message):
            PriceLoop(100.0, n_iters, HarmonicStep(0.1))
        for one_hour in (run_subgradient, run_lmp):
            with pytest.raises(ValueError, match=message):
                one_hour(gribik, gribik_model, mean_profile, 0, 100.0, n_iters,
                         HarmonicStep(0.1))

    def test_bad_arguments(self, gribik, gribik_model, mean_profile):
        with pytest.raises(ValueError, match="MAX_ITERS"):
            run_subgradient(gribik, gribik_model, mean_profile, 0, 100.0,
                            MAX_ITERS + 1, HarmonicStep(0.1))
        loop = PriceLoop(100.0, 1, HarmonicStep(0.1))
        with pytest.raises(ValueError, match="method must be one of"):
            price_hours("newton", gribik, gribik_model, mean_profile, [0], loop)
        with pytest.raises(ValueError, match="hour index 24"):
            price_hours("chp_subgradient", gribik, gribik_model, mean_profile,
                        [0, 24], loop)

    @pytest.mark.parametrize("method, loop, message", [
        # a closed-form method once took, and never checked, any start
        # price, round count and step
        ("chp_exact", PriceLoop(100.0, 1, HarmonicStep(0.1)),
         "chp_exact is closed-form and takes no PriceLoop"),
        ("dispatchable", PriceLoop(100.0, 1, HarmonicStep(0.1)),
         "dispatchable is closed-form and takes no PriceLoop"),
        ("chp_subgradient", None, "chp_subgradient needs a PriceLoop"),
        ("lmp", None, "lmp needs a PriceLoop"),
        # a float step once reached the loop, to fail there as TypeError
        ("lmp", 0.1, "loop must be None or a PriceLoop, got 0.1"),
    ])
    def test_loop_must_match_the_method(self, gribik, gribik_model, mean_profile,
                                        method, loop, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            price_hours(method, gribik, gribik_model, mean_profile, [0], loop)

    @pytest.mark.parametrize("args, message", [
        ((math.nan, -5, HarmonicStep(0.1)),
         "start price must be finite and exceed the floor 1e-06, got nan"),
        ((100.0, -5, HarmonicStep(0.1)), "n_iters must be in [1, MAX_ITERS = 10000], got -5"),
        ((100.0, 1, 0.1), "step_rule must be callable, got 0.1"),
    ])
    def test_loop_refusals(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PriceLoop(*args)


class TestBestIterateGap:
    """Best-iterate dual gap of the 100-round run, against its guarantee.

    With p_0 = price0, p_k the k-th accepted price, g_k = supply - demand
    at p_k and gamma_k = coef/k, the projected subgradient method
    guarantees after K rounds

        min_{0<=k<=K} phi(p_k) - phi*
            <= ((p_0 - p*)^2 + sum_k gamma_k^2 g_{k-1}^2) / (2 sum_k gamma_k)

    (Boyd, Xiao & Mutapcic, *Subgradient Methods*, 2003).  It rests on two
    premises: each g_k is a subgradient of phi at p_k (the inequality that
    ``test_iterates_are_valid_subgradients`` checks), and clamping to
    [PRICE_FLOOR, inf) is nonexpansive because p* lies above the floor.
    Only float rounding of phi is forgiven.

    The method promises no fixed fraction of |phi*|, and such a target
    would not fit here.  phi carries the utility's additive constant, a
    reporting convention, so a fraction of |phi*| passes or fails with
    the constant.  And on scarf the peak hours stall between 7.4 and 7.5
    $/MWh (``test_day_price_spread`` pins that); at hour 15 phi(7.4) -
    phi* is 29.6, against 0.0117 for 0.1% of |phi*|.
    """

    @pytest.mark.parametrize("fixture", ["gribik", "scarf"])
    def test_best_iterate_within_tenth_percent(self, fixture, request,
                                               day_profile):
        fleet = request.getfixturevalue(fixture)
        model = request.getfixturevalue(f"{fixture}_model")
        price0, coef = (100.0, 0.1) if fixture == "gribik" else (10.0, 0.01)
        rule = HarmonicStep(coef)
        steps = [rule(k) for k in range(1, 101)]
        rows = []
        for t in range(24):
            star, _ = exact_dual(fleet, model, day_profile, t)
            phi_star, _ = dual_value(fleet, model, day_profile, t, star)
            phi0, g0 = dual_value(fleet, model, day_profile, t, price0)
            priced = run_subgradient(fleet, model, day_profile, t, price0, 100,
                                     rule)
            subgradients = [g0] + (priced.supply - priced.demand)[:, 0].tolist()
            bound = ((price0 - star) ** 2
                     + sum(s * s * g * g for s, g in zip(steps, subgradients))
                     ) / (2.0 * sum(steps))
            gap = min([phi0] + priced.dual_value[:, 0].tolist()) - phi_star
            allowed = bound + 1e-9 * max(1.0, abs(phi_star))
            rows.append((gap / allowed, t, gap, bound))
        ratio, t, gap, bound = max(rows)
        assert ratio <= 1.0, (
            f"hour {t}: best-iterate gap {gap:.6g} exceeds the subgradient "
            f"bound {bound:.6g}")


class TestExactDual:
    def test_scarf_uniform_price(self, scarf, scarf_model, day_profile):
        for t in range(24):
            price, demand = exact_dual(scarf, scarf_model, day_profile, t)
            assert price == pytest.approx(6.3125, abs=1e-6)
            assert demand == ch.hourly_demand(scarf_model, day_profile, t, price)

    def test_gribik_mean_hour(self, gribik, gribik_model, mean_profile):
        price, _ = exact_dual(gribik, gribik_model, mean_profile, 0)
        # the crossing is B's break-even breakpoint, in closed form
        assert price == 95.0

    def test_inelastic_demand_lands_in_hull_interval(self, gribik):
        model = DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=0.01)
        profile = DayProfile((30000.0,) * 24)
        price, demand = exact_dual(gribik, model, profile, 0)
        assert demand == 300.0
        assert 70.0 - 1e-6 <= price <= 95.0 + 1e-6

    def test_demand_above_capacity(self, gribik):
        model = DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=0.01)
        profile = DayProfile((70000.0,) * 24)
        cap = ch.default_price_cap(gribik)
        with pytest.raises(InfeasibleError, match=re.escape(
                f"no crossing: demand 700.0 MW exceeds supply at the price cap {cap}")):
            exact_dual(gribik, model, profile, 0)

    def test_one_hour_reads_are_floats(self, scarf, scarf_model, day_profile):
        price, demand = exact_dual(scarf, scarf_model, day_profile, 3)
        phi, imbalance = dual_value(scarf, scarf_model, day_profile, 3, price)
        settled = ch.settle_hour(scarf, scarf_model, day_profile, 3, price)
        values = (price, demand, phi, imbalance,
                  ch.hourly_demand(scarf_model, day_profile, 3, price),
                  ch.hourly_utility(scarf_model, day_profile, 3, demand),
                  ch.uplift(scarf, price, demand), *tuple(settled)[1:])
        assert [type(x) for x in values] == [float] * len(values)


class TestLmp:
    def test_equilibrium_first_order(self, gribik, gribik_model, mean_profile):
        quad = quadratic_fit(gribik)
        price, demand = lmp_equilibrium(quad, gribik_model, mean_profile, 0)
        assert 0.0 < quad.supply(price) < quad.capacity
        assert abs(price - (2.0 * quad.alpha * demand + quad.beta)) < 1e-6

    def test_fixed_point_stays(self, scarf, scarf_model, day_profile):
        quad = quadratic_fit(scarf)
        star, _ = lmp_equilibrium(quad, scarf_model, day_profile, 9)
        priced = run_lmp(scarf, scarf_model, day_profile, 9, star, 1, HarmonicStep(0.01))
        assert abs(priced.price[-1, 0] - star) < 1e-6

    def test_converges_within_one_percent(self, gribik, gribik_model,
                                          day_profile):
        priced = run_lmp(gribik, gribik_model, day_profile, 0, 100.0, 100,
                         HarmonicStep(0.1))
        supply, demand = priced.supply[-1, 0], priced.demand[-1, 0]
        assert abs(supply - demand) < 0.01 * demand

    def test_uplift_column(self, gribik, gribik_model, day_profile):
        priced = run_lmp(gribik, gribik_model, day_profile, 0, 100.0, 5,
                         HarmonicStep(0.1))
        for rec in hour_rows(priced):
            assert rec["uplift"] == ch.uplift(gribik, rec["price"], rec["demand"])
            assert rec["uplift"] >= -1e-9

    def test_infeasible_iterates_bill_infinite_uplift(self, gribik, gribik_model,
                                                       day_profile):
        # at about 1 $/MWh elastic demand alone is some 7800 MW, past 600 MW
        priced = run_subgradient(gribik, gribik_model, day_profile, 0, 1.0, 3,
                                 HarmonicStep(1e-9))
        for rec in hour_rows(priced):
            assert rec["demand"] > gribik.total_capacity
            assert rec["cost"] == rec["uplift"] == math.inf
            with pytest.raises(InfeasibleError):
                ch.uplift(gribik, rec["price"], rec["demand"])

    def test_method_tag(self, gribik, gribik_model, mean_profile):
        priced = run_lmp(gribik, gribik_model, mean_profile, 0, 100.0, 2,
                         HarmonicStep(0.1))
        assert priced.method == "lmp"


class TestLmpEquilibriumAtCapacity:
    """Past the fit's capacity, demand falls to capacity at coef/(capacity - floor)."""

    FLAT = DayProfile((100.0,) * 24)

    def test_demand_clears_at_capacity(self, scarf):
        # floor 0.8 * 1.9 * 100 = 152 MW, coef 455 * 0.2 = 91, capacity 161 MW
        model = DemandModel(a=455.0, mu1=0.8, mu2=0.2, nu=1.9)
        price, demand = lmp_equilibrium(quadratic_fit(scarf), model, self.FLAT, 0)
        assert price == pytest.approx(91.0 / (161.0 - 152.0), rel=1e-12)
        assert demand == pytest.approx(161.0, rel=1e-12)

    def test_floor_above_capacity_has_no_crossing(self, scarf):
        # floor 0.8 * 2.5 * 100 = 200 MW is past the 161 MW capacity
        model = DemandModel(a=455.0, mu1=0.8, mu2=0.2, nu=2.5)
        with pytest.raises(InfeasibleError,
                           match=r"^no crossing for the quadratic supply curve$"):
            lmp_equilibrium(quadratic_fit(scarf), model, self.FLAT, 0)


class TestDispatchable:
    def test_marginal_prices(self, gribik, scarf):
        assert dispatchable_price(gribik, 250.0) == pytest.approx(70.0)
        assert dispatchable_price(gribik, 50.0) == pytest.approx(65.0)
        assert dispatchable_price(gribik, 0.0) == pytest.approx(65.0)
        assert dispatchable_price(scarf, 0.0) == pytest.approx(44.0 / 7.0)

    def test_equilibrium_mean_hour(self, gribik, gribik_model, mean_profile):
        price, demand = dispatchable_equilibrium(
            gribik, gribik_model, mean_profile, 0)
        assert price == pytest.approx(95.0, abs=1e-6)
        assert demand == ch.hourly_demand(gribik_model, mean_profile, 0, price)

    def test_infeasible(self, gribik):
        model = DemandModel(a=1.0, mu1=1.0, mu2=0.0, nu=0.01)
        profile = DayProfile((70000.0,) * 24)
        with pytest.raises(InfeasibleError):
            dispatchable_equilibrium(gribik, model, profile, 0)
