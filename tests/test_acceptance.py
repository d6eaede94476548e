"""End-to-end acceptance checks.

Each test covers one numbered criterion.  The ``criterion`` marker
carries the number and a one-line description; the conftest hooks turn
every marked test into a single ``[PASS]/[FAIL] criterion N: ...``
verdict line in the terminal summary, where pytest's output capture
cannot swallow it.
"""
import math
from pathlib import Path

import numpy as np
import pytest

import chpricing as ch
from oracles import fleet_value_grid, reduced_scarf


def criterion(number: int, description: str):
    return pytest.mark.criterion(number, description)

GRIBIK = ch.builtin_fleet("gribik")
SCARF = ch.builtin_fleet("scarf")
G_MODEL = ch.DemandModel(a=3.9e4, mu1=0.8, mu2=0.2, nu=0.01,
                         utility_constant=20000.0)
S_MODEL = ch.DemandModel(a=455.0, mu1=0.8, mu2=0.2, nu=0.0025,
                         utility_constant=500.0)
DAY = ch.default_profile()


def noisy_day(seed: int) -> ch.DayProfile:
    return ch.DayProfile(DAY.base_demand, ch.sample_noise(seed))


def exact_day(fleet, model, profile):
    results = []
    for t in range(24):
        price, _ = ch.exact_dual(fleet, model, profile, t)
        results.append(ch.settle_hour(fleet, model, profile, t, price))
    return results


def lmp_day(fleet, model, profile):
    quad = ch.quadratic_fit(fleet)
    results = []
    for t in range(24):
        price, _ = ch.lmp_equilibrium(quad, model, profile, t)
        results.append(ch.settle_hour(fleet, model, profile, t, price))
    return results


def seg_pairs(gtype):
    return tuple((s.capacity, s.marginal_cost) for s in gtype.segments)


@criterion(1, "builtin fleet definitions are exact")
def test_criterion_01_fixture_fields():
    g = {t.name: t for t in GRIBIK.types}
    assert set(g) == {"A", "B", "C"}
    assert seg_pairs(g["A"]) == ((100.0, 65.0), (100.0, 110.0))
    assert seg_pairs(g["B"]) == ((100.0, 40.0), (100.0, 90.0))
    assert seg_pairs(g["C"]) == ((100.0, 25.0), (100.0, 35.0))
    assert [g[n].startup_cost for n in "ABC"] == [0.0, 6000.0, 8000.0]
    assert all(g[n].min_output == 0.0 and g[n].unit_count == 1 for n in "ABC")

    s = {t.name: t for t in SCARF.types}
    assert set(s) == {"Smokestack", "HighTech", "MedTech"}
    assert seg_pairs(s["Smokestack"]) == ((16.0, 3.0),)
    assert seg_pairs(s["HighTech"]) == ((7.0, 2.0),)
    assert seg_pairs(s["MedTech"]) == ((6.0, 7.0),)
    assert [s[n].startup_cost
            for n in ("Smokestack", "HighTech", "MedTech")] == [53.0, 30.0, 0.0]
    assert [s[n].unit_count
            for n in ("Smokestack", "HighTech", "MedTech")] == [6, 5, 5]
    assert [s[n].min_output
            for n in ("Smokestack", "HighTech", "MedTech")] == [0.0, 0.0, 2.0]


@criterion(2, "scarf day clears at 6.3125 every hour; daily stats stay near 6.3")
def test_criterion_02_scarf_exact_price():
    for profile in (DAY, noisy_day(0), noisy_day(1)):
        results = exact_day(SCARF, S_MODEL, profile)
        assert all(abs(r.price - 6.3125) <= 1e-6 for r in results)
        day = ch.summarize_day(results)
        for stat in (day.price_min, day.price_mean, day.price_max):
            assert abs(stat - 6.3) <= 0.1


@criterion(3, "scarf daily demand totals 2318.2 noise-free, near 2318.7 seeded, "
              "inelastic base 2465.2")
def test_criterion_03_scarf_daily_demand():
    clean = ch.summarize_day(exact_day(SCARF, S_MODEL, DAY))
    assert abs(clean.total_demand - 2318.2) <= 1.0
    for seed in (1, 2, 3):
        seeded = ch.summarize_day(exact_day(SCARF, S_MODEL, noisy_day(seed)))
        assert abs(seeded.total_demand - 2318.7) <= 5.0
    inelastic = 0.0025 * math.fsum(DAY.base_demand)
    assert abs(inelastic - 2465.2) <= 0.1


@criterion(4, "daily hull-price uplift is under half the marginal-price uplift "
              "on both fleets")
def test_criterion_04_uplift_halving():
    for fleet, model in ((GRIBIK, G_MODEL), (SCARF, S_MODEL)):
        chp = ch.summarize_day(exact_day(fleet, model, DAY)).total_uplift
        lmp = ch.summarize_day(lmp_day(fleet, model, DAY)).total_uplift
        assert chp < 0.5 * lmp, f"{chp} vs {lmp}"


@criterion(5, "fixed-demand hull price minimizes uplift over a dense price grid")
def test_criterion_05_uplift_minimality():
    for fleet in (GRIBIK, SCARF):
        cap = fleet.total_capacity
        prices = np.arange(0.1, ch.default_price_cap(fleet) + 1e-9, 0.1)
        conj = np.array([ch.conjugate(fleet, float(p)) for p in prices])
        for y in np.linspace(cap / 21.0, 20.0 * cap / 21.0, 20):
            y = float(y)
            star = ch.chp_fixed_demand(fleet, y)
            u_star = ch.uplift(fleet, star, y)
            value, _ = ch.ucp_value(fleet, y)
            grid = conj - prices * y + value
            # definitional consistency of the vectorized uplift grid
            assert ch.uplift(fleet, float(prices[17]), y) == pytest.approx(
                float(grid[17]), abs=1e-9)
            scale = max(1.0, abs(u_star))
            assert u_star <= float(grid.min()) + 1e-6 * scale


@criterion(6, "minimized hourly dual equals the maximal hull-based surplus")
def test_criterion_06_dual_equals_surplus():
    for fleet, model in ((GRIBIK, G_MODEL), (SCARF, S_MODEL)):
        cap = fleet.total_capacity
        for t in (0, 15):
            star, _ = ch.exact_dual(fleet, model, DAY, t)
            phi_star, _ = ch.dual_value(fleet, model, DAY, t, star)
            floor = ch.inelastic_share(model, DAY, t)

            def surplus(d: float) -> float:
                return (ch.hourly_utility(model, DAY, t, d)
                        - ch.hull_value(fleet, d).hull_value)

            # the surplus is concave (log utility minus a convex hull), so
            # the 0.01-grid maximum sits inside one coarse step of the
            # coarse-grid maximum; refining only that window is lossless
            coarse = np.arange(math.floor(floor) + 1.0, cap + 0.5, 1.0)
            coarse = coarse[(coarse > floor + 1e-9) & (coarse <= cap)]
            values = [surplus(float(d)) for d in coarse]
            i = int(np.argmax(values))
            lo = max(float(coarse[max(i - 1, 0)]), floor + 0.01)
            hi = min(float(coarse[min(i + 1, coarse.size - 1)]), cap)
            best = max(surplus(float(d))
                       for d in np.arange(lo, hi + 1e-9, 0.01))
            assert abs(phi_star - best) < 1e-4 * abs(phi_star)


@criterion(7, "hull is a convex lower bound agreeing with the grid biconjugate")
def test_criterion_07_hull_properties():
    for fleet, dlam, stride in ((GRIBIK, 0.01, 25), (SCARF, 0.001, 7)):
        cap = fleet.total_capacity
        ys = np.arange(0.0, cap + 0.5, 1.0)
        hull = np.array([ch.hull_value(fleet, float(y)).hull_value for y in ys])
        v = np.array([ch.ucp_value(fleet, float(y))[0] for y in ys])
        scale = np.maximum(1.0, np.abs(v))
        assert np.all(hull <= v + 1e-9 * scale)
        assert abs(hull[0] - v[0]) <= 1e-6
        assert abs(hull[-1] - v[-1]) <= 1e-4
        mid_scale = np.maximum(1.0, np.abs(hull[1:-1]))
        assert np.all(2.0 * hull[1:-1] <= hull[:-2] + hull[2:]
                      + 1e-6 * mid_scale)

        lam = np.arange(0.0, ch.default_price_cap(fleet) + dlam / 2.0, dlam)
        conj = np.array([ch.conjugate(fleet, float(p)) for p in lam])
        for idx in range(0, ys.size, stride):
            y = float(ys[idx])
            ref = float(np.max(lam * y - conj))
            # the hull value is exact up to rounding, which may put it a
            # hair below the grid max
            assert hull[idx] >= ref - 1e-6
            assert abs(hull[idx] - ref) <= dlam * cap + 1e-6


@criterion(8, "ten pricing rounds bring uplift within 10% of exact on at "
              "least 20 of 24 hours")
def test_criterion_08_ten_round_uplift():
    counts = {}
    for name, fleet, model, price0, coef in (
            ("gribik", GRIBIK, G_MODEL, 100.0, 0.1),
            ("scarf", SCARF, S_MODEL, 10.0, 0.01)):
        good = 0
        for t in range(24):
            star, _ = ch.exact_dual(fleet, model, DAY, t)
            exact_up = ch.settle_hour(fleet, model, DAY, t, star).uplift
            priced = ch.run_subgradient(fleet, model, DAY, t, price0, 10,
                                        ch.HarmonicStep(coef))
            if abs(priced.uplift[-1, 0] - exact_up) <= 0.1 * exact_up:
                good += 1
        counts[name] = good
    assert all(good >= 20 for good in counts.values()), \
        f"hours within 10% after 10 rounds: {counts}"


@criterion(9, "first pricing step from 100 on the flat gribik day lands at "
              "90.66936")
def test_criterion_09_first_step():
    profile = ch.DayProfile((41086.7,) * 24)
    priced = ch.run_subgradient(GRIBIK, G_MODEL, profile, 0, 100.0, 1,
                                ch.HarmonicStep(0.1))
    assert abs(priced.price[0, 0] - 90.66936) <= 1e-9


@criterion(10, "commitment enumeration matches the min-plus grid oracle")
def test_criterion_10_oracle_equivalence():
    small = reduced_scarf(SCARF)
    for fleet, tol in ((GRIBIK, 110.0), (small, 7.0)):
        ref = fleet_value_grid(fleet, 1.0)
        for i in range(ref.size):
            got, _ = ch.ucp_value(fleet, float(i))
            assert abs(got - float(ref[i])) <= tol


@criterion(11, "gribik day clears at 95; hull prices sit above marginal "
               "prices and earn more")
def test_criterion_11_gribik_day():
    chp_results = exact_day(GRIBIK, G_MODEL, DAY)
    assert all(abs(r.price - 95.0) <= 1e-6 for r in chp_results)
    chp = ch.summarize_day(chp_results)
    lmp = ch.summarize_day(lmp_day(GRIBIK, G_MODEL, DAY))
    assert chp.price_mean > lmp.price_mean
    assert chp.total_supplier_profit > lmp.total_supplier_profit


@criterion(12, "repeated runs with one seed write byte-identical hours and "
               "summary files")
def test_criterion_12_determinism(tmp_path):
    def run(out: Path):
        config = ch.ExperimentConfig(
            fleet="gribik", method="chp_subgradient", out_dir=str(out),
            model=ch.DemandModel(a=3.9e4, mu1=0.8, mu2=0.2, nu=0.01,
                                 utility_constant=20000.0),
            lambda0=100.0, n_iters=25, step_rule=ch.HarmonicStep(0.1), seed=7)
        return ch.run_experiment(config)

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first["hours"].read_bytes() == second["hours"].read_bytes()
    assert first["summary"].read_bytes() == second["summary"].read_bytes()
