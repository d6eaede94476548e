import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chpricing import (
    DayProfile,
    DemandModel,
    consumer_best_response,
    default_profile,
    hourly_demand,
    hourly_utility,
    inelastic_share,
    load_profile,
    sample_noise,
    synthetic_profile,
)
from chpricing import _noise, market
from chpricing.market import PROFILE_HIGH, PROFILE_LOW, PROFILE_MEAN

MEAN_D1 = 41086.7
ROOT = Path(__file__).resolve().parents[1]


class TestConsumerBestResponse:
    def test_stationarity(self, gribik_model, scarf_model):
        assert consumer_best_response(gribik_model, 100.0) == pytest.approx(390.0)
        assert consumer_best_response(scarf_model, 6.3125) == \
            pytest.approx(455.0 / 6.3125)

    def test_nonpositive_price(self, gribik_model):
        for price in (0.0, -3.0):
            with pytest.raises(ValueError):
                consumer_best_response(gribik_model, price)

    def test_nan_price_refused(self, gribik_model):
        with pytest.raises(ValueError, match="price must be > 0"):
            consumer_best_response(gribik_model, math.nan)

    def test_sequence_of_prices(self, gribik_model):
        # the prices are validated as an array, so they are divided as one:
        # a list once met a / [5.0, 7.0] as TypeError
        demand = consumer_best_response(gribik_model, [5.0, 7.0])
        assert demand.tolist() == [3.9e4 / 5.0, 3.9e4 / 7.0]
        for price in (5.0, np.float64(5.0), 5):
            assert type(consumer_best_response(gribik_model, price)) is float


class TestHourlyDemand:
    def test_mix_formula(self, gribik_model, scarf_model, mean_profile):
        d = hourly_demand(gribik_model, mean_profile, 0, 100.0)
        assert d == pytest.approx(328.6936 + 78.0, abs=1e-9)
        d = hourly_demand(scarf_model, mean_profile, 0, 6.3125)
        assert d == pytest.approx(82.1734 + 14.4158, abs=1e-3)
        assert d == pytest.approx(0.8 * 0.0025 * MEAN_D1
                                  + 0.2 * 455.0 / 6.3125, abs=1e-12)

    def test_inelastic_when_mu2_zero(self, mean_profile):
        model = DemandModel(a=455.0, mu1=0.8, mu2=0.0, nu=0.0025)
        for price in (1.0, 5.0, 50.0):
            assert hourly_demand(model, mean_profile, 0, price) == \
                inelastic_share(model, mean_profile, 0)

    def test_strictly_decreasing_in_price(self, scarf_model, day_profile):
        prices = np.linspace(0.5, 8.0, 60)
        for t in (0, 15):
            ds = [hourly_demand(scarf_model, day_profile, t, float(p))
                  for p in prices]
            assert all(b < a for a, b in zip(ds, ds[1:]))

    def test_noise_scales_elastic_share(self, scarf_model):
        noisy = DayProfile((MEAN_D1,) * 24, (0.03,) + (0.0,) * 23)
        d = hourly_demand(scarf_model, noisy, 0, 5.0)
        inel = inelastic_share(scarf_model, noisy, 0)
        elastic = scarf_model.mu2 * (1.0 + 0.03) * \
            consumer_best_response(scarf_model, 5.0)
        assert d - inel == pytest.approx(elastic, abs=1e-12)

    def test_nan_price_refused(self, scarf_model, mean_profile):
        with pytest.raises(ValueError, match="price must be > 0"):
            hourly_demand(scarf_model, mean_profile, 0, math.nan)

    def test_bad_hour(self, scarf_model, mean_profile):
        with pytest.raises(ValueError):
            hourly_demand(scarf_model, mean_profile, 24, 5.0)

    @pytest.mark.parametrize("t, price, message", [
        (24, 5.0, "hour index 24 outside [0, 24)"),
        (-1, 5.0, "hour index -1 outside [0, 24)"),
        (0, 0.0, "price must be > 0 (log-utility demand is unbounded near 0), got 0.0"),
        (0, -3.0, "price must be > 0 (log-utility demand is unbounded near 0), got -3.0"),
        # a bool is not an hour (True would price hour 1), nor is an integral float
        (True, 5.0, "hour must be an integer, got True"),
        (False, 5.0, "hour must be an integer, got False"),
        (3.0, 5.0, "hour must be an integer, got 3.0")])
    def test_messages(self, t, price, message, scarf_model, mean_profile):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hourly_demand(scarf_model, mean_profile, t, price)

    def test_float_hour_refused(self, scarf_model, mean_profile):
        with pytest.raises(ValueError, match=r"^hour must be an integer, got 1\.5$"):
            hourly_demand(scarf_model, mean_profile, 1.5, 5.0)

    def test_numpy_integer_hour(self, scarf_model, mean_profile):
        assert hourly_demand(scarf_model, mean_profile, np.int64(3), 5.0) == \
            hourly_demand(scarf_model, mean_profile, 3, 5.0)

    def test_one_hour_call_is_the_scalar_formula(self, scarf_model, day_profile):
        noisy = DayProfile(day_profile.base_demand, sample_noise(7))
        for t in range(24):
            assert hourly_demand(scarf_model, noisy, t, 5.5) == \
                oracles.hourly_demand_scalar(scarf_model, noisy, t, 5.5)


class TestHourlyUtility:
    def test_log_of_one_leaves_constant(self, mean_profile):
        model = DemandModel(a=3.9e4, mu1=0.8, mu2=0.2, nu=0.01,
                            utility_constant=20000.0)
        floor = inelastic_share(model, mean_profile, 0)
        assert hourly_utility(model, mean_profile, 0, floor + 1.0) == \
            pytest.approx(20000.0, abs=1e-9)

    def test_closed_form(self, gribik_model, mean_profile):
        demand = hourly_demand(gribik_model, mean_profile, 0, 94.0)
        got = hourly_utility(gribik_model, mean_profile, 0, demand)
        assert got == pytest.approx(7800.0 * math.log(7800.0 / 94.0) + 20000.0,
                                    abs=1e-9)

    def test_argmax_recovers_demand(self, scarf_model, day_profile):
        for t, price in ((3, 6.3125), (15, 4.0)):
            target = hourly_demand(scarf_model, day_profile, t, price)
            floor = inelastic_share(scarf_model, day_profile, t)
            grid = np.arange(floor + 0.01, 161.0, 0.01)
            values = [hourly_utility(scarf_model, day_profile, t, float(d))
                      - price * float(d) for d in grid]
            best = float(grid[int(np.argmax(values))])
            assert best == pytest.approx(target, abs=0.011)

    def test_at_or_below_floor_rejected(self, scarf_model, mean_profile):
        floor = inelastic_share(scarf_model, mean_profile, 0)
        for d in (floor, floor - 5.0):
            with pytest.raises(ValueError):
                hourly_utility(scarf_model, mean_profile, 0, d)

    def test_nan_demand_refused(self, scarf_model, mean_profile):
        inelastic = DemandModel(a=455.0, mu1=1.0, mu2=0.0, nu=0.0025,
                                utility_constant=500.0)
        for model in (scarf_model, inelastic):
            with pytest.raises(ValueError, match="demand nan"):
                hourly_utility(model, mean_profile, 0, math.nan)

    def test_messages(self, scarf_model, mean_profile):
        floor = inelastic_share(scarf_model, mean_profile, 0)
        with pytest.raises(ValueError, match=re.escape(
                f"utility undefined at demand {floor - 5.0} <= inelastic floor {floor}")):
            hourly_utility(scarf_model, mean_profile, 0, floor - 5.0)
        inelastic = DemandModel(a=455.0, mu1=1.0, mu2=0.0, nu=0.0025)
        floor = inelastic_share(inelastic, mean_profile, 0)
        with pytest.raises(ValueError, match=re.escape(
                f"demand {floor - 1e-6} below the inelastic floor {floor}")):
            hourly_utility(inelastic, mean_profile, 0, floor - 1e-6)
        assert hourly_utility(inelastic, mean_profile, 0, floor - 1e-10) == 0.0

    def test_array_names_the_first_hour_at_or_below_its_floor(self, scarf_model,
                                                              day_profile):
        terms = market._hour_terms(scarf_model, day_profile, (0, 1, 2))
        floors = terms[0].tolist()
        with pytest.raises(ValueError, match=re.escape(
                f"utility undefined at demand {floors[1]} <= inelastic floor {floors[1]}")):
            market._utility(scarf_model, terms, [floors[0] + 1.0, floors[1], floors[2] - 5.0])

    def test_rows_of_hours_name_the_first_refused_demand_in_row_order(
            self, scarf_model, day_profile):
        terms = market._hour_terms(scarf_model, day_profile, (0, 1, 2))
        floors = terms[0].tolist()
        above = [f + 1.0 for f in floors]
        demand = [above, [floors[0] + 2.0, floors[1] + 2.0, floors[2] - 5.0],
                  [floors[0] - 1.0, *above[1:]]]
        with pytest.raises(ValueError, match=re.escape(
                f"utility undefined at demand {floors[2] - 5.0} <= inelastic floor "
                f"{floors[2]}")):
            market._utility(scarf_model, terms, demand)
        # each row is the utility of its hours, float for float
        rows = [above, [f + 2.0 for f in floors]]
        assert market._utility(scarf_model, terms, rows).tolist() == \
            [market._utility(scarf_model, terms, row).tolist() for row in rows]

    def test_zero_elastic_weight_returns_constant(self, mean_profile):
        model = DemandModel(a=455.0, mu1=1.0, mu2=0.0, nu=0.0025,
                            utility_constant=500.0)
        d = inelastic_share(model, mean_profile, 0)
        assert hourly_utility(model, mean_profile, 0, d + 10.0) == 500.0


class TestProfiles:
    def test_constant_document(self):
        doc = "hour,d1\n" + "".join(f"{t},{MEAN_D1}\n" for t in range(24))
        profile = load_profile(doc)
        assert profile.base_demand == (MEAN_D1,) * 24
        assert profile.noise == (0.0,) * 24

    def test_wrong_row_count(self):
        doc = "hour,d1\n" + "".join(f"{t},100.0\n" for t in range(23))
        with pytest.raises(ValueError):
            load_profile(doc)

    def test_duplicate_hour(self):
        doc = "hour,d1\n" + "".join(f"{min(t, 22)},100.0\n" for t in range(24))
        with pytest.raises(ValueError):
            load_profile(doc)

    def test_nonpositive_demand(self):
        doc = "hour,d1\n0,0.0\n" + "".join(f"{t},100.0\n" for t in range(1, 24))
        with pytest.raises(ValueError):
            load_profile(doc)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_demand_names_the_row(self, value):
        doc = "hour,d1\n" + "".join(
            f"{t},{value if t == 5 else 100.0}\n" for t in range(24))
        with pytest.raises(ValueError) as err:
            load_profile(doc)
        assert str(err.value) == (
            f"bad profile row ['5', '{value}']: base demand at hour 5 "
            f"must be finite and > 0, got {float(value)}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_base_demand_refused(self, value):
        base = (100.0,) * 7 + (value,) + (100.0,) * 16
        with pytest.raises(ValueError, match=(
                f"^base demand at hour 7 must be finite and > 0, got {value}$")):
            DayProfile(base)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.5])
    def test_bad_noise_refused(self, value):
        # 1 + noise scales the elastic share, so noise below -1 turns it negative
        noise = (0.0,) * 11 + (value,) + (0.0,) * 12
        with pytest.raises(ValueError, match=(
                f"^noise at hour 11 must be finite and >= -1, got {value}$")):
            DayProfile((100.0,) * 24, noise)

    @pytest.mark.parametrize("field", ["base_demand", "noise"])
    @pytest.mark.parametrize("value", ["5", True])
    def test_value_that_is_not_a_number(self, field, value):
        # float() once read the string "5" as 5.0 MW, and True as 1.0
        values = {"base_demand": (100.0,) * 24, "noise": (0.0,) * 24}
        values[field] = values[field][:3] + (value,) + values[field][4:]
        name = field.replace("_", " ")
        with pytest.raises(ValueError,
                           match=f"^{name} at hour 3 must be a number, got {value!r}$"):
            DayProfile(**values)

    def test_empty_document(self):
        with pytest.raises(ValueError, match="^empty profile document$"):
            load_profile("")

    def test_blank_rows_are_skipped(self):
        rows = [f"{t},{100.0 + t}" for t in range(24)]
        doc = "hour,d1\n\n" + "\n ,  \n".join(rows) + "\n\n"
        assert load_profile(doc).base_demand == tuple(100.0 + t for t in range(24))

    def test_noise_of_minus_one_accepted(self):
        assert DayProfile((100.0,) * 24, (-1.0,) * 24).noise == (-1.0,) * 24

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_profile("t,load\n" + "".join(f"{t},1.0\n" for t in range(24)))

    def test_bundled_profile_summary_stats(self, day_profile):
        base = day_profile.base_demand
        assert min(base) == PROFILE_LOW == 28340.0
        assert max(base) == PROFILE_HIGH == 50780.0
        assert sum(base) / 24 == pytest.approx(PROFILE_MEAN, rel=1e-9)

    def test_default_profile_has_no_noise(self):
        assert default_profile().noise == (0.0,) * 24


class TestSyntheticProfile:
    def test_exact_summary_stats(self):
        values = synthetic_profile(28340.0, 41086.7, 50780.0)
        assert min(values) == 28340.0
        assert max(values) == 50780.0
        assert sum(values) / 24 == pytest.approx(41086.7, rel=1e-9)

    def test_single_trough_and_peak(self):
        values = synthetic_profile(10.0, 20.0, 40.0)
        assert values.count(min(values)) == 1
        assert values.count(max(values)) == 1
        assert all(v > 0 for v in values)

    def test_degenerate_arguments_rejected(self):
        for args in ((1.0, 1.0, 1.0), (5.0, 4.0, 6.0), (1.0, 7.0, 6.0)):
            with pytest.raises(ValueError):
                synthetic_profile(*args)

    def test_early_stop_matches_full_bisection(self):
        assert default_profile().base_demand == oracles.synthetic_profile_bisected(
            PROFILE_LOW, PROFILE_MEAN, PROFILE_HIGH)
        rng = random.Random(0)
        for _ in range(300):
            low = rng.uniform(1.0, 1e5)
            high = low + rng.uniform(1e-3, 1e5)
            mean = low + rng.uniform(0.05, 0.95) * (high - low)
            assert synthetic_profile(low, mean, high) == \
                oracles.synthetic_profile_bisected(low, mean, high)

    def test_unreachable_mean_rejected(self):
        # a 24-point curve with one point at each extreme cannot average
        # closer to an endpoint than 1/24 of the range; a low of 0 is
        # refused before the shape is tried
        with pytest.raises(ValueError, match=re.escape(
                "need 0 < low < mean < high, got 0.0, 1.0, 100.0")):
            synthetic_profile(0.0, 1.0, 100.0)
        for low, mean, high in ((10.0, 11.0, 100.0), (10.0, 99.0, 100.0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"mean {mean} not achievable with this diurnal shape for "
                    f"range [{low}, {high}]")):
                synthetic_profile(low, mean, high)


class TestSampleNoise:
    def test_deterministic(self):
        assert sample_noise(7) == sample_noise(7)

    def test_seed_sensitivity(self):
        assert sample_noise(7) != sample_noise(8)

    def test_negative_seed_accepted(self):
        assert sample_noise(-1) == sample_noise(-1)

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_seed_that_is_not_an_integer_refused(self, seed):
        # int() would read 1.5 and True as seed 1, and "3" as seed 3
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            sample_noise(seed)

    def test_numpy_integer_seed(self):
        assert sample_noise(np.int64(3)) == sample_noise(3)

    def test_pooled_moments(self):
        draws = np.concatenate([sample_noise(seed) for seed in range(4200)])
        assert draws.size == 100800
        assert abs(float(draws.mean())) < 1e-4
        assert abs(float(draws.std(ddof=1)) - 0.01) < 0.0002

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DayProfile((100.0,) * 23)
        with pytest.raises(ValueError):
            DayProfile((100.0,) * 24, (0.0,) * 5)
        with pytest.raises(ValueError):
            DayProfile((0.0,) + (100.0,) * 23)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["a", "mu1", "mu2", "nu", "utility_constant"])
    def test_model_fields_must_be_finite(self, field, value):
        params = dict(a=1.0, mu1=0.8, mu2=0.2, nu=0.01, utility_constant=0.0)
        params[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DemandModel(**params)

    @pytest.mark.parametrize("value", ["5", True])
    @pytest.mark.parametrize("field", ["a", "mu1", "mu2", "nu", "utility_constant"])
    def test_model_field_that_is_not_a_number(self, field, value):
        # unchecked, "5" met math.isfinite as TypeError and True passed as 1
        params = dict(a=1.0, mu1=0.8, mu2=0.2, nu=0.01, utility_constant=0.0)
        params[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
            DemandModel(**params)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DemandModel(a=0.0, mu1=0.8, mu2=0.2, nu=0.01)
        with pytest.raises(ValueError):
            DemandModel(a=1.0, mu1=0.8, mu2=0.2, nu=0.0)
        with pytest.raises(ValueError):
            DemandModel(a=1.0, mu1=-0.1, mu2=0.2, nu=0.01)


def numpy_noise(seed):
    """The reference: numpy's own default_rng([seed, t]).normal(0, 0.01)."""
    seed &= 2**64 - 1
    return tuple(float(np.random.default_rng([seed, t]).normal(0.0, 0.01))
                 for t in range(24))


class TestNoiseStream:
    """_noise reproduces numpy's default_rng([seed, t]).normal bit for bit."""

    SEEDS = [*range(2000), 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, -1, -2**63]

    def test_matches_numpy(self):
        for seed in self.SEEDS:
            assert sample_noise(seed) == numpy_noise(seed), seed

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**64 - 1))
    def test_matches_numpy_on_any_seed(self, seed):
        assert sample_noise(seed) == numpy_noise(seed)

    def test_long_stream_matches_numpy(self):
        # 200,000 draws take the ziggurat's wedge and tail branches as well
        # as its fast path; the next raw word shows both streams read the
        # same number of words
        count = 200_000
        rng = np.random.default_rng([7, 3])
        expected = rng.standard_normal(count).tolist()
        bits = _noise.pcg64([7, 3])
        assert [_noise.standard_normal(bits) for _ in range(count)] == expected
        assert next(bits) == int(rng.bit_generator.random_raw())
        assert max(map(abs, expected)) > _noise._NOR_R

    def test_entropy_beyond_the_pool_refused(self):
        # [seed, t] is at most three uint32 words; five would need the
        # mixing numpy does past the pool, which _noise does not copy
        with pytest.raises(ValueError, match="entropy of 5 uint32 words"):
            next(_noise.pcg64([2**64, 2**32]))

    def test_run_never_imports_numpy_random(self, tmp_path):
        code = (
            "import sys\n"
            "from chpricing.cli import main\n"
            "out = sys.argv[1]\n"
            "for method in ('chp-subgradient', 'chp-exact', 'lmp', 'dispatchable'):\n"
            "    assert main(['run', '--fleet', 'gribik', '--method', method,\n"
            "                 '--iters', '5', '--out', out]) == 0\n"
            "assert main(['curves', '--fleet', 'gribik', '--out', out]) == 0\n"
            "assert main(['uplift-curve', '--fleet', 'gribik', '--rule', 'chp',\n"
            "             '--out', out]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
            timeout=120, check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert done.stdout.splitlines()[-1] == "False"

    def test_tables_match_installed_numpy(self):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "ziggurat_tables.py"), "--check"],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
