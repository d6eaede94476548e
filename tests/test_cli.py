import ast
import concurrent.futures
import contextlib
import csv
import functools
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import chpricing as ch
from chpricing import cli
from chpricing.cli import main
from chpricing.pricing import PRICE_FLOOR, price_hours


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def fmt(x):
    """A CSV cell: the repr of the value as a float."""
    return repr(float(x))


def strip_elapsed(path):
    lines = Path(path).read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def gap_fleet_file(tmp_path):
    """A fleet that cannot serve (100, 100.3) MW; no quadratic-fit sample lands there."""
    doc = {"types": [
        {"name": "A", "startup_cost": 0.0, "min_output": 0.0, "unit_count": 1,
         "segments": [{"marginal_cost": 10.0, "capacity": 100.0}]},
        {"name": "B", "startup_cost": 50.0, "min_output": 100.3, "unit_count": 1,
         "segments": [{"marginal_cost": 20.0, "capacity": 101.0}]},
    ]}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc))
    return path


def min_output_gap_fleet_file(tmp_path):
    """One 4-120 MW unit: the quadratic fit's sample at 1 MW has no commitment."""
    doc = {"types": [{"name": "A", "startup_cost": 0.0, "min_output": 4.0,
                      "unit_count": 1,
                      "segments": [{"marginal_cost": 1.0, "capacity": 120.0}]}]}
    path = tmp_path / "min_gap.json"
    path.write_text(json.dumps(doc))
    return path


def record_calls(monkeypatch, module_name, name):
    """Route every chpricing binding of module.name through a recorder.

    Returns the list the recorder appends each call's positional arguments to.
    """
    original = getattr(sys.modules[module_name], name)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("chpricing") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recorder)
    return calls


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in this process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture(scope="module")
def exact_scarf_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("exact_scarf")
    rc = run_cli("run", "--fleet", "scarf", "--method", "chp-exact",
                 "--no-noise", "--out", str(out))
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def gribik_curves(tmp_path_factory):
    out = tmp_path_factory.mktemp("curves")
    assert run_cli("curves", "--fleet", "gribik", "--step-mw", "50",
                   "--out", str(out)) == 0
    return read_rows(out / "curves.csv")


class TestRunExactScarf:
    def test_summary(self, exact_scarf_out):
        header, rows = read_rows(exact_scarf_out / "summary.csv")
        assert list(header) == ["price_min", "price_mean", "price_max",
                                "total_demand", "total_utility_gross",
                                "total_utility_net", "total_profit",
                                "total_welfare", "total_uplift", "settled_hours"]
        (row,) = rows
        record = dict(zip(header, row))
        for key in ("price_min", "price_mean", "price_max"):
            assert float(record[key]) == pytest.approx(6.3125, abs=1e-6)
        assert float(record["total_demand"]) == pytest.approx(2318.1418, abs=1e-3)
        assert record["settled_hours"] == "24"
        assert float(record["total_welfare"]) == pytest.approx(
            float(record["total_utility_net"]) + float(record["total_profit"]),
            rel=1e-9)

    def test_hours(self, exact_scarf_out):
        header, rows = read_rows(exact_scarf_out / "hours.csv")
        assert len(rows) == 24
        assert [r[0] for r in rows] == [str(t) for t in range(24)]
        assert all(r[-1] == "ok" for r in rows)
        for row in rows:
            record = dict(zip(header, row))
            assert float(record["price"]) == pytest.approx(6.3125, abs=1e-6)
            assert float(record["uplift"]) >= -1e-9

    def test_trace_single_record_rows(self, exact_scarf_out):
        header, rows = read_rows(exact_scarf_out / "trace.csv")
        assert list(header) == ["t", "k", "price", "demand", "supply", "step",
                                "dual_value", "uplift", "elapsed_s"]
        assert len(rows) == 24
        assert all(r[1] == "0" and r[5] == "0.0" for r in rows)


class TestDeterminism:
    ARGS = ("run", "--fleet", "gribik", "--method", "chp-subgradient",
            "--iters", "20")

    def test_repeat_runs_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*self.ARGS, "--out", str(a)) == 0
        assert run_cli(*self.ARGS, "--out", str(b)) == 0
        assert (a / "hours.csv").read_bytes() == (b / "hours.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        # trace matches except the wall-clock column
        assert strip_elapsed(a / "trace.csv") == strip_elapsed(b / "trace.csv")

    @pytest.mark.parametrize("fleet, method", [
        ("gribik", "chp-subgradient"), ("gribik", "chp-exact"),
        ("gribik", "dispatchable"), ("scarf", "lmp")])
    def test_parallel_matches_serial(self, fleet, method, tmp_path):
        # closed-form hours are priced inside the pool's chunks too
        args = ("run", "--fleet", fleet, "--method", method, "--iters", "20")
        a, b = tmp_path / "serial", tmp_path / "par"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b), "--jobs", "3") == 0
        for name in ("hours.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert strip_elapsed(a / "trace.csv") == strip_elapsed(b / "trace.csv")

    def test_module_entry_point(self, tmp_path):
        # python3 -m chpricing runs the same command line as the console script
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ch.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "chpricing", "run", "--fleet", "gribik",
             "--method", "chp-exact", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split() == [str(tmp_path / f"{name}.csv")
                                       for name in ("hours", "trace", "summary")]

    @pytest.mark.parametrize("jobs", ["2", "5", "24", "25", "100000"])
    def test_pool_has_at_most_one_worker_per_hour(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "created", [])
        a, b = tmp_path / "serial", tmp_path / "pool"
        assert run_cli(*self.ARGS, "--out", str(a)) == 0
        assert RecordingPool.created == []
        assert run_cli(*self.ARGS, "--out", str(b), "--jobs", jobs) == 0
        assert RecordingPool.created == [min(int(jobs), 24)]
        assert (a / "hours.csv").read_bytes() == (b / "hours.csv").read_bytes()
        assert strip_elapsed(a / "trace.csv") == strip_elapsed(b / "trace.csv")

    def test_import_loads_no_process_pool(self):
        code = ("import sys, chpricing.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"

    def test_package_import_stays_lean(self, tmp_path):
        # set-up time: the worker pool is imported only when a run starts
        # workers, csv and json only when a profile or a fleet file is
        # read, and numpy.random never (the noise is chpricing._noise);
        # a curve's grid is built on ints, so fractions and decimal never
        code = ("import sys, chpricing; chpricing.builtin_fleet('gribik'); "
                "print(sorted(m for m in ('numpy.random', 'concurrent.futures', 'csv', "
                "'json') if m in sys.modules))\n"
                "from chpricing.cli import main\n"
                "assert main(['uplift-curve', '--fleet', 'gribik', '--rule', 'chp', "
                f"'--step-mw', '0.2', '--out', {str(tmp_path)!r}]) == 0\n"
                "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ch.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        lines = done.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]")

    def test_well_formed_commands_never_import_argparse(self, tmp_path):
        # set-up and main time: the option table parses a well-formed argv,
        # so argparse, gettext and the locale module they load stay out
        code = (
            "import sys\nfrom chpricing.cli import main\n"
            "for argv in (['run', '--fleet', 'gribik', '--method', 'chp-exact'],\n"
            "             ['curves', '--fleet', 'gribik', '--step-mw', '50'],\n"
            "             ['uplift-curve', '--fleet', 'gribik', '--rule', 'chp']):\n"
            f"    assert main([*argv, '--out', {str(tmp_path)!r} + '/' + argv[0]]) == 0\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))")
        assert self.run_clean(code)[-1] == "[]"

    def test_help_still_prints_usage(self):
        # the one path that imports argparse in a fresh interpreter
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ch.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "chpricing", "run", "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: chpricing run [-h] --fleet FLEET")

    def test_import_creates_only_the_validated_dataclasses(self):
        # set-up time: a frozen dataclass costs about ten times a NamedTuple
        # to create, so only the types that validate their fields are ones
        code = ("import dataclasses, sys, chpricing.cli\n"
                "classes = {v for name, module in list(sys.modules.items())\n"
                "           if name.startswith('chpricing') for v in vars(module).values()\n"
                "           if isinstance(v, type) and v.__module__.startswith('chpricing')}\n"
                "print(*sorted(c.__name__ for c in classes if dataclasses.is_dataclass(c)))")
        assert self.run_clean(code) == [
            "Commitment", "CostSegment", "DayProfile", "DemandModel", "ExperimentConfig",
            "Fleet", "GeneratorType", "HarmonicStep", "PriceLoop", "QuadraticCost"]

    # the BLAS pin in chpricing/__init__.py, seen from a fresh interpreter
    # started without any BLAS thread variable
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    THREADS = "len(os.listdir('/proc/self/task'))"
    NEEDS_PROC = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                    reason="counts threads in /proc/self/task")

    def run_clean(self, code, **extra_env):
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        env.update(extra_env, PYTHONPATH=str(Path(ch.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", "import os\n" + code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return done.stdout.split()

    @NEEDS_PROC
    def test_import_pins_blas_to_one_thread(self):
        code = ("before = dict(os.environ)\nimport chpricing\n"
                f"print({self.THREADS}, 'OPENBLAS_NUM_THREADS' in os.environ, "
                "dict(os.environ) == before)")
        assert self.run_clean(code) == ["1", "False", "True"]

    @NEEDS_PROC
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
    def test_caller_thread_count_is_kept(self):
        code = f"import chpricing\nprint({self.THREADS}, os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.run_clean(code, OPENBLAS_NUM_THREADS="2") == ["2", "2"]

    @NEEDS_PROC
    def test_numpy_loaded_first_is_left_alone(self):
        # os.environ writes go through os.putenv / os.unsetenv: record them
        code = ("import numpy\ncalls = []\n"
                "os.putenv = os.unsetenv = lambda *args: calls.append(args)\n"
                "import chpricing\nprint(calls)")
        assert self.run_clean(code) == ["[]"]

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "s0", tmp_path / "s1"
        assert run_cli(*self.ARGS, "--out", str(a)) == 0
        assert run_cli(*self.ARGS, "--out", str(b), "--seed", "1") == 0
        assert (a / "hours.csv").read_bytes() != (b / "hours.csv").read_bytes()


class TestRunMethods:
    def test_default_subgradient_trace_length(self, tmp_path):
        assert run_cli("run", "--fleet", "gribik", "--method", "chp-subgradient",
                       "--out", str(tmp_path)) == 0
        _, rows = read_rows(tmp_path / "trace.csv")
        assert len(rows) == 2400
        assert {r[0] for r in rows} == {str(t) for t in range(24)}

    def test_lmp_day(self, tmp_path):
        assert run_cli("run", "--fleet", "scarf", "--method", "lmp",
                       "--no-noise", "--out", str(tmp_path)) == 0
        header, rows = read_rows(tmp_path / "summary.csv")
        record = dict(zip(header, rows[0]))
        assert record["settled_hours"] == "24"
        _, trace = read_rows(tmp_path / "trace.csv")
        assert len(trace) == 2400
        assert all(not math.isnan(float(r[7])) for r in trace)

    def test_lmp_fits_once_per_day(self, tmp_path, monkeypatch):
        fits = record_calls(monkeypatch, "chpricing.ucp", "quadratic_fit")
        assert run_cli("run", "--fleet", "gribik", "--method", "lmp", "--iters", "1",
                       "--out", str(tmp_path)) == 0
        assert fits == [(ch.builtin_fleet("gribik"),)]

    def test_dispatchable_day(self, tmp_path):
        assert run_cli("run", "--fleet", "gribik", "--method", "dispatchable",
                       "--no-noise", "--out", str(tmp_path)) == 0
        header, rows = read_rows(tmp_path / "hours.csv")
        for row in rows:
            record = dict(zip(header, row))
            assert record["status"] == "ok"
            assert float(record["price"]) == pytest.approx(95.0, abs=1e-6)

    def test_infeasible_day_is_reported_not_fatal(self, tmp_path):
        rc = run_cli("run", "--fleet", "scarf", "--method", "chp-subgradient",
                     "--mu1", "5.0", "--iters", "3", "--out", str(tmp_path))
        assert rc == 0
        header, rows = read_rows(tmp_path / "hours.csv")
        assert len(rows) == 24
        for row in rows:
            record = dict(zip(header, row))
            assert record["status"] == "infeasible"
            assert record["cost"] == "" and record["welfare"] == ""
        _, srows = read_rows(tmp_path / "summary.csv")
        assert srows[0][:9] == [""] * 9
        assert srows[0][9] == "0"

    @pytest.mark.parametrize("method", ["chp-exact", "dispatchable"])
    def test_uncoverable_closed_form_hours_are_marked(self, tmp_path, method):
        # every hour clears at 100.15 MW, inside the gap fleet's (100, 100.3) gap
        profile = tmp_path / "day.csv"
        profile.write_text("hour,d1\n" + "".join(f"{t},100\n" for t in range(24)))
        rc = run_cli("run", "--fleet", str(gap_fleet_file(tmp_path)), "--method", method,
                     "--profile", str(profile), "--no-noise",
                     "--a", "1040.12", "--nu", "1.125", "--out", str(tmp_path / "out"))
        assert rc == 0
        header, rows = read_rows(tmp_path / "out" / "hours.csv")
        assert len(rows) == 24
        for row in rows:
            record = dict(zip(header, row))
            assert record["status"] == "infeasible"
            assert float(record["price"]) == pytest.approx(20.495, abs=1e-3)
            assert float(record["demand"]) == pytest.approx(100.15, abs=1e-2)
            assert record["cost"] == "" and record["uplift"] == ""
        _, trace = read_rows(tmp_path / "out" / "trace.csv")
        assert len(trace) == 24
        assert all(r[7] == "inf" for r in trace)
        _, srows = read_rows(tmp_path / "out" / "summary.csv")
        assert srows[0] == [""] * 9 + ["0"]

    @pytest.mark.parametrize("method", ["chp-exact", "dispatchable"])
    def test_closed_form_day_at_price_floor(self, tmp_path, method):
        # a free unit and price-inelastic demand clear at the floor price
        doc = {"types": [{"name": "F", "startup_cost": 0.0, "min_output": 0.0,
                          "unit_count": 1,
                          "segments": [{"marginal_cost": 0.0, "capacity": 100.0}]}]}
        fleet_path = tmp_path / "free.json"
        fleet_path.write_text(json.dumps(doc))
        rc = run_cli("run", "--fleet", str(fleet_path), "--method", method,
                     "--mu2", "0", "--a", "1", "--nu", "0.001", "--no-noise",
                     "--out", str(tmp_path / "out"))
        assert rc == 0
        header, rows = read_rows(tmp_path / "out" / "hours.csv")
        for row in rows:
            record = dict(zip(header, row))
            assert record["status"] == "ok"
            assert float(record["price"]) == PRICE_FLOOR
        _, srows = read_rows(tmp_path / "out" / "summary.csv")
        assert srows[0][9] == "24"

    def test_day_without_crossing_is_marked_infeasible(self, scarf, tmp_path):
        # demand exceeds supply at every price: each hour is written at the cap
        cap = ch.default_price_cap(scarf)
        for method in ("chp-exact", "dispatchable"):
            out = tmp_path / method
            rc = run_cli("run", "--fleet", "scarf", "--method", method,
                         "--mu1", "5.0", "--out", str(out))
            assert rc == 0
            header, rows = read_rows(out / "hours.csv")
            assert len(rows) == 24
            for row in rows:
                record = dict(zip(header, row))
                assert record["status"] == "infeasible"
                assert float(record["price"]) == cap
                assert float(record["demand"]) > scarf.total_capacity
                assert record["cost"] == "" and record["uplift"] == ""
            _, trace = read_rows(out / "trace.csv")
            assert [(r[1], r[2], r[7]) for r in trace] == [("0", repr(cap), "inf")] * 24
            assert [r[3] for r in trace] == [r[2] for r in rows]
            _, srows = read_rows(out / "summary.csv")
            assert srows[0] == [""] * 9 + ["0"]

    def test_synthetic_profile(self, tmp_path):
        rc = run_cli("run", "--fleet", "scarf", "--method", "chp-exact",
                     "--synthetic", "100,200,300", "--no-noise",
                     "--out", str(tmp_path))
        assert rc == 0
        _, srows = read_rows(tmp_path / "summary.csv")
        assert srows[0][9] == "24"

    def test_profile_file(self, tmp_path):
        doc = "hour,d1\n" + "".join(f"{t},41086.7\n" for t in range(24))
        profile = tmp_path / "day.csv"
        profile.write_text(doc)
        rc = run_cli("run", "--fleet", "gribik", "--method", "chp-exact",
                     "--profile", str(profile), "--no-noise",
                     "--out", str(tmp_path / "out"))
        assert rc == 0
        header, rows = read_rows(tmp_path / "out" / "hours.csv")
        prices = {dict(zip(header, r))["price"] for r in rows}
        assert len(prices) == 1
        assert float(prices.pop()) == pytest.approx(95.0, abs=1e-6)


class TestOneCostBatchPerWorker:
    """A day costs all its rows' demands in one ucp_values batch per worker,
    and settles every hour from its final row: no single-demand ucp_value,
    dispatch_committed or settle_hour.  The curve commands cost their grids
    in batches too."""

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("fleet, method, rows", [
        ("gribik", "chp-subgradient", 5), ("gribik", "chp-exact", 1),
        ("gribik", "dispatchable", 1), ("scarf", "lmp", 5)])
    def test_day(self, fleet, method, rows, jobs, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "created", [])
        batches = record_calls(monkeypatch, "chpricing.ucp", "ucp_values")
        singles = record_calls(monkeypatch, "chpricing.ucp", "ucp_value")
        dispatches = record_calls(monkeypatch, "chpricing.ucp", "dispatch_committed")
        settles = record_calls(monkeypatch, "chpricing.welfare", "settle_hour")
        assert run_cli("run", "--fleet", fleet, "--method", method, "--iters", "5",
                       "--jobs", str(jobs), "--out", str(tmp_path)) == 0
        day_fleet = ch.builtin_fleet(fleet)
        sizes = [len(demands) for batch_fleet, demands in batches
                 if batch_fleet == day_fleet]
        assert sizes == [rows * 24 // jobs] * jobs
        # the rest is the quadratic fit's one batch per worker, on the
        # startup-free fleet
        assert len(batches) - len(sizes) == (jobs if method == "lmp" else 0)
        assert singles == [] and dispatches == [] and settles == []
        _, settled = read_rows(tmp_path / "summary.csv")
        assert settled[0][-1] == "24"

    @pytest.mark.parametrize("argv", [
        ("curves", "--fleet", "gribik", "--step-mw", "50"),
        ("curves", "--fleet", "scarf", "--step-mw", "0.5"),
        ("uplift-curve", "--fleet", "gribik", "--rule", "chp", "--step-mw", "1.7"),
        ("uplift-curve", "--fleet", "scarf", "--rule", "dispatchable")])
    def test_curves(self, argv, tmp_path, monkeypatch):
        batches = record_calls(monkeypatch, "chpricing.ucp", "ucp_values")
        singles = record_calls(monkeypatch, "chpricing.ucp", "ucp_value")
        dispatches = record_calls(monkeypatch, "chpricing.ucp", "dispatch_committed")
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert batches != []
        assert singles == [] and dispatches == []


class TestCustomFleetFile:
    def test_matches_builtin(self, tmp_path):
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(ch.dump_fleet(ch.builtin_fleet("gribik")))
        a, b = tmp_path / "builtin", tmp_path / "custom"
        base = ("run", "--method", "chp-exact", "--no-noise")
        assert run_cli(*base, "--fleet", "gribik", "--out", str(a)) == 0
        assert run_cli(*base, "--fleet", str(fleet_path), "--step", "c/k:0.1",
                       "--a", "3.9e4", "--nu", "0.01",
                       "--utility-constant", "20000", "--out", str(b)) == 0
        assert (a / "hours.csv").read_bytes() == (b / "hours.csv").read_bytes()

    def test_missing_model_params(self, tmp_path):
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(ch.dump_fleet(ch.builtin_fleet("gribik")))
        rc = run_cli("run", "--fleet", str(fleet_path), "--method", "chp-exact",
                     "--step", "c/k:0.1", "--out", str(tmp_path / "out"))
        assert rc == 1

    def test_paper_step_needs_builtin(self, tmp_path):
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(ch.dump_fleet(ch.builtin_fleet("gribik")))
        rc = run_cli("run", "--fleet", str(fleet_path), "--method",
                     "chp-subgradient", "--a", "3.9e4", "--nu", "0.01",
                     "--out", str(tmp_path / "out"))
        assert rc == 1

    @pytest.mark.parametrize("method", ["chp-exact", "dispatchable"])
    def test_closed_form_methods_take_no_step(self, tmp_path, method):
        # neither method reads a step, so the default '--step paper' is fine
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(ch.dump_fleet(ch.builtin_fleet("gribik")))
        rc = run_cli("run", "--fleet", str(fleet_path), "--method", method,
                     "--a", "3.9e4", "--nu", "0.01", "--out", str(tmp_path / "out"))
        assert rc == 0

    @pytest.mark.parametrize("method", ["chp-exact", "dispatchable"])
    def test_closed_form_methods_ignore_the_loop_flags(self, tmp_path, method):
        # README's claim, and the wide-fleet workload's --step on chp-exact:
        # a closed-form day builds no PriceLoop, so these values go unread.
        # main, not run_cli: the option table's parser leaves the negative
        # --iters value to argparse, which the corpus test compares it with
        day = ["run", "--fleet", "scarf", "--method", method, "--seed", "3"]
        assert main(day + ["--out", str(tmp_path / "plain")]) == 0
        assert main(day + ["--step", "xyz", "--iters", "-5", "--lambda0", "nan",
                           "--out", str(tmp_path / "flags")]) == 0
        for name in ("hours.csv", "summary.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()
        assert strip_elapsed(tmp_path / "plain" / "trace.csv") == \
            strip_elapsed(tmp_path / "flags" / "trace.csv")


class TestCurves:
    def test_header_and_grid(self, gribik_curves):
        header, rows = gribik_curves
        assert list(header) == ["y", "v", "v_relaxed", "v_no_startup",
                                "v_quadratic", "v_hull", "U_1"]
        ys = [float(r[0]) for r in rows]
        assert ys[0] == 0.0 and ys[-1] == 600.0
        assert len(ys) == 13

    def test_known_row(self, gribik_curves):
        header, rows = gribik_curves
        record = dict(zip(header, next(r for r in rows if float(r[0]) == 300.0)))
        assert float(record["v"]) == pytest.approx(20500.0, abs=1e-6)
        assert float(record["v_relaxed"]) == pytest.approx(20500.0, abs=1e-6)
        assert float(record["v_no_startup"]) == pytest.approx(10000.0, abs=1e-6)
        assert float(record["v_hull"]) == pytest.approx(20500.0, abs=1e-4)
        assert float(record["U_1"]) == pytest.approx(45737.4948, abs=1e-3)

    def test_zero_demand_row(self, gribik_curves):
        header, rows = gribik_curves
        record = dict(zip(header, rows[0]))
        assert float(record["v"]) == 0.0
        assert float(record["v_hull"]) == pytest.approx(0.0, abs=1e-6)
        assert record["U_1"] == ""

    def test_lower_bounds_hold_rowwise(self, gribik_curves):
        _, rows = gribik_curves
        for row in rows:
            y, v, v_relaxed, v_hull = (float(row[0]), float(row[1]),
                                       float(row[2]), float(row[5]))
            assert v_hull <= v + 1e-6
            assert v_relaxed <= v + 1e-6

    def test_value_columns_match_scalar(self, scarf, tmp_path):
        assert run_cli("curves", "--fleet", "scarf", "--step-mw", "0.5",
                       "--out", str(tmp_path)) == 0
        header, rows = read_rows(tmp_path / "curves.csv")
        assert len(rows) == 323
        for row in rows:
            record = dict(zip(header, row))
            y = float(record["y"])
            assert record["v"] == repr(ch.ucp_value(scarf, y)[0])
            assert record["v_no_startup"] == repr(ch.no_startup_value(scarf, y))

    def test_hull_is_relaxed_cost_on_float_fleet(self, tmp_path):
        # for independent units the hull is the relaxed merit-order cost, and
        # both columns are read off one staircase, so they agree to the bit
        # even where the fleet's costs and sizes round
        rng = random.Random(0)
        types = []
        for i in range(4):
            cost = rng.uniform(10.0, 40.0)
            types.append({
                "name": f"T{i}", "startup_cost": rng.uniform(100.0, 2000.0),
                "min_output": 0.0, "unit_count": 2,
                "segments": [
                    {"marginal_cost": cost, "capacity": rng.uniform(30.0, 40.0)},
                    {"marginal_cost": cost + rng.uniform(5.0, 30.0),
                     "capacity": rng.uniform(15.0, 25.0)}]})
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(json.dumps({"types": types}))
        assert run_cli("curves", "--fleet", str(fleet_path), "--out", str(tmp_path)) == 0
        header, rows = read_rows(tmp_path / "curves.csv")
        relaxed, hull = header.index("v_relaxed"), header.index("v_hull")
        assert len(rows) == 454
        assert [r[hull] for r in rows] == [r[relaxed] for r in rows]

    def test_uncoverable_demand_fails_loud(self, tmp_path, capsys):
        assert run_cli("curves", "--fleet", str(gap_fleet_file(tmp_path)),
                       "--step-mw", "0.1", "--out", str(tmp_path)) == 1
        assert "error: no commitment can meet 100.1 MW\n" in capsys.readouterr().err

    def test_minimum_output_gap_names_the_grid_point(self, tmp_path, capsys):
        # the grid's coverage is decided before the quadratic fit, so the
        # 0.5 MW grid's first point names the gap of a 4-120 MW unit, not
        # the fit's 1 MW-apart samples
        fleet_path = min_output_gap_fleet_file(tmp_path)
        assert run_cli("curves", "--fleet", str(fleet_path), "--step-mw", "0.5",
                       "--out", str(tmp_path)) == 1
        assert "error: no commitment can meet 0.5 MW\n" in capsys.readouterr().err
        assert not (tmp_path / "curves.csv").exists()

    def test_free_fleet_leaves_quadratic_empty(self, tmp_path):
        # quadratic_fit refuses a cost that is zero everywhere; every other
        # column is defined
        doc = {"types": [{"name": "F", "startup_cost": 0.0, "min_output": 0.0,
                          "unit_count": 1,
                          "segments": [{"marginal_cost": 0.0, "capacity": 100.0}]}]}
        fleet_path = tmp_path / "free.json"
        fleet_path.write_text(json.dumps(doc))
        assert run_cli("curves", "--fleet", str(fleet_path), "--a", "5", "--nu", "0.01",
                       "--mu2", "0", "--step-mw", "25", "--out", str(tmp_path)) == 0
        header, rows = read_rows(tmp_path / "curves.csv")
        assert [r[0] for r in rows] == ["0.0", "25.0", "50.0", "75.0", "100.0"]
        for name in ("v", "v_relaxed", "v_no_startup", "v_hull"):
            assert {r[header.index(name)] for r in rows} == {"0.0"}
        assert {r[header.index("v_quadratic")] for r in rows} == {""}

    def test_custom_fleet_without_model_leaves_u1_empty(self, tmp_path):
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(ch.dump_fleet(ch.builtin_fleet("gribik")))
        assert run_cli("curves", "--fleet", str(fleet_path), "--step-mw", "100",
                       "--out", str(tmp_path)) == 0
        _, rows = read_rows(tmp_path / "curves.csv")
        assert all(r[6] == "" for r in rows)


    def test_custom_fleet_model_flag_needs_the_others(self, tmp_path, capsys):
        # as in run, a model flag asks for the model, and a fleet file has no
        # default --nu
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(ch.dump_fleet(ch.builtin_fleet("gribik")))
        assert run_cli("curves", "--fleet", str(fleet_path), "--a", "39000",
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "error: --nu is required for a custom fleet file\n")
        assert not (tmp_path / "curves.csv").exists()
        assert run_cli("curves", "--fleet", str(fleet_path), "--a", "39000",
                       "--nu", "0.01", "--step-mw", "100", "--out", str(tmp_path)) == 0
        _, rows = read_rows(tmp_path / "curves.csv")
        assert any(r[6] != "" for r in rows)


class TestDemandGrid:
    """Point i of a curve's grid is the float nearest to i times the step's decimal."""

    @pytest.mark.parametrize("step", [0.1, 0.2, 0.3, 1.0, 1.7, 2.5e-05, 123.456,
                                      0.30000000000000004])
    @pytest.mark.parametrize("capacity", ["gribik", "scarf", "multiple"])
    def test_points_are_exact_multiples(self, step, capacity):
        decimal_step = Fraction(repr(step))
        capacity = (float(1000 * decimal_step) if capacity == "multiple"
                    else ch.builtin_fleet(capacity).total_capacity)
        if capacity / step > ch.ucp.MAX_GRID_POINTS:
            with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
                cli._demand_grid(capacity, step)
            return
        grid = cli._demand_grid(capacity, step)
        assert grid[:-1] == [float(i * decimal_step) for i in range(len(grid) - 1)]
        assert grid[-1] == capacity
        # the end rule: every point but the last lies below capacity - 1e-9,
        # and the next multiple would not
        assert grid[-2] < capacity - 1e-9 <= float((len(grid) - 1) * decimal_step)

    def test_gribik_fine_grid_keeps_its_length(self):
        grid = cli._demand_grid(ch.builtin_fleet("gribik").total_capacity, 0.2)
        assert len(grid) == 3001
        assert grid[:4] == [0.0, 0.2, 0.4, 0.6] and grid[-2:] == [599.8, 600.0]


class TestUpliftCurve:
    def test_chp_rule_scarf(self, tmp_path):
        assert run_cli("uplift-curve", "--fleet", "scarf", "--rule", "chp",
                       "--out", str(tmp_path)) == 0
        header, rows = read_rows(tmp_path / "uplift_curve.csv")
        assert list(header) == ["y", "price", "uplift"]
        assert len(rows) == 162
        first = dict(zip(header, rows[0]))
        # supporting interval at zero demand is [0, 44/7]; price is its midpoint
        assert float(first["price"]) == pytest.approx(22.0 / 7.0, abs=1e-6)
        assert float(first["uplift"]) == pytest.approx(0.0, abs=1e-9)
        assert all(float(r[2]) >= -1e-9 for r in rows)

    @pytest.mark.parametrize("rule", ["chp", "dispatchable"])
    def test_uplift_column_matches_scalar(self, gribik, tmp_path, rule):
        assert run_cli("uplift-curve", "--fleet", "gribik", "--rule", rule,
                       "--step-mw", "1.7", "--out", str(tmp_path)) == 0
        _, rows = read_rows(tmp_path / "uplift_curve.csv")
        assert len(rows) == 354
        for y, price, uplift in rows:
            assert uplift == repr(ch.uplift(gribik, float(price), float(y)))

    def test_uncoverable_demand_fails_loud(self, tmp_path, capsys):
        assert run_cli("uplift-curve", "--fleet", str(gap_fleet_file(tmp_path)),
                       "--rule", "chp", "--step-mw", "0.1", "--out", str(tmp_path)) == 1
        assert "error: no commitment can meet 100.1 MW\n" in capsys.readouterr().err

    def test_chp_never_needs_more_uplift(self, tmp_path):
        a, b = tmp_path / "chp", tmp_path / "disp"
        for rule, out in (("chp", a), ("dispatchable", b)):
            assert run_cli("uplift-curve", "--fleet", "gribik", "--rule", rule,
                           "--step-mw", "23", "--out", str(out)) == 0
        _, chp_rows = read_rows(a / "uplift_curve.csv")
        _, disp_rows = read_rows(b / "uplift_curve.csv")
        assert [r[0] for r in chp_rows] == [r[0] for r in disp_rows]
        for chp_row, disp_row in zip(chp_rows, disp_rows):
            assert float(chp_row[2]) <= float(disp_row[2]) + 1e-6

    def test_scatter_matches_curve(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("run", "--fleet", "scarf", "--method", "chp-exact",
                       "--out", str(run_dir)) == 0
        assert run_cli("uplift-curve", "--fleet", "scarf", "--rule", "chp",
                       "--step-mw", "0.25", "--out", str(tmp_path)) == 0
        header, hours = read_rows(run_dir / "hours.csv")
        _, curve = read_rows(tmp_path / "uplift_curve.csv")
        grid = [(float(r[0]), float(r[2])) for r in curve]
        for row in hours:
            record = dict(zip(header, row))
            demand, uplift = float(record["demand"]), float(record["uplift"])
            _, nearest = min(grid, key=lambda point: abs(point[0] - demand))
            assert abs(uplift - nearest) < 2.0


def scalar_uplift_rows(fleet, rule, step_mw):
    """uplift_curve.csv rows built one demand at a time from the scalar functions."""
    price_of = ch.chp_fixed_demand if rule == "chp" else ch.dispatchable_price
    rows = []
    for y in cli._demand_grid(fleet.total_capacity, step_mw):
        price = price_of(fleet, y)
        try:
            billed = ch.uplift(fleet, price, y)
        except ch.InfeasibleError:
            raise ch.InfeasibleError(f"no commitment can meet {y} MW") from None
        rows.append(",".join(map(fmt, (y, price, billed))))
    return rows


def scalar_cost_rows(fleet, step_mw, model, profile):
    """curves.csv rows built one demand at a time from the scalar functions;
    every demand is costed before the quadratic fit."""
    grid = cli._demand_grid(fleet.total_capacity, step_mw)
    values = []
    for y in grid:
        try:
            values.append(ch.ucp_value(fleet, y)[0])
        except ch.InfeasibleError:
            raise ch.InfeasibleError(f"no commitment can meet {y} MW") from None
    quad = ch.quadratic_fit(fleet)
    rows = []
    for y, value in zip(grid, values):
        u1 = ""
        if model is not None and y > ch.inelastic_share(model, profile, 0):
            u1 = fmt(ch.hourly_utility(model, profile, 0, y))
        rows.append(",".join([fmt(x) for x in (
            y, value, ch.relaxed_value(fleet, y)[0], ch.no_startup_value(fleet, y),
            quad.cost(y), ch.hull_value(fleet, y).hull_value)] + [u1]))
    return rows


class TestCurveWritersMatchScalarRows:
    """The curve writers price a grid as arrays; every byte is the row-by-row one."""

    @pytest.mark.parametrize("name, step_mw", [("gribik", 1.7), ("scarf", 0.3)])
    @pytest.mark.parametrize("rule", ["chp", "dispatchable"])
    def test_uplift_curve(self, name, step_mw, rule, tmp_path):
        fleet = ch.builtin_fleet(name)
        path = cli.emit_uplift_curves(fleet, rule, step_mw, tmp_path)
        assert path.read_text().splitlines()[1:] == \
            scalar_uplift_rows(fleet, rule, step_mw)

    @pytest.mark.parametrize("name, step_mw", [("gribik", 1.7), ("scarf", 0.3)])
    @pytest.mark.parametrize("with_model", [True, False])
    def test_cost_curves(self, name, step_mw, with_model, tmp_path):
        fleet = ch.builtin_fleet(name)
        params = cli.FIXTURE_DEFAULTS[name]
        model = profile = None
        if with_model:
            model = ch.DemandModel(**{key: params[key] for key in (
                "a", "mu1", "mu2", "nu", "utility_constant")})
            profile = ch.default_profile()  # U_1 is read in the bundled day
        path = cli.emit_cost_curves(fleet, step_mw, tmp_path, model)
        assert path.read_text().splitlines()[1:] == \
            scalar_cost_rows(fleet, step_mw, model, profile)

    def test_uncoverable_demand_names_the_same_first_demand(self, tmp_path):
        # the gap fleet's first uncovered point is inside the grid; the
        # minimum-output gap fleet's is the grid's second point, where no
        # quadratic-fit sample lands
        for fleet_file, step_mw, first in ((gap_fleet_file, 0.1, 100.1),
                                           (min_output_gap_fleet_file, 0.5, 0.5)):
            fleet = ch.load_fleet(fleet_file(tmp_path).read_text())
            for rule in ("chp", "dispatchable"):
                with pytest.raises(ch.InfeasibleError) as expected:
                    scalar_uplift_rows(fleet, rule, step_mw)
                with pytest.raises(ch.InfeasibleError) as got:
                    cli.emit_uplift_curves(fleet, rule, step_mw, tmp_path)
                assert str(got.value) == str(expected.value)
            with pytest.raises(ch.InfeasibleError) as expected:
                scalar_cost_rows(fleet, step_mw, None, None)
            with pytest.raises(ch.InfeasibleError) as got:
                cli.emit_cost_curves(fleet, step_mw, tmp_path)
            assert str(got.value) == str(expected.value)
            assert str(got.value) == f"no commitment can meet {first} MW"

    @pytest.mark.parametrize("write", [
        functools.partial(cli.emit_uplift_curves, rule="chp"),
        functools.partial(cli.emit_uplift_curves, rule="dispatchable"),
        cli.emit_cost_curves,
    ], ids=["uplift-chp", "uplift-dispatchable", "curves"])
    def test_uncovered_grid_refused_before_any_read(self, write, tmp_path, monkeypatch):
        # 18 single-unit types with 1-5 MW minimum outputs: 262,144
        # commitments, and none covers the 0.1 MW grid's second point.
        # Costing that grid takes some 40 s, so the refusal comes first
        fleet = oracles.seeded_wide_fleet(min_outputs=True)
        reads = record_calls(monkeypatch, "chpricing.ucp", "_read")
        fills = record_calls(monkeypatch, "chpricing.ucp", "_fill")
        with pytest.raises(ch.InfeasibleError, match=r"^no commitment can meet 0\.1 MW$"):
            write(fleet, grid_step=0.1, out_dir=tmp_path)
        assert reads == fills == []
        assert list(tmp_path.iterdir()) == []


def free_fleet_file(tmp_path):
    """One free 100 MW unit: price-inelastic demand clears at the price floor."""
    doc = {"types": [{"name": "F", "startup_cost": 0.0, "min_output": 0.0,
                      "unit_count": 1,
                      "segments": [{"marginal_cost": 0.0, "capacity": 100.0}]}]}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    return path


def fixture_model(name):
    """The builtin fleet's default demand model, as run builds it without model flags."""
    return ch.DemandModel(**{key: cli.FIXTURE_DEFAULTS[name][key] for key in (
        "a", "mu1", "mu2", "nu", "utility_constant")})


def per_hour_trace_rows(config):
    """A closed-form day's trace.csv rows built hour by hour: the closed-form
    price (the price cap without a crossing), phi from dual_value, the supply
    read at the price and the uplift from settle_hour (inf where the hour
    does not settle)."""
    fleet, model, profile = config.fleet, config.model, config.profile
    closed_form = ch.exact_dual if config.method == "chp_exact" \
        else ch.dispatchable_equilibrium
    rows = []
    for t in range(24):
        try:
            price, demand = closed_form(fleet, model, profile, t)
        except ch.InfeasibleError:
            price = ch.default_price_cap(fleet)
            demand = ch.hourly_demand(model, profile, t, price)
        phi, imbalance = ch.dual_value(fleet, model, profile, t, price)
        supply = ch.fleet_supply(fleet, price)
        assert imbalance == supply - demand
        try:
            billed = ch.settle_hour(fleet, model, profile, t, price).uplift
        except ch.InfeasibleError:
            billed = math.inf
        rows.append(f"{t},0," + ",".join(map(fmt, (
            price, demand, supply, 0.0, phi, billed, 0.0))))
    return rows


class TestClosedFormTraceRows:
    """A closed-form day reads supply and profit for all its prices at once;
    every trace row is the one built hour by hour, and price_hours costs and
    bills each hour as ucp_value and settle_hour do."""

    @pytest.mark.parametrize("method", ["chp_exact", "dispatchable"])
    @pytest.mark.parametrize("name, synthetic", [
        ("gribik", (5000.0, 25000.0, 60000.0)), ("scarf", (5000.0, 30000.0, 70000.0))])
    def test_builtin_fleets(self, name, synthetic, method, tmp_path):
        # the day spans three steps of the staircase, so hours clear at
        # different prices
        rows, priced = self.check(cli.ExperimentConfig(
            fleet=ch.builtin_fleet(name), method=method, out_dir=str(tmp_path),
            model=fixture_model(name),
            profile=ch.DayProfile(ch.synthetic_profile(*synthetic), ch.sample_noise(3))))
        assert len({row.split(",")[4] for row in rows}) == 3
        assert (priced.cost < math.inf).all()

    @pytest.mark.parametrize("method", ["chp_exact", "dispatchable"])
    def test_uncoverable_hours(self, method, tmp_path):
        # every hour clears inside the gap fleet's (100, 100.3) MW gap
        rows, priced = self.check(cli.ExperimentConfig(
            fleet=ch.load_fleet(gap_fleet_file(tmp_path).read_text()), method=method,
            out_dir=str(tmp_path),
            model=ch.DemandModel(a=1040.12, mu1=0.8, mu2=0.2, nu=1.125, utility_constant=0.0),
            profile=ch.DayProfile((100.0,) * 24)))
        assert all(row.split(",")[7] == "inf" for row in rows)
        assert priced.cost.tolist() == priced.uplift.tolist() == [[math.inf] * 24]

    @pytest.mark.parametrize("method", ["chp_exact", "dispatchable"])
    def test_price_floor(self, method, tmp_path):
        rows, _priced = self.check(cli.ExperimentConfig(
            fleet=ch.load_fleet(free_fleet_file(tmp_path).read_text()), method=method,
            out_dir=str(tmp_path),
            model=ch.DemandModel(a=1.0, mu1=0.8, mu2=0.0, nu=0.001, utility_constant=0.0),
            profile=ch.default_profile()))
        assert all(row.split(",")[2] == repr(PRICE_FLOOR) for row in rows)

    @staticmethod
    def check(config):
        cli.run_experiment(config)
        rows = (Path(config.out_dir) / "trace.csv").read_text().splitlines()[1:]
        assert rows == per_hour_trace_rows(config)
        fleet, model, profile = config.fleet, config.model, config.profile
        # a closed-form method takes no loop
        priced = price_hours(config.method, fleet, model, profile, range(24))
        assert priced.price.shape == (1, 24) and priced.first_k == 0
        rows_k0 = (column[0].tolist() for column in (
            priced.price, priced.demand, priced.cost, priced.uplift))
        for t, price, demand, cost, billed in zip(range(24), *rows_k0):
            try:
                settled = ch.settle_hour(fleet, model, profile, t, price)
            except ch.InfeasibleError:
                assert cost == billed == math.inf
            else:
                assert demand == settled.demand
                assert cost == ch.ucp_value(fleet, demand)[0] == settled.supply_cost
                assert billed == settled.uplift
        return rows, priced


class TestErrorPaths:
    def test_missing_fleet_file(self, tmp_path):
        assert run_cli("run", "--fleet", str(tmp_path / "nope.json"),
                       "--method", "chp-exact", "--step", "c/k:0.1",
                       "--a", "1.0", "--nu", "0.01",
                       "--out", str(tmp_path)) == 1

    def test_bad_step_argument(self, tmp_path, capsys):
        assert run_cli("run", "--fleet", "gribik", "--method", "chp-subgradient",
                       "--step", "xyz", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: --step must be")
        for coef in ("nan", "inf"):
            assert run_cli("run", "--fleet", "gribik", "--method", "chp-subgradient",
                           "--step", f"c/k:{coef}", "--out", str(tmp_path)) == 1
            assert capsys.readouterr().err == (
                f"error: step coefficient must be finite and > 0, got {coef}\n")
        assert run_cli("run", "--fleet", "gribik", "--method", "chp-subgradient",
                       "--step", "c/k:", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "error: --step c/k:VALUE needs a number, got 'c/k:'\n")

    def test_bad_synthetic_argument(self, tmp_path, capsys):
        for text in ("1,2", "1,2,x"):
            assert run_cli("run", "--fleet", "gribik", "--method", "chp-exact",
                           "--synthetic", text, "--out", str(tmp_path)) == 1
            assert capsys.readouterr().err == (
                f"error: --synthetic needs three numbers MIN,MEAN,MAX, got {text!r}\n")

    def test_profile_and_synthetic_are_exclusive(self, tmp_path, capsys):
        profile = tmp_path / "day.csv"
        profile.write_text("hour,d1\n" + "".join(f"{t},41086.7\n" for t in range(24)))
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--fleet", "gribik", "--method", "chp-exact",
                    "--profile", str(profile), "--synthetic", "100,200,300",
                    "--out", str(tmp_path / "out"))
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_method_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--fleet", "gribik", "--method", "magic",
                    "--out", str(tmp_path))
        assert err.value.code == 2

    def test_null_fleet_field(self, tmp_path, capsys):
        doc = json.loads(ch.dump_fleet(ch.builtin_fleet("gribik")))
        doc["types"][1]["segments"][0]["capacity"] = None
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(json.dumps(doc))
        assert run_cli("run", "--fleet", str(fleet_path), "--method", "chp-exact",
                       "--a", "3.9e4", "--nu", "0.01", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: B: segments[0]: capacity must be a number")

    def test_nan_profile_row_is_refused(self, tmp_path, capsys):
        # unchecked, the day ran until settlement failed on "utility
        # undefined at demand nan <= inelastic floor nan"
        profile = tmp_path / "day.csv"
        profile.write_text("hour,d1\n" + "".join(
            f"{t},{'nan' if t == 5 else 41086.7}\n" for t in range(24)))
        assert run_cli("run", "--fleet", "gribik", "--method", "chp-exact",
                       "--profile", str(profile), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            "error: bad profile row ['5', 'nan']: base demand at hour 5 "
            "must be finite and > 0, got nan\n")
        assert not (tmp_path / "out").exists()

    def test_infinite_demand_parameter(self, tmp_path, capsys):
        assert run_cli("run", "--fleet", "gribik", "--method", "chp-exact",
                       "--a", "inf", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: a must be finite")

    @pytest.mark.parametrize("step", [True, "0.5", None])
    @pytest.mark.parametrize("writer", ["curves", "uplift-curve"])
    def test_grid_step_that_is_not_a_number(self, gribik, tmp_path, writer, step):
        # True once passed the range test as 1 and made a 601-point grid;
        # "0.5" and None met it as TypeError
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^step-mw must be a number, got {step!r}$"):
            if writer == "curves":
                cli.emit_cost_curves(gribik, step, out)
            else:
                cli.emit_uplift_curves(gribik, "chp", step, out)
        assert not out.exists()

    def test_nonpositive_grid_step(self, tmp_path):
        assert run_cli("curves", "--fleet", "gribik", "--step-mw", "0",
                       "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("command", [
        ("curves", "--fleet", "scarf"),
        ("uplift-curve", "--fleet", "scarf", "--rule", "chp")])
    def test_infinite_grid_step(self, tmp_path, capsys, command):
        # an infinite step once made the two-row grid [0, capacity]
        assert run_cli(*command, "--step-mw", "inf", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error: step-mw must be finite and > 0, got inf\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ("curves", "--fleet", "gribik", "--step-mw", "1e-14"),
        ("uplift-curve", "--fleet", "gribik", "--rule", "chp", "--step-mw", "1e-7"),
        ("curves", "--fleet", "gribik", "--step-mw", "5e-324"),
    ])
    def test_oversized_grid_is_refused(self, tmp_path, capsys, command):
        # each would run for hours, or forever below the float spacing of 600 MW
        assert run_cli(*command, "--out", str(tmp_path)) == 1
        assert "MAX_GRID_POINTS = 1000000" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("step", ["0", "1e-14"])
    def test_refused_curve_step_costs_nothing(self, tmp_path, monkeypatch, step):
        # the grid is checked before the quadratic fit's 121-demand batch
        batches = record_calls(monkeypatch, "chpricing.ucp", "ucp_values")
        assert run_cli("curves", "--fleet", "gribik", "--step-mw", step,
                       "--out", str(tmp_path)) == 1
        assert batches == []

    def test_grid_at_the_limit_is_built(self):
        grid = cli._demand_grid(1.0, 1.0 / ch.ucp.MAX_GRID_POINTS)
        assert len(grid) in (ch.ucp.MAX_GRID_POINTS + 1, ch.ucp.MAX_GRID_POINTS + 2)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize("iters", ["1000000000", "10001", "0"])
    def test_iteration_count_is_bounded(self, tmp_path, capsys, monkeypatch, iters):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "created", [])
        assert run_cli("run", "--fleet", "gribik", "--method", "lmp", "--iters", iters,
                       "--jobs", "4", "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: n_iters must be in [1, MAX_ITERS = 10000], got {iters}\n")
        # refused before any worker, array or output directory
        assert RecordingPool.created == []
        assert not (tmp_path / "out").exists()

    def test_refused_lmp_fit_leaves_no_output(self, tmp_path, capsys):
        # the fit runs with the day's pricing, before any file is written
        assert run_cli("run", "--fleet", str(min_output_gap_fleet_file(tmp_path)),
                       "--method", "lmp", "--a", "100", "--nu", "0.001",
                       "--step", "c/k:0.1", "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "error: no commitment can meet 1.0 MW\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("jobs", 2.5), ("seed", 1.5), ("jobs", "2")])
    def test_non_integer_counts_refused(self, tmp_path, field, value):
        # jobs 2.5 once raised TypeError in range(), and seed 1.5 ran as seed 1;
        # a day's seed is read by sample_noise, which draws its noise
        message = f"^{field} must be an integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            ch.sample_noise(value) if field == "seed" else gribik_config(tmp_path, jobs=value)

    @pytest.mark.parametrize("field, value", [("seed", False), ("jobs", True)])
    def test_bool_counts_refused(self, tmp_path, field, value):
        # bool is an int subclass; True once ran as one job and False as seed 0
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            ch.sample_noise(value) if field == "seed" else gribik_config(tmp_path, jobs=value)

    @pytest.mark.parametrize("fields, message", [
        (dict(method="chp-exact"), "method must be one of ('chp_subgradient', "
                                   "'chp_exact', 'lmp', 'dispatchable'), got chp-exact"),
        (dict(jobs=0), "jobs must be >= 1, got 0"),
        (dict(method="chp_subgradient"), "chp_subgradient needs a PriceLoop"),
        # a float step once reached the price loop, to fail there as TypeError
        (dict(method="chp_subgradient", loop=0.1), "loop must be None or a PriceLoop, got 0.1"),
        (dict(model={"a": 455.0}), "model must be a DemandModel, got {'a': 455.0}"),
        (dict(model=None), "model must be a DemandModel, got None"),
        # a closed-form day's start price, rounds and step were once kept unread
        (dict(loop=ch.PriceLoop(100.0, 1, ch.HarmonicStep(0.1))),
         "chp_exact is closed-form and takes no PriceLoop"),
        # the fleet, the day and out_dir once failed late, as raw TypeError
        # (out_dir=None after the whole day was priced)
        (dict(fleet=None), "fleet must be a Fleet, got None"),
        (dict(fleet="gribik"), "fleet must be a Fleet, got 'gribik'"),
        (dict(profile=(1.0, 2.0)), "profile must be a DayProfile, got (1.0, 2.0)"),
        (dict(out_dir=None), "out_dir must be a str or os.PathLike, got None"),
    ])
    def test_config_refusals(self, tmp_path, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gribik_config(tmp_path, **fields)

    def test_no_noise_is_the_noise_free_day(self, tmp_path):
        # run prices the bundled day with the seed's noise, or with none
        base = ch.default_profile().base_demand
        for flags, noise in ((("--seed", "3"), ch.sample_noise(3)),
                             (("--no-noise",), (0.0,) * 24)):
            cli_out, config_out = tmp_path / "cli" / flags[0], tmp_path / "config" / flags[0]
            assert run_cli("run", "--fleet", "gribik", "--method", "chp-exact", *flags,
                           "--out", str(cli_out)) == 0
            cli.run_experiment(gribik_config(config_out, profile=ch.DayProfile(base, noise)))
            for name in ("hours.csv", "summary.csv"):
                assert (cli_out / name).read_bytes() == (config_out / name).read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (("run", "--method", "chp-subgradient", "--a", "0", "--nu", "0.01",
          "--step", "c/k:0.1"), "a must be > 0, got 0.0"),
        (("run", "--method", "chp-subgradient", "--a", "1", "--nu", "nan",
          "--step", "c/k:0.1"), "nu must be finite, got nan"),
        (("run", "--method", "chp-subgradient", "--a", "1", "--nu", "0.01",
          "--step", "c/k:-3"), "step coefficient must be finite and > 0, got -3.0"),
        (("curves", "--a", "0", "--nu", "0.01"), "a must be > 0, got 0.0")])
    def test_bad_model_refused_before_the_fleet_file(self, tmp_path, capsys, flags, message):
        # the DemandModel and the PriceLoop are built first, so their values
        # are refused before the fleet file is read (once: No such file)
        assert run_cli(*flags, "--fleet", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_uplift_rule_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("uplift-curve", "--fleet", "gribik", "--rule", "other",
                    "--out", str(tmp_path))

    def test_unknown_uplift_rule_writes_nothing(self, gribik, tmp_path):
        with pytest.raises(ValueError, match=re.escape(
                "rule must be one of ('chp', 'dispatchable'), got other")):
            cli.emit_uplift_curves(gribik, "other", 1.0, tmp_path / "out")
        assert not (tmp_path / "out").exists()


def gribik_config(tmp_path, **fields):
    """A closed-form gribik day's ExperimentConfig with the given fields: the
    bundled day without noise, unless a profile is given."""
    return cli.ExperimentConfig(**{"fleet": ch.builtin_fleet("gribik"), "method": "chp_exact",
                                   "out_dir": str(tmp_path), "model": fixture_model("gribik"),
                                   "profile": ch.default_profile(), **fields})


GOLDEN = Path(__file__).resolve().parent / "data" / "cli"


def golden_cases():
    return json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the golden bytes are Python 3.11's argparse formatting")
@pytest.mark.parametrize("case", golden_cases(), ids=lambda case: case["name"])
def test_help_and_usage_errors_are_golden(case, capsys, monkeypatch):
    """--help and usage errors: the bytes of the hand-written argparse parser
    that the option table replaced, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert done.value.code == case["code"]
    assert {"stdout": out, "stderr": err} == {
        "stdout": "", "stderr": "", case["stream"]: (GOLDEN / f"{case['name']}.txt").read_text()}


class _Unknown:
    """A value this file computes at run time, such as a path under tmp_path."""

    def __str__(self):
        return "tmp/out"

    def __call__(self, *args, **kwargs):
        return self

    __truediv__ = __getattr__ = __call__


class _Names(dict):
    def __missing__(self, name):
        return str if name == "str" else _Unknown()


def _evaluate(node, names):
    """The expression's value from the bound names, else an _Unknown."""
    code = compile(ast.fix_missing_locations(ast.Expression(node)), "<test_cli>", "eval")
    try:
        return eval(code, {"__builtins__": {"str": str}}, names)
    except Exception:  # any expression over run-time values, say a subscript
        return _Unknown()


def _bindings(function):
    """One name -> value binding per parametrized case and loop pass of the function."""
    marks = []
    for mark in function.decorator_list:
        if isinstance(mark, ast.Call) and ast.unparse(mark.func) == "pytest.mark.parametrize":
            names = [name.strip() for name in ast.literal_eval(mark.args[0]).split(",")]
            rows = _evaluate(mark.args[1], _Names())
            marks.append([dict(zip(names, row if len(names) > 1 else (row,)))
                          for row in ([] if isinstance(rows, _Unknown) else rows)])
    for loop in ast.walk(function):
        if isinstance(loop, ast.For):
            names = [name.id for name in ast.walk(loop.target) if isinstance(name, ast.Name)]
            values = _evaluate(loop.iter, _Names())
            if not isinstance(values, _Unknown):
                marks.append([dict(zip(names, value if len(names) > 1 else (value,)))
                              for value in values])
    return [dict(kv for row in rows for kv in row.items())
            for rows in itertools.product(*marks)]


@functools.cache
def command_lines_of_this_file():
    """Every run_cli argv of this file, one per parametrized case.

    Parametrize values, class attributes and the test's own assignments are
    bound by name; anything else (a path under tmp_path) reads 'tmp/out'.
    """
    tree = ast.parse(Path(__file__).read_text())
    scopes = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    scopes += [(globals()[cls.name], node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)]
    argvs = []
    for cls, function in scopes:
        nodes = sorted((node for node in ast.walk(function) if hasattr(node, "lineno")),
                       key=lambda node: (node.lineno, node.col_offset))
        for row in _bindings(function):
            names = _Names(row, self=cls)
            for node in nodes:
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    names[node.targets[0].id] = _evaluate(node.value, names)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "run_cli":
                    argv = _evaluate(ast.Tuple(node.args, ast.Load()), names)
                    argvs.append([str(token) for token in argv])
    return argvs


def workload_command_lines(tmp_path):
    """The argv of every benchmark workload command at two seeds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # its dataclass looks itself up there
    return [command.argv(tmp_path / command.label)
            for name in workloads.WORKLOADS for seed in (0, 3)
            for command in workloads.build(name, seed, tmp_path)]


@pytest.fixture(scope="module")
def argparse_parser():
    return cli.build_parser()


def argparse_vars(parser, argv):
    """vars() of argparse's namespace, each value's repr; None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit:
            return None
    return {key: repr(value) for key, value in vars(namespace).items()}


def exact_vars(argv):
    namespace = cli._parse_exact(argv)
    if namespace is None:
        return None
    return {key: repr(value) for key, value in vars(namespace).items()}


class TestExactParser:
    """cli._parse_exact against argparse built from the same option table."""

    def test_corpus_parses_as_argparse_does(self, argparse_parser, tmp_path):
        corpus = command_lines_of_this_file() + workload_command_lines(tmp_path)
        outcomes = [(exact_vars(argv), argparse_vars(argparse_parser, argv))
                    for argv in corpus]
        assert [argv for argv, (fast, slow) in zip(corpus, outcomes) if fast != slow] == []
        # the file's two usage errors (--method magic, --rule other) and
        # the one exclusive pair; everything else is well-formed
        assert sum(fast is None for fast, _ in outcomes) == 3
        assert len(corpus) > 100

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_perturbed_argv_is_refused_or_agrees(self, argparse_parser, data):
        argv = list(data.draw(st.sampled_from(command_lines_of_this_file())))
        for _ in range(data.draw(st.integers(1, 3))):
            argv = data.draw(st.sampled_from(PERTURBATIONS))(argv, data)
        fast = exact_vars(argv)
        if fast is not None:
            assert fast == argparse_vars(argparse_parser, argv), argv


def _flag_at(argv, data):
    """The index of one flag token of argv, or None."""
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    return data.draw(st.sampled_from(flags)) if flags else None


def _abbreviate(argv, data):
    i = _flag_at(argv, data)
    if i is not None:
        argv[i] = argv[i][:data.draw(st.integers(2, max(2, len(argv[i]) - 1)))]
    return argv


def _join_value(argv, data):
    i = _flag_at(argv, data)
    if i is not None and i + 1 < len(argv):
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


def _repeat(argv, data):
    i = _flag_at(argv, data)
    return argv if i is None else argv + argv[i:i + 2]


def _drop(argv, data):
    i = _flag_at(argv, data)
    if i is not None:
        del argv[i:i + data.draw(st.integers(1, 2))]
    return argv


def _insert(argv, data):
    token = data.draw(st.sampled_from(["--", "-h", "--help", "-x", "stray"]))
    argv.insert(data.draw(st.integers(0, len(argv))), token)
    return argv


def _replace_value(argv, data):
    i = _flag_at(argv, data)
    if i is not None and i + 1 < len(argv):
        argv[i + 1] = data.draw(st.sampled_from(
            ["-1", "-0.5", "-", "-x", "--", "abc", "1e5", "nan", "", " 7", "xyz",
             "chp", "lmp", "chp-exact", "dispatchable", "3", "0x10", "1_0"])
            | st.text(max_size=4))
    return argv


def _move_to_end(argv, data):
    # argparse takes options in any order
    i = _flag_at(argv, data)
    if i is None:
        return argv
    pair = argv[i:i + 2] if i + 1 < len(argv) and not argv[i + 1].startswith("-") else argv[i:i + 1]
    return argv[:i] + argv[i + len(pair):] + pair


def _both_exclusive(argv, data):
    return argv + ["--profile", "day.csv", "--synthetic", "1,2,3"]


def _replace_command(argv, data):
    command = data.draw(st.sampled_from(["price", "Run", "curve", "uplift", "-h", ""]))
    return [command] + argv[1:]


def _empty(argv, data):
    return []


PERTURBATIONS = [_abbreviate, _join_value, _repeat, _drop, _insert, _replace_value,
                 _move_to_end, _both_exclusive, _replace_command, _empty]
