"""Self-tests of the benchmark: exact trace counts, repeatable traces, checks.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent

TINY = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {here!r})
import chpricing, tracing
tracer = tracing.Tracer()
tracer.install()
gribik = chpricing.builtin_fleet("gribik")
chpricing.ucp_value(gribik, 150.0)
chpricing.hull.uplift(gribik, 95.0, 450.0)
chpricing.hull.bisect_first_true(lambda x: x >= 0.5, 0.0, 1.0, 0.25)
tracer.write({out!r})
"""


def _spans(path: Path) -> tracing.SpanTotals:
    totals = tracing.SpanTotals()
    totals.add_file(path)
    return totals


def test_tiny_input_counts_are_exact(tmp_path):
    out = tmp_path / "tiny.npz"
    script = TINY.format(src=str(run.SRC), here=str(HERE), out=str(out))
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
    spans = _spans(out)
    # every gribik unit reaches 200 MW, so 150 MW has 7 feasible commitments
    # and 450 MW only one; uplift's ucp_value is counted once, not per binding
    assert spans.calls["ucp.ucp_value"] == 2
    assert spans.calls["ucp.dispatch_committed"] == 8
    assert spans.calls["hull.uplift"] == 1
    assert spans.calls["ucp.conjugate"] == 1
    assert spans.calls["hull.bisect_first_true"] == 1
    # pred(0) false, then midpoints 0.5 (true) and 0.25 (false)
    assert spans.bisect_evals == 3
    assert sum(spans.calls.values()) == 13
    for name in spans.calls:
        assert -1e-6 <= spans.self_s[name] <= spans.total_s[name] + 1e-9


def test_two_traced_runs_count_the_same(tmp_path):
    cmd = next(c for c in workloads.build("crossing-curves", 3, tmp_path)
               if c.label == "run-gribik-dispatchable")
    counts = []
    for i in range(2):
        pass_dir = tmp_path / f"pass{i}"
        pass_dir.mkdir()
        res = run.run_command(cmd, pass_dir, trace=True)
        assert res.problems == []
        counts.append(_spans(pass_dir / f"{cmd.label}.npz").calls)
    assert counts[0] == counts[1]
    assert counts[0]["pricing.dispatchable_equilibrium"] == 24
    assert counts[0]["welfare.settle_hour"] == 24


@pytest.fixture(scope="module")
def scarf_exact(tmp_path_factory):
    """run-scarf-chp-exact at the reference seed, and its reference directory."""
    work = tmp_path_factory.mktemp("scarf")
    cmd = next(c for c in workloads.build("iterative-days", run.REFERENCE_SEED, work)
               if c.label == "run-scarf-chp-exact")
    res = run.run_command(cmd, work, trace=False)
    assert res.problems == []
    return cmd, work / cmd.label, run.REFERENCE_DIR / "iterative-days" / cmd.label


def _edit_hours(src: Path, dest: Path, column: str, edit) -> None:
    shutil.copytree(src, dest)
    header, rows = checks.read_csv(dest / "hours.csv")
    j = header.index(column)
    for row in rows:
        row[j] = edit(row[j])
    (dest / "hours.csv").write_text(
        "\n".join(",".join(r) for r in [header] + rows) + "\n")


def test_reference_matches_at_this_commit(scarf_exact):
    cmd, out, ref = scarf_exact
    assert checks.compare_reference(cmd, out, ref) == []


def test_reference_admits_exact_prices(scarf_exact, tmp_path):
    # a bisected 6.312500000931 becoming exactly 6.3125 is not a failure
    cmd, out, ref = scarf_exact
    edited = tmp_path / "exact"
    _edit_hours(out, edited, "price", lambda p: repr(float(p) - 1e-9))
    assert checks.compare_reference(cmd, edited, ref) == []


def test_reference_catches_a_wrong_cost(scarf_exact, tmp_path):
    # v(y) missing one HighTech startup ($30) in every hour
    cmd, out, ref = scarf_exact
    edited = tmp_path / "wrong"
    _edit_hours(out, edited, "cost", lambda c: repr(float(c) - 30.0))
    problems = checks.compare_reference(cmd, edited, ref)
    assert any("hours.csv:cost" in p for p in problems)


def test_checks_catch_a_broken_identity(scarf_exact, tmp_path):
    cmd, out, _ref = scarf_exact
    edited = tmp_path / "identity"
    _edit_hours(out, edited, "welfare", lambda w: repr(float(w) + 1.0))
    assert any("welfare = gross - cost" in p for p in checks.check_command(cmd, edited))


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_wide_fleet_shape_is_fixed(seed):
    doc = workloads.wide_fleet_document(seed)
    assert math.prod(t["unit_count"] + 1 for t in doc["types"]) == 4096
    assert workloads.wide_fleet_document(seed) == doc
    for t in doc["types"]:
        assert 0 <= t["min_output"] <= t["segments"][0]["capacity"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
