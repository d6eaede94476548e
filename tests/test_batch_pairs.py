"""scripts/batch_pairs.py and scripts/size_report.py --against, end to end,
each with one tree against itself."""
import ast
import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import chpricing
from test_setup_pairs import load_bench_pairs, source_tree

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def record_fields():
    """Each public NamedTuple record's fields, by its annotations."""
    return {name: len(obj.__annotations__) for name, obj in
            ((name, getattr(chpricing, name)) for name in chpricing.__all__)
            if isinstance(obj, type) and issubclass(obj, tuple)}


def settable_values():
    """The parameters of chpricing's public functions, read off their code
    objects (under any decorator), plus the fields of its public dataclasses
    and NamedTuple records."""
    count = sum(record_fields().values())
    for name in chpricing.__all__:
        obj = getattr(chpricing, name)
        if dataclasses.is_dataclass(obj):
            count += len(dataclasses.fields(obj))
        elif callable(obj) and not isinstance(obj, type):
            code = inspect.unwrap(obj).__code__
            star = bool(code.co_flags & inspect.CO_VARARGS)
            star_star = bool(code.co_flags & inspect.CO_VARKEYWORDS)
            count += code.co_argcount + code.co_kwonlyargcount + star + star_star
    return count


def test_batch_pairs_times_the_wide_fleet_batches(tmp_path):
    tree = source_tree(tmp_path / "tree")
    out = tmp_path / "batches.json"
    done = run_script("batch_pairs.py", tree, tree, "--workload", "wide-fleet",
                      "--pairs", "2", "--repeats", "1", "--out", out)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["host"]["bytecode_writes"] == "off"
    # one uplift batch per day: the hours' 24 demands
    assert [batch["size"] for batch in record["batches"]] == [24, 24]
    # and one price_hours call per day, all 24 hours of a closed-form method
    days = record["price_hours"]
    assert [(d["method"], d["hours"], d["n_iters"]) for d in days] == [
        ("chp_exact", 24, None), ("dispatchable", 24, None)]
    assert [d["figure"] for d in days] == ["wide-fleet/run-wide-chp-exact price_hours",
                                           "wide-fleet/run-wide-dispatchable price_hours"]
    figures = [item["figure"] for item in record["batches"] + days]
    assert sorted(record["summary"]) == sorted(figures)
    for side in ("parent", "changed"):
        samples = record["samples"][side]
        assert [s["pair"] for s in samples] == [0, 1]
        assert all(s["metrics"][figure] > 0 for s in samples for figure in figures)
    for figure in figures:
        assert figure in done.stdout
    assert not (tree / "src" / "chpricing" / "__pycache__").exists()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads are read in /proc")
def test_timing_child_runs_one_blas_thread(tmp_path, monkeypatch):
    # as every command does; importing numpy before chpricing ran OpenBLAS's pool
    bench_pairs = load_bench_pairs()
    for name in bench_pairs.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    script = ast.parse((ROOT / "scripts" / "batch_pairs.py").read_text())
    time_code = next(ast.literal_eval(node.value) for node in script.body
                     if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "TIME_CODE")
    captured = tmp_path / "captured.json"
    captured.write_text(json.dumps({"batches": [], "days": []}))
    code = time_code + "import os; print(len(os.listdir('/proc/self/task')))\n"
    stdout, _wall, _cpu = bench_pairs.run_child(ROOT, "-c", code, captured, 1)
    assert stdout.splitlines() == ['{"batches": [], "days": []}', "1"]


def report_lines(stdout):
    """size_report.py's lines on the public names, by their label."""
    labels = ("chpricing.__all__", "added", "removed", "moved", "settable values")
    return dict(line.split(": ", 1) for line in stdout.splitlines()
                if line.startswith(labels))


def test_size_report_against_a_tree(tmp_path):
    tree = source_tree(tmp_path / "tree")
    done = run_script("size_report.py", tree, "--against", tree, "--repeats", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    total = next(line.split() for line in lines if line.startswith("total"))
    assert total[1] == total[3]  # the same lines on both sides
    assert "package compile over 2 alternated repetitions: least" in done.stdout
    names = len(chpricing.__all__)
    # each public function's parameters plus each public dataclass's fields
    values = settable_values()
    assert report_lines(done.stdout) == {
        "chpricing.__all__": f"{names} names (parent {names})",
        "added": "none", "removed": "none", "moved": "none",
        "settable values": f"{values} (parent {values})"}
    # the records count too (once read as 0)
    assert record_fields() == {"HullPoint": 4, "PricedHours": 11, "Dispatch": 4,
                               "BestResponse": 4, "HourResult": 9, "DaySummary": 9}
    # a copy whose welfare module no longer exports summarize_day, whose
    # settle_hour takes one more parameter and whose HullPoint record has
    # one more field
    dropped = source_tree(tmp_path / "dropped")
    welfare = dropped / "src" / "chpricing" / "welfare.py"
    text = welfare.read_text()
    assert text.count(', "summarize_day"]') == text.count("price: float) -> HourResult:") == 1
    welfare.write_text(text.replace(', "summarize_day"]', "]").replace(
        "price: float) -> HourResult:", "price: float, extra=None) -> HourResult:"))
    hull = dropped / "src" / "chpricing" / "hull.py"
    text = hull.read_text()
    assert text.count("    hull_value: float  # $\n") == 1
    hull.write_text(text.replace("    hull_value: float  # $\n",
                                 "    hull_value: float  # $\n    extra: float\n"))
    less = values - len(inspect.signature(chpricing.summarize_day).parameters) + 2
    settle = len(inspect.signature(chpricing.settle_hour).parameters)
    point = len(chpricing.HullPoint._fields)
    for changed, parent, added, removed, moved, counts in (
            (dropped, tree, "none", "summarize_day",
             f"HullPoint {point} -> {point + 1}, settle_hour {settle} -> {settle + 1}",
             (names - 1, names, less, values)),
            (tree, dropped, "summarize_day", "none",
             f"HullPoint {point + 1} -> {point}, settle_hour {settle + 1} -> {settle}",
             (names, names - 1, values, less))):
        done = run_script("size_report.py", changed, "--against", parent, "--repeats", "1")
        assert done.returncode == 0, done.stderr
        assert report_lines(done.stdout) == {
            "chpricing.__all__": "{} names (parent {})".format(*counts[:2]),
            "added": added, "removed": removed, "moved": moved,
            "settable values": "{} (parent {})".format(*counts[2:])}
    # one tree: its counts alone
    done = run_script("size_report.py", tree, "--repeats", "1")
    assert done.returncode == 0, done.stderr
    assert report_lines(done.stdout) == {"chpricing.__all__": f"{names} names",
                                         "settable values": str(values)}
