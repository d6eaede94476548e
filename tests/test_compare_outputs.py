"""The byte-identity gate: compare() of scripts/compare_outputs.py on small
CSV trees laid out as the script lays out its runs
(workload/seed/command/file.csv)."""
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def write_tree(root, files):
    for name, rows in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(",".join(row) + "\n" for row in rows))


SUMMARY = [["method", "total"], ["chp", "12.5"]]
TRACE = [["round", "price", "elapsed_s"], ["1", "90.0", "0.013"], ["2", "95.0", "0.021"]]
HOURS = [["t", "price", "label"], ["0", "100.0", "x"], ["1", "0.5", "x"], ["2", "7.0", "x"]]


def test_identical_trees(compare, tmp_path):
    files = {"days/0/run-a/summary.csv": SUMMARY, "days/3/run-a/trace.csv": TRACE}
    write_tree(tmp_path / "a", files)
    write_tree(tmp_path / "b", files)
    assert compare(tmp_path / "a", tmp_path / "b") == (2, [], {})


def test_elapsed_column_is_skipped(compare, tmp_path):
    write_tree(tmp_path / "a", {"days/0/run-a/trace.csv": TRACE})
    slower = [row[:2] + ["9.9"] for row in TRACE[1:]]
    write_tree(tmp_path / "b", {"days/0/run-a/trace.csv": [TRACE[0]] + slower})
    assert compare(tmp_path / "a", tmp_path / "b") == (1, [], {})


def test_moved_cells_with_absolute_and_relative_deltas(compare, tmp_path):
    write_tree(tmp_path / "a", {"days/0/run-a/hours.csv": HOURS,
                                "days/0/run-a/summary.csv": SUMMARY})
    # 100 -> 101 moves 1 MW-$ (1% of 100); 0.5 -> 0.7 moves 0.2, relative to 1
    moved = [HOURS[0], ["0", "101.0", "x"], ["1", "0.7", "x"], ["2", "7.0", "y"]]
    write_tree(tmp_path / "b", {"days/0/run-a/hours.csv": moved,
                                "days/0/run-a/summary.csv": SUMMARY})
    identical, differing, stats = compare(tmp_path / "a", tmp_path / "b")
    assert (identical, differing) == (1, [str(Path("days/0/run-a/hours.csv"))])
    assert set(stats) == {("days", "run-a", "hours.csv", "price"),
                          ("days", "run-a", "hours.csv", "label")}
    cells, diff, rel = stats["days", "run-a", "hours.csv", "price"]
    assert cells == 2
    assert diff == pytest.approx(1.0)
    assert rel == pytest.approx(0.2)
    # a cell that is not a number moves by an unbounded amount
    assert stats["days", "run-a", "hours.csv", "label"] == [1, math.inf, math.inf]


def test_shape_mismatch(compare, tmp_path):
    write_tree(tmp_path / "a", {"days/0/run-a/hours.csv": HOURS,
                                "days/0/run-b/trace.csv": TRACE})
    # one row short, and one file missing from the second tree
    write_tree(tmp_path / "b", {"days/0/run-a/hours.csv": HOURS[:-1]})
    identical, differing, stats = compare(tmp_path / "a", tmp_path / "b")
    assert identical == 0
    assert sorted(differing) == sorted(str(Path(name)) for name in (
        "days/0/run-a/hours.csv", "days/0/run-b/trace.csv"))
    assert stats == {("days", "run-a", "hours.csv", "(shape)"): [1, math.inf, math.inf],
                     ("days", "run-b", "trace.csv", "(shape)"): [1, math.inf, math.inf]}
