#!/usr/bin/env python3
"""Compare the benchmark workloads' CSV outputs of two source trees.

Usage (from anywhere):

    python3 scripts/compare_outputs.py TREE_A TREE_B

Each tree is a checkout of this repository.  For every workload in the
tree's ``perfbench/workloads.py`` at seeds 0 and 3, every command that
``workloads.build`` returns runs in a fresh interpreter against the
tree's own ``src/``, through ``chpricing.cli.main``, started by
bench_pairs.py's ``run_child`` with bytecode off.  The two trees' CSV
files are then compared: the script prints how many files are identical
and how many differ, and for every (workload, command, file, column)
that moved, the number of moved cells, the largest |a - b|, and the
largest |a - b| / max(1, |a|).  The wall-clock column ``elapsed_s`` of
trace.csv is left out of every comparison.  perfbench is only imported,
and only the standard library is used.  Exits 1 when a command fails or any file differs.
"""
from __future__ import annotations

import csv
import importlib.util
import math
import sys
import tempfile
from pathlib import Path

# the directory holding bench_pairs.py, which a caller loading this file by
# its path has not put on sys.path
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import run_child  # noqa: E402

SEEDS = (0, 3)
SKIPPED_COLUMNS = ("elapsed_s",)
# the CLI's entry point; "-m chpricing.cli" would warn that the package
# has already imported the module it runs
CLI_CODE = "import sys, chpricing.cli; sys.exit(chpricing.cli.main(sys.argv[1:]))"


def _load_workloads(tree: Path, name: str):
    spec = importlib.util.spec_from_file_location(
        name, tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up here while the class is built
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_tree(tree: Path, out: Path, name: str) -> None:
    """Run every workload command of ``tree`` at every seed, outputs under ``out``."""
    workloads = _load_workloads(tree, name)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            work = out / workload / str(seed)
            work.mkdir(parents=True)
            for command in workloads.build(workload, seed, work):
                run_child(tree, "-c", CLI_CODE, *command.argv(work / command.label))


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, column in enumerate(rows[0]) if column not in SKIPPED_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def _delta(a: str, b: str) -> tuple[float, float]:
    """(|a - b|, |a - b| / max(1, |a|)) of two differing cells; inf if not numeric."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, math.inf
    diff = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
    return diff, diff / max(1.0, abs(x))


def compare(out_a: Path, out_b: Path) -> tuple[int, list[str], dict]:
    """(identical file count, differing files, moved-cell stats per column key).

    A column key is (workload, command, file, column); its stats are
    [moved cells, max |a - b|, max relative difference].  A file whose
    header or row count differs is listed under the column "(shape)".
    """
    identical = 0
    differing = []
    moved: dict[tuple[str, str, str, str], list] = {}
    names = sorted({p.relative_to(out_a) for p in out_a.rglob("*.csv")}
                   | {p.relative_to(out_b) for p in out_b.rglob("*.csv")})
    for name in names:
        workload, _seed, command = name.parts[:3]
        path_a, path_b = out_a / name, out_b / name
        rows_a = _read(path_a) if path_a.exists() else []
        rows_b = _read(path_b) if path_b.exists() else []
        if rows_a == rows_b:
            identical += 1
            continue
        differing.append(str(name))
        if len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]:
            moved.setdefault((workload, command, name.name, "(shape)"),
                             [0, math.inf, math.inf])[0] += 1
            continue
        header = rows_a[0]
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            for column, a, b in zip(header, row_a, row_b):
                if a == b:
                    continue
                stats = moved.setdefault((workload, command, name.name, column),
                                         [0, 0.0, 0.0])
                diff, rel = _delta(a, b)
                stats[0] += 1
                stats[1] = max(stats[1], diff)
                stats[2] = max(stats[2], rel)
    return identical, differing, moved


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        outs = [Path(scratch) / side for side in ("a", "b")]
        for tree, out, side in zip(trees, outs, ("a", "b")):
            run_tree(tree, out, f"workloads_{side}")
        identical, differing, moved = compare(*outs)
    print(f"identical files: {identical}")
    print(f"differing files: {len(differing)}")
    for name in differing:
        print(f"  {name}")
    if moved:
        print("workload,command,file,column,moved_cells,max_abs_delta,max_rel_delta")
        for key, (cells, diff, rel) in sorted(moved.items()):
            print(",".join(key) + f",{cells},{diff:.3g},{rel:.3g}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
