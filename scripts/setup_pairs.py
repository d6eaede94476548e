#!/usr/bin/env python3
"""Paired set-up timings of two source trees: wall and CPU time of fresh interpreters.

Usage (from anywhere):

    python3 scripts/setup_pairs.py PARENT_TREE CHANGED_TREE --runs N --out FILE

Each tree is a checkout of this repository.  A run is one fresh
interpreter that does what ``perfbench/child.py`` does before its
command starts: ``import chpricing``, ``import chpricing.cli`` and build
a builtin fleet, importing the tree's own ``src/``.  Runs are paired,
alternated and run one child at a time, with bytecode off and no cache
prefix, as bench_pairs.py runs them: every run compiles the package, as
a command in a fresh checkout does, and a tree with a
``src/chpricing/__pycache__`` is refused.  The ``host`` block is
bench_pairs.py's.

A run's wall time is taken around its child process; its CPU time is
the child's user plus system time, the change in this process's
RUSAGE_CHILDREN over the run.  CPU time does not count the time a child
waits for the processor, so it moves less than wall time with the
host's load.  FILE gets every run and, per figure, each side's median
and quartiles and the pairs each side won (lower is better; ties count
for neither), with bench_pairs.py's ``gain`` rule.  Only the standard
library is used.  Exits 1 when a child fails.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import child_env, host, resolve_trees, run_pairs, summarize

SETUP_CODE = "import chpricing, chpricing.cli; chpricing.builtin_fleet('gribik')"


def cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path) -> dict:
    """Wall and CPU seconds of one fresh interpreter's set-up from ``tree``."""
    cpu = cpu_children()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          env=child_env(PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{tree}: set-up exited {done.returncode}:\n{done.stderr}")
    return {"metrics": {"wall_s": wall, "cpu_s": cpu_children() - cpu}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("changed", type=Path)
    parser.add_argument("--runs", type=int, required=True,
                        help="pairs to run (each tree runs this many times)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    trees = resolve_trees(args.parent, args.changed)
    runs = run_pairs(trees, args.runs, run_once,
                     lambda run: ", ".join(f"{k} {v:.4f}" for k, v in run["metrics"].items()))
    summary = summarize(runs, {"wall_s": "lower", "cpu_s": "lower"})
    for name, s in summary.items():
        print(f"{name}: parent {s['parent']['median']:.4f} changed "
              f"{s['changed']['median']:.4f}, changed better in "
              f"{s['changed_wins']}/{args.runs}, parent in {s['parent_wins']}")
    record = {
        "host": host(),
        "trees": {side: tree.name for side, tree in trees.items()},
        "code": SETUP_CODE,
        "runs": args.runs,
        "summary": summary,
        "samples": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
