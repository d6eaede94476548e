#!/usr/bin/env python3
"""Paired set-up timings of two source trees: wall and CPU time of fresh interpreters.

Usage (from anywhere):

    python3 scripts/setup_pairs.py PARENT_TREE CHANGED_TREE [--pairs 10] --out FILE

Each tree is a checkout of this repository.  A run is one fresh
interpreter that does what ``perfbench/child.py`` does before its
command starts: ``import chpricing``, ``import chpricing.cli`` and build
a builtin fleet, importing the tree's own ``src/``.  Runs are paired,
alternated and run one child at a time, from bench_pairs.py's copies of
the trees and by its ``run_child``: with bytecode off and no cache
prefix, so every run compiles the package, as a command in a fresh
checkout does.  The ``host`` block is bench_pairs.py's.

A run's wall time is taken around its child process, and its CPU time
is the child's user plus system time.  CPU time does not count the time
a child waits for the processor, so it moves less than wall time with
the host's load.  FILE gets every run and, per figure, each side's
median and quartiles and the pairs each side won (lower is better; ties
count for neither), with bench_pairs.py's ``gain`` rule.  Only the
standard library is used.  Exits 1 when a child fails.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_pairs import copied_trees, parse_pairs, record_head, run_child, run_pairs, summarize

SETUP_CODE = "import chpricing, chpricing.cli; chpricing.builtin_fleet('gribik')"


def run_once(tree: Path) -> dict:
    """Wall and CPU seconds of one fresh interpreter's set-up from ``tree``."""
    _stdout, wall, cpu = run_child(tree, "-c", SETUP_CODE)
    return {"metrics": {"wall_s": wall, "cpu_s": cpu}}


def main(argv: list[str] | None = None) -> int:
    args = parse_pairs(argparse.ArgumentParser(description=__doc__.splitlines()[0]),
                       argv, least=2)
    with copied_trees(args.parent, args.changed) as trees:
        runs = run_pairs(trees, args.pairs, run_once, lambda run: ", ".join(
            f"{k} {v:.4f}" for k, v in run["metrics"].items()))
    summary = summarize(runs, {"wall_s": "lower", "cpu_s": "lower"})
    for name, s in summary.items():
        print(f"{name}: parent {s['parent']['median']:.4f} changed "
              f"{s['changed']['median']:.4f}, changed better in "
              f"{s['changed_wins']}/{args.pairs}, parent in {s['parent_wins']}")
    record = {**record_head(args), "code": SETUP_CODE, "runs": args.pairs,
              "summary": summary, "samples": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
