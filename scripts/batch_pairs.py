#!/usr/bin/env python3
"""Paired in-process timings of every v(y) batch the benchmark's commands make.

Usage (from anywhere):

    python3 scripts/batch_pairs.py PARENT_TREE CHANGED_TREE --out FILE \
        [--workload W ...] [--pairs 10] [--repeats 5] [--seed 1]

Each tree is a checkout of this repository.  The workloads (default:
all three) are those of ``perfbench/workloads.py`` in the repository
holding this script, built for the seed.

Capture: each command runs once, in a fresh interpreter importing
PARENT_TREE's ``src/``, with ``chpricing.ucp.ucp_values`` wrapped in
every chpricing module that binds it.  Each call's fleet (as
``dump_fleet`` writes it) and demands are kept; JSON floats round-trip
exactly, so the batches are the calls' own.

Timing: a run is one fresh interpreter importing one tree's ``src/``.
For every captured batch it calls ``ucp_values`` once, which builds the
fleet's commitment table, then times ``--repeats`` more calls and keeps
the least.  Runs are paired, alternated and run one child at a time,
with bytecode off, by bench_pairs.py's ``run_pairs``; a tree with a
``src/chpricing/__pycache__`` is refused.

A run's figure per (command, batch size) is the sum of its batches'
times.  FILE gets the captured batches' sizes, every run, and per
figure each side's median and quartiles over the pairs and the pairs
each side won (lower is better), with bench_pairs.py's ``gain`` rule.
Only the standard library is used here; the children use numpy.  Exits
1 when a child fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import child_env, host, resolve_trees, run_pairs, summarize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as benchmark  # noqa: E402  (perfbench is not a package)

# argv: OUT_JSON CLI_ARGS...; writes [[fleet document, demands], ...]
CAPTURE_CODE = r"""
import json, sys
import chpricing, chpricing.cli
from chpricing import ucp

batches = []
original = ucp.ucp_values

def spy(fleet, demands):
    values = original(fleet, demands)
    batches.append([chpricing.dump_fleet(fleet),
                    [float(y) for y in (demands.tolist() if hasattr(demands, "tolist")
                                        else demands)]])
    return values

for name, module in list(sys.modules.items()):
    if name == "chpricing" or name.startswith("chpricing."):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, spy)
code = chpricing.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump(batches, out)
sys.exit(code)
"""

# argv: BATCHES_JSON REPEATS; prints the least time of each batch, in order
TIME_CODE = r"""
import json, sys, time
import numpy as np
import chpricing
from chpricing import ucp

with open(sys.argv[1]) as source:
    batches = json.load(source)
fleets = {}
times = []
for document, demands in batches:
    if document not in fleets:
        fleets[document] = chpricing.load_fleet(document)
    fleet, ys = fleets[document], np.array(demands)
    ucp.ucp_values(fleet, ys)
    best = float("inf")
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        ucp.ucp_values(fleet, ys)
        best = min(best, time.perf_counter() - start)
    times.append(best)
print(json.dumps(times))
"""


def capture(tree: Path, workloads: list[str], seed: int, work: Path) -> list[dict]:
    """Every ucp_values batch of the workloads' commands, run from ``tree``."""
    batches = []
    for workload in workloads:
        for command in benchmark.build(workload, seed, work):
            out = work / f"{command.label}.json"
            done = subprocess.run(
                [sys.executable, "-c", CAPTURE_CODE, str(out),
                 *command.argv(work / command.label)],
                env=child_env(PYTHONPATH=str(tree / "src")), capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{tree}: {command.label} exited {done.returncode}:\n"
                                 f"{done.stderr}")
            for document, demands in json.loads(out.read_text()):
                batches.append({"workload": workload, "command": command.label,
                                "fleet": document, "demands": demands})
    return batches


def figure(batch: dict) -> str:
    return f"{batch['workload']}/{batch['command']} n={len(batch['demands'])}"


def time_once(tree: Path, batches_file: Path, names: list[str], repeats: int) -> dict:
    """One run: each figure's summed least time over its batches, from ``tree``."""
    done = subprocess.run([sys.executable, "-c", TIME_CODE, str(batches_file), str(repeats)],
                          env=child_env(PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: timing exited {done.returncode}:\n{done.stderr}")
    metrics = dict.fromkeys(names, 0.0)
    for name, seconds in zip(names, json.loads(done.stdout)):
        metrics[name] += seconds
    return {"metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("changed", type=Path)
    parser.add_argument("--workload", action="append", choices=benchmark.WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.repeats < 1:
        parser.error("--pairs must be at least 2 and --repeats at least 1")
    trees = resolve_trees(args.parent, args.changed)
    workloads = args.workload or list(benchmark.WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        batches = capture(trees["parent"], workloads, args.seed, work)
        names = [figure(batch) for batch in batches]
        batches_file = work / "batches.json"
        batches_file.write_text(json.dumps([[b["fleet"], b["demands"]] for b in batches]))
        runs = run_pairs(trees, args.pairs,
                         lambda tree: time_once(tree, batches_file, names, args.repeats),
                         lambda run: f"{sum(run['metrics'].values()) * 1e3:.3f} ms in all")
    figures = list(dict.fromkeys(names))
    summary = summarize(runs, dict.fromkeys(figures, "lower"))
    print(f"{'figure':<52}{'batches':>8}{'parent_ms':>11}{'changed_ms':>12}{'wins':>7}")
    for name in figures:
        s = summary[name]
        print(f"{name:<52}{names.count(name):>8}{s['parent']['median'] * 1e3:>11.3f}"
              f"{s['changed']['median'] * 1e3:>12.3f}{s['changed_wins']:>4}/{args.pairs}")
    record = {
        "host": host(),
        "trees": {side: tree.name for side, tree in trees.items()},
        "seed": args.seed, "pairs": args.pairs, "repeats": args.repeats,
        "batches": [{"figure": figure(b), "size": len(b["demands"])} for b in batches],
        "summary": summary,
        "samples": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
