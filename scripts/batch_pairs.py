#!/usr/bin/env python3
"""Paired in-process timings of every v(y) batch and price_hours call the
benchmark's commands make.

Usage (from anywhere):

    python3 scripts/batch_pairs.py PARENT_TREE CHANGED_TREE --out FILE \
        [--workload W ...] [--pairs 10] [--repeats 5] [--seed 1]

Each tree is a checkout of this repository, run from bench_pairs.py's
copies of the two trees, at paths of equal length.  Every child is
started by bench_pairs.py's ``run_child``, with bytecode off.  The
workloads (default: all three) are those of ``perfbench/workloads.py``
in the repository holding this script, built for the seed.

Capture: each command runs once, in a fresh interpreter importing
PARENT_TREE's ``src/``, with ``chpricing.ucp.ucp_values`` and
``chpricing.pricing.price_hours`` wrapped in every chpricing module that
binds them.  Each ``ucp_values`` call's fleet (as ``dump_fleet`` writes
it) and demands are kept.  Each ``price_hours`` call's method, fleet
document, demand model fields, profile (base demands and noise), hours,
start price, rounds and step coefficient (null for no step rule) are
kept; both trees' ``price_hours`` must take (method, fleet, model,
profile, hours, price0, n_iters, step_rule).  JSON floats round-trip
exactly, so the calls are the commands' own.

Timing: a run is one fresh interpreter importing one tree's ``src/``.
For every captured call it calls the function once, which builds the
fleet's caches (the commitment table, the staircase), then times
``--repeats`` more calls and keeps the least.  Runs are paired,
alternated and run one child at a time by bench_pairs.py's
``run_pairs``.

A run's figures are, per (command, batch size), the sum of its v(y)
batches' times, and per command its price_hours time: the whole day
loop with its reporting pass, costing and billing, the layer that
perfbench's tracer does not wrap.  FILE gets the captured batches'
sizes, the price_hours calls' methods, hour counts and n_iters, every
run, and per figure each side's median and quartiles over the pairs and
the pairs each side won (lower is better), with bench_pairs.py's
``gain`` rule.  Only the standard library is used here; the children
use numpy.  Exits 1 when a child fails.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_pairs import copied_trees, parse_pairs, record_head, run_child, run_pairs, summarize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as benchmark  # noqa: E402  (perfbench is not a package)

# argv: OUT_JSON CLI_ARGS...; writes {"batches": [[fleet document, demands],
# ...], "days": [[method, fleet document, model, base demand, noise, hours,
# price0, n_iters, step coef], ...]}
CAPTURE_CODE = r"""
import dataclasses, json, sys
import chpricing, chpricing.cli
from chpricing import pricing, ucp

captured = {"batches": [], "days": []}
ucp_values, price_hours = ucp.ucp_values, pricing.price_hours

def values_spy(fleet, demands):
    result = ucp_values(fleet, demands)
    ys = demands.tolist() if hasattr(demands, "tolist") else demands
    captured["batches"].append([chpricing.dump_fleet(fleet), [float(y) for y in ys]])
    return result

def day_spy(method, fleet, model, profile, hours, price0, n_iters, step_rule):
    hours = [int(t) for t in hours]
    captured["days"].append([
        method, chpricing.dump_fleet(fleet), dataclasses.asdict(model),
        list(profile.base_demand), list(profile.noise), hours, price0, n_iters,
        None if step_rule is None else step_rule.coef])
    return price_hours(method, fleet, model, profile, hours, price0, n_iters, step_rule)

for name, module in list(sys.modules.items()):
    if name == "chpricing" or name.startswith("chpricing."):
        for attr, value in list(vars(module).items()):
            for function, spy in ((ucp_values, values_spy), (price_hours, day_spy)):
                if value is function:
                    setattr(module, attr, spy)
code = chpricing.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump(captured, out)
sys.exit(code)
"""

# argv: CAPTURED_JSON REPEATS; prints {"batches": [...], "days": [...]}, the
# least time of each captured call, in order.  chpricing is imported before
# numpy, so that it runs OpenBLAS with one thread, as every command does
TIME_CODE = r"""
import json, sys, time
import chpricing
from chpricing import pricing, ucp
import numpy as np

with open(sys.argv[1]) as source:
    captured = json.load(source)
fleets = {}

def fleet_of(document):
    if document not in fleets:
        fleets[document] = chpricing.load_fleet(document)
    return fleets[document]

def least(call):
    call()
    best = float("inf")
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best

times = {"batches": [], "days": []}
for document, demands in captured["batches"]:
    fleet, ys = fleet_of(document), np.array(demands)
    times["batches"].append(least(lambda: ucp.ucp_values(fleet, ys)))
for method, document, model, base, noise, hours, price0, n_iters, coef in captured["days"]:
    args = (method, fleet_of(document), chpricing.DemandModel(**model),
            chpricing.DayProfile(tuple(base), tuple(noise)), hours, price0, n_iters,
            None if coef is None else chpricing.HarmonicStep(coef))
    times["days"].append(least(lambda: pricing.price_hours(*args)))
print(json.dumps(times))
"""


def capture(tree: Path, workloads: list[str], seed: int, work: Path
            ) -> tuple[list[dict], list[dict]]:
    """Every ucp_values batch and price_hours call of the workloads'
    commands, run from ``tree``."""
    batches, days = [], []
    for workload in workloads:
        for command in benchmark.build(workload, seed, work):
            out = work / f"{command.label}.json"
            run_child(tree, "-c", CAPTURE_CODE, out, *command.argv(work / command.label))
            captured = json.loads(out.read_text())
            for document, demands in captured["batches"]:
                batches.append({"workload": workload, "command": command.label,
                                "fleet": document, "demands": demands})
            for call in captured["days"]:
                days.append({"workload": workload, "command": command.label,
                             "call": call})
    return batches, days


def figure(batch: dict) -> str:
    return f"{batch['workload']}/{batch['command']} n={len(batch['demands'])}"


def day_figure(day: dict) -> str:
    return f"{day['workload']}/{day['command']} price_hours"


def time_once(tree: Path, captured_file: Path, names: dict[str, list[str]],
              repeats: int) -> dict:
    """One run: each figure's summed least time over its calls, from ``tree``."""
    times = json.loads(run_child(tree, "-c", TIME_CODE, captured_file, repeats)[0])
    metrics = dict.fromkeys(names["batches"] + names["days"], 0.0)
    for kind in ("batches", "days"):
        for name, seconds in zip(names[kind], times[kind]):
            metrics[name] += seconds
    return {"metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=benchmark.WORKLOADS)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parse_pairs(parser, argv, least=2)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    workloads = args.workload or list(benchmark.WORKLOADS)
    with copied_trees(args.parent, args.changed) as trees:
        # next to the copies, in the directory removed with them
        work = trees["parent"].parent / "work"
        work.mkdir()
        batches, days = capture(trees["parent"], workloads, args.seed, work)
        names = {"batches": [figure(batch) for batch in batches],
                 "days": [day_figure(day) for day in days]}
        captured_file = work / "captured.json"
        captured_file.write_text(json.dumps({
            "batches": [[b["fleet"], b["demands"]] for b in batches],
            "days": [day["call"] for day in days]}))
        runs = run_pairs(trees, args.pairs,
                         lambda tree: time_once(tree, captured_file, names, args.repeats),
                         lambda run: f"{sum(run['metrics'].values()) * 1e3:.3f} ms in all")
    listed = names["batches"] + names["days"]
    figures = list(dict.fromkeys(listed))
    summary = summarize(runs, dict.fromkeys(figures, "lower"))
    print(f"{'figure':<60}{'calls':>8}{'parent_ms':>11}{'changed_ms':>12}{'wins':>7}")
    for name in figures:
        s = summary[name]
        print(f"{name:<60}{listed.count(name):>8}{s['parent']['median'] * 1e3:>11.3f}"
              f"{s['changed']['median'] * 1e3:>12.3f}{s['changed_wins']:>4}/{args.pairs}")
    record = {
        **record_head(args),
        "seed": args.seed, "pairs": args.pairs, "repeats": args.repeats,
        "batches": [{"figure": figure(b), "size": len(b["demands"])} for b in batches],
        "price_hours": [{"figure": day_figure(d), "method": d["call"][0],
                         "hours": len(d["call"][5]), "n_iters": d["call"][7]}
                        for d in days],
        "summary": summary,
        "samples": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
