#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, recorded in a BENCH_<n>.json file.

Usage (from anywhere):

    python3 scripts/bench_pairs.py PARENT_TREE CHANGED_TREE --workload W \
        [--workload W2 ...] [--pairs 10] [--seconds 30] [--seed 1] \
        --out BENCH_<n>.json

Each tree is a checkout of this repository.  Both are first copied to
``<tmp>/a`` and ``<tmp>/b`` (``copied_trees``) without their bytecode,
``.git`` or run litter: paths of equal length, so that the length of a
path moves neither side's figures, and the given trees are left as
they are.  Each run is the copy's own, unchanged ``perfbench/run.py
--workload W --seed S --seconds T --trace 0``.  A pair runs both trees
once, one child at a time; pairs alternate which tree goes first.

Every child of the pair tools and of compare_outputs.py and
size_report.py is started by ``run_child``: a fresh interpreter with the
tree's ``src/`` on PYTHONPATH, bytecode off (PYTHONDONTWRITEBYTECODE=1)
and no PYTHONPYCACHEPREFIX, as BENCHMARK.json's comparison runs of
fresh checkouts run, so every command compiles the package and its
``setup_s`` includes that.  The BLAS thread variables are passed on as
the caller set them, as is glibc's ``MALLOC_MMAP_THRESHOLD_``, and the
``host`` block records their values (null where unset).

The output file holds, per workload, the environment line, the
end-to-end metrics and run.py's unscaled times of every run, each
side's median and quartiles of both, and per metric the pairs each side
won (ties count for neither) and ``gain``: the changed tree won at
least nine tenths of the pairs and the medians differ, in its favour,
by more than the parent's interquartile range.  Metric directions come
from the changed tree's BENCHMARK.json.  Only the standard library is
used.  Exits 1 when a run fails or reports a failed command.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator

SIDES = ("parent", "changed")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# left out of a tree's copy: bytecode a run would read instead of compiling,
# and what git, tests and perfbench runs leave behind
LITTER = ("__pycache__", ".git", ".perfbench_work", ".pytest_cache", ".hypothesis")


@contextlib.contextmanager
def copied_trees(parent: Path, changed: Path) -> Iterator[dict[str, Path]]:
    """The two trees by side, copied to ``<tmp>/a`` and ``<tmp>/b`` without
    their litter; removed on exit."""
    with tempfile.TemporaryDirectory(prefix="pairs_") as tmp:
        trees = {side: Path(tmp) / name for side, name in zip(SIDES, "ab")}
        for side, tree in zip(SIDES, (parent, changed)):
            shutil.copytree(tree, trees[side], ignore=shutil.ignore_patterns(*LITTER))
        yield trees


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with bytecode off and no cache prefix."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **extra)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def run_child(tree: Path, *args, cwd: Path | None = None) -> tuple[str, float, float]:
    """(stdout, wall seconds, CPU seconds) of one fresh interpreter given
    ``args`` and importing ``tree``'s ``src/``; exits naming the tree and
    showing the child's stderr if it fails.

    CPU seconds are the child's user plus system time, the change in this
    process's RUSAGE_CHILDREN over the run.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          env=child_env(PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        # a -c program is shown by its first line
        shown = " ".join(str(arg).strip().split("\n")[0] for arg in args)
        raise SystemExit(f"{tree}: {shown} exited {done.returncode}:\n{done.stderr}")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return done.stdout, wall, (after.ru_utime + after.ru_stime
                               - before.ru_utime - before.ru_stime)


def parse_pairs(parser: argparse.ArgumentParser, argv: list[str] | None,
                least: int) -> argparse.Namespace:
    """``argv`` parsed with the pair tools' shared arguments added to
    ``parser``: the two trees, ``--pairs`` (at least ``least``) and ``--out``."""
    parser.add_argument("parent", type=Path)
    parser.add_argument("changed", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < least:
        parser.error(f"--pairs must be at least {least}")
    return args


def record_head(args: argparse.Namespace) -> dict:
    """The start of a pair tool's record: the host and the given trees' names."""
    return {"host": host(),
            "trees": {side: getattr(args, side).resolve().name for side in SIDES}}


def host() -> dict:
    """The machine, the BLAS and allocator variables passed to every run, and
    the bytecode mode."""
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(),
            # passed to every run unchanged (None: unset); the BLAS pool's
            # size shapes set-up time
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
            # glibc's mmap threshold, fixed when set, else dynamic: it moves
            # timings of code that allocates large arrays
            "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
            "bytecode_writes": "off"}


def run_pairs(trees: dict[str, Path], pairs: int, run_once: Callable[[Path], dict],
              describe: Callable[[dict], str]) -> dict[str, list[dict]]:
    """Each side's runs, one child at a time, pairs alternating who goes first.

    ``run_once(tree)`` returns a run's record, to which its pair and its
    position in the pair are added; ``describe(run)`` is printed after it.
    """
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(trees[side])
            run["pair"], run["position"] = pair, position
            runs[side].append(run)
            print(f"pair {pair} {side}: {describe(run)}", flush=True)
    return runs


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of ``tree``: its environment, correctness and metrics."""
    stdout, _wall, _cpu = run_child(
        tree, "perfbench/run.py", "--workload", workload, "--seed", seed,
        "--seconds", seconds, "--trace", 0, cwd=tree)
    lines = stdout.strip().splitlines()
    environment = next(json.loads(line.split(":", 1)[1]) for line in lines
                       if line.startswith("environment:"))
    # "  unscaled      wall_s W s, setup_s S s, host speed H": run.py's
    # times before host-speed scaling, whose loop runs after set-up
    words = next(line.split() for line in lines if line.startswith("  unscaled"))
    result = json.loads(lines[-1])
    return {
        "environment": environment,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "unscaled": {"wall_s": float(words[2]), "setup_s": float(words[5]),
                     "host_speed": float(words[9])},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, pair wins, and the gain rule."""
    summary = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        # positive where the changed tree did better
        deltas = [sign * (p - c) for p, c in zip(values["parent"], values["changed"])]
        wins = sum(d > 0 for d in deltas)
        stats = {side: spread(values[side]) for side in SIDES}
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = sign * (stats["parent"]["median"] - stats["changed"]["median"])
        summary[name] = {
            "better": direction,
            **stats,
            "changed_wins": wins,
            "parent_wins": sum(d < 0 for d in deltas),
            "gain": wins >= 0.9 * len(deltas) and gap > parent_iqr,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parse_pairs(parser, argv, least=10)
    spec = json.loads((args.changed / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {**record_head(args), "pairs": args.pairs, "seconds": args.seconds,
              "seed": args.seed, "workloads": {}}
    failed = False
    with copied_trees(args.parent, args.changed) as trees:
        for workload in args.workload:
            runs = run_pairs(
                trees, args.pairs,
                lambda tree: run_once(tree, workload, args.seed, args.seconds),
                lambda run: f"{workload} " + ", ".join(
                    f"{k} {v:.6g}" for k, v in run["metrics"].items())
                + ", unscaled "
                + ", ".join(f"{k} {v:.6g}" for k, v in run["unscaled"].items()))
            failed |= any(not run["correct"] or run["failed"] > 0
                          for side in SIDES for run in runs[side])
            summary = summarize(runs, better)
            unscaled = {name: {side: spread([r["unscaled"][name] for r in runs[side]])
                               for side in SIDES} for name in runs["parent"][0]["unscaled"]}
            record["workloads"][workload] = {"summary": summary, "unscaled": unscaled,
                                             "runs": runs}
            for name, s in summary.items():
                print(f"{workload} {name}: parent {s['parent']['median']:.6g} "
                      f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] changed "
                      f"{s['changed']['median']:.6g} [{s['changed']['q1']:.6g}, "
                      f"{s['changed']['q3']:.6g}], changed better in {s['changed_wins']}"
                      f"/{args.pairs}, gain {s['gain']}")
            for name, s in unscaled.items():
                print(f"{workload} unscaled {name}: parent {s['parent']['median']:.6g} "
                      f"changed {s['changed']['median']:.6g}")
            # written after every workload, so an interrupted run keeps the finished ones
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
