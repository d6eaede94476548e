#!/usr/bin/env python3
"""Print the size of the chpricing package: lines, public names, settable
values, compile time.

Usage (from anywhere):

    python3 scripts/size_report.py [TREE] [--against PARENT_TREE] [--repeats N]

TREE is a checkout of this repository (default: the one holding this
script).  Three figures are printed for ``TREE/src/chpricing``:

* the lines of each module, and their total;
* the number of names in ``chpricing.__all__``, and the number of values
  a caller can set through them: the parameters of every public function
  plus the fields of every public dataclass.  Both are read by importing
  the package from ``TREE/src`` in a fresh interpreter;
* the best of N (default 5) ``compile()`` times of each module's
  source, and their sum: what a command pays per module where bytecode
  cannot be cached.

With ``--against PARENT_TREE`` every figure is printed for both trees,
the public names TREE adds to the parent's and removes from them, and
each public name both trees export whose settable values changed (say,
``ExperimentConfig 16 -> 11``).
The compile times are then taken in N (default 40) repetitions that
alternate which tree goes first; each repetition compiles every module
of both trees once.  Per module the least time is printed, and for the
whole package the least and the median of the repetitions' totals: the
host's speed drifts over seconds, so one tree's best of a few calls
cannot be set against the other's.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from bench_pairs import run_child


def compile_s(source: str, filename: str) -> float:
    """The wall time of one compile() of the source."""
    start = time.perf_counter()
    compile(source, filename, "exec", dont_inherit=True)
    return time.perf_counter() - start


# prints each name of chpricing.__all__ and its settable values: the
# parameters of a function or the fields of a dataclass, else 0; a function
# is any callable that is not a class, and inspect.signature sees through a
# decorator such as lru_cache
PUBLIC_CODE = """
import dataclasses, inspect, chpricing
for name in chpricing.__all__:
    obj = getattr(chpricing, name)
    if inspect.isclass(obj):
        values = len(dataclasses.fields(obj)) if dataclasses.is_dataclass(obj) else 0
    else:
        values = len(inspect.signature(obj).parameters) if callable(obj) else 0
    print(name, values)
"""


def public_names(tree: Path) -> dict[str, int]:
    """Each public name's settable values, imported from tree's src/ in a
    fresh interpreter."""
    return {name: int(values) for name, values in
            (line.split() for line in run_child(tree, "-c", PUBLIC_CODE)[0].splitlines())}


def sources(tree: Path) -> dict[str, tuple[str, str]]:
    """Each module's name: (path, source), in name order."""
    package = tree / "src" / "chpricing"
    modules = sorted(package.glob("*.py"))
    if not modules:
        raise SystemExit(f"error: no modules under {package}")
    return {path.name: (str(path), path.read_text()) for path in modules}


def compile_times(trees: list[dict[str, tuple[str, str]]], repeats: int
                  ) -> list[dict[str, list[float]]]:
    """Per tree, each module's compile times, repetition by repetition.

    Each repetition compiles every module of every tree once; the trees
    take turns to go first.
    """
    times = [{name: [] for name in modules} for modules in trees]
    for repeat in range(repeats):
        order = range(len(trees)) if repeat % 2 == 0 else reversed(range(len(trees)))
        for side in order:
            for name, (path, source) in trees[side].items():
                times[side][name].append(compile_s(source, path))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--against", type=Path, metavar="PARENT_TREE")
    parser.add_argument("--repeats", type=int)
    args = parser.parse_args(argv)
    trees = [args.tree] if args.against is None else [args.tree, args.against]
    repeats = args.repeats or (5 if args.against is None else 40)
    if repeats < 1:
        parser.error("--repeats must be at least 1")
    modules = [sources(tree) for tree in trees]
    times = compile_times(modules, repeats)
    names = sorted(set().union(*modules))

    heads = ["lines", "compile_ms"]
    if args.against is not None:
        heads += ["parent_lines", "parent_ms"]
    print(f"{'module':<16}" + "".join(f"{head:>14}" for head in heads))
    totals = [[0.0] * repeats for _ in trees]
    for name in names:
        cells = []
        for side, tree_modules in enumerate(modules):
            if name not in tree_modules:
                cells += ["-", "-"]
                continue
            cells += [str(len(tree_modules[name][1].splitlines())),
                      f"{min(times[side][name]) * 1e3:.2f}"]
            for repeat, seconds in enumerate(times[side][name]):
                totals[side][repeat] += seconds
        print(f"{name:<16}" + "".join(f"{cell:>14}" for cell in cells))
    cells = []
    for tree_modules, tree_totals in zip(modules, totals):
        lines = sum(len(source.splitlines()) for _path, source in tree_modules.values())
        if args.against is None:
            # the sum of each module's best, as the module rows show it
            least = sum(min(module_times) for module_times in times[0].values())
        else:
            least = min(tree_totals)
        cells += [str(lines), f"{least * 1e3:.2f}"]
    print(f"{'total':<16}" + "".join(f"{cell:>14}" for cell in cells))
    if args.against is not None:
        print(f"package compile over {repeats} alternated repetitions: least "
              f"{min(totals[0]) * 1e3:.2f} ms (parent {min(totals[1]) * 1e3:.2f}), "
              f"median {statistics.median(totals[0]) * 1e3:.2f} ms "
              f"(parent {statistics.median(totals[1]) * 1e3:.2f})")
    reports = [public_names(tree) for tree in trees]
    names, parent_names = reports[0], reports[-1]
    parent = "" if args.against is None else " (parent {})"
    print(f"chpricing.__all__: {len(names)} names" + parent.format(len(parent_names)))
    if args.against is not None:
        for label, these, those in (("added", names, parent_names),
                                    ("removed", parent_names, names)):
            print(f"{label}: " + (", ".join(sorted(set(these) - set(those))) or "none"))
        moved = [f"{name} {parent_names[name]} -> {values}"
                 for name, values in sorted(names.items())
                 if parent_names.get(name, values) != values]
        print("moved: " + (", ".join(moved) or "none"))
    print(f"settable values: {sum(names.values())}"
          + parent.format(sum(parent_names.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
