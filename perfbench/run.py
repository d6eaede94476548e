#!/usr/bin/env python3
"""The chpricing benchmark: run one workload from a seed, check it, report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload iterative-days --seed 1 --seconds 30 --trace 0

Each CLI command of the workload (see workloads.py) runs in its own fresh
interpreter through child.py, one at a time.  A pass runs every command
once; passes repeat while the next is expected to end within --seconds,
and at least twice.  With --trace 0 the last line of stdout reports the
end-to-end metrics (medians over passes, times scaled to a reference host
speed by hostspeed.py); with --trace 1 untraced and traced passes
alternate and it reports the per-layer metrics of tracing.LAYER_METRICS.  Earlier lines give
the environment and a readable table, including fail_ratio.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"
# the seed whose run outputs are recorded under reference/
REFERENCE_SEED = 0
# Passes continue while the next one is expected to end within --seconds,
# but at least MIN_PASSES run, and none that would end after PASS_LIMIT_S.
MIN_PASSES = 2
PASS_LIMIT_S = 140.0
COMMAND_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("uplift_ratio", "ratio"))


@dataclass
class CommandResult:
    """One command's measured (unscaled) times, memory and problems."""

    label: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    max_rss_kb: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    # hostspeed.REFERENCE_S over the calibration loop's time around the command
    speed: float = 1.0


@dataclass
class PassResult:
    commands: list[CommandResult]
    spans: object = None  # tracing.SpanTotals for a traced pass

    def wall_s(self, scaled: bool = True) -> float:
        return math.fsum(c.wall_s * (c.speed if scaled else 1.0) for c in self.commands)

    def setup_s(self, scaled: bool = True) -> float:
        return math.fsum(c.setup_s * (c.speed if scaled else 1.0) for c in self.commands)


def run_command(cmd: workloads.Command, pass_dir: Path, trace: bool) -> CommandResult:
    """Run one command in a fresh interpreter and check what it wrote."""
    result = CommandResult(cmd.label)
    out = pass_dir / cmd.label
    record = pass_dir / f"{cmd.label}.json"
    spans = pass_dir / f"{cmd.label}.npz"
    argv = [sys.executable, str(HERE / "child.py"), str(record),
            str(spans) if trace else "-", "--", *cmd.argv(out)]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        result.problems.append(f"{cmd.label}: timed out after {COMMAND_TIMEOUT_S} s")
        return result
    if proc.returncode != 0 or not record.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        result.problems.append(f"{cmd.label}: exit {proc.returncode} {tail[0]}")
        return result
    rec = json.loads(record.read_text())
    result.setup_s = rec["ready"] - start
    result.wall_s = rec["done"] - rec["start"]
    result.speed = hostspeed.REFERENCE_S / rec["loop_s"]
    result.max_rss_kb = rec["max_rss_kb"]
    result.bytes_written = sum(p.stat().st_size for p in out.iterdir())
    result.problems.extend(checks.check_command(cmd, out))
    return result


def run_pass(cmds: list[workloads.Command], pass_dir: Path, trace: bool,
             reference: dict[str, Path]) -> PassResult:
    """Run every command once; compare with the reference where one is given."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    results = []
    for cmd in cmds:
        res = run_command(cmd, pass_dir, trace)
        if not res.problems and cmd.label in reference:
            res.problems.extend(checks.compare_reference(
                cmd, pass_dir / cmd.label, reference[cmd.label]))
        results.append(res)
    by_method = {(c.fleet, c.method): (c, r) for c, r in zip(cmds, results)
                 if c.kind == "run" and not r.problems}
    for (fleet, method), (disp, res) in by_method.items():
        if method == "dispatchable" and (fleet, "chp-exact") in by_method:
            exact, _ = by_method[(fleet, "chp-exact")]
            res.problems.extend(checks.check_pair(
                exact, pass_dir / exact.label, disp, pass_dir / disp.label))
    spans = None
    if trace:
        import tracing
        spans = tracing.SpanTotals()
        for cmd, res in zip(cmds, results):
            if not res.problems:
                spans.add_file(pass_dir / f"{cmd.label}.npz")
    return PassResult(results, spans)


def total_uplift(cmd: workloads.Command, out_dir: Path) -> float:
    if cmd.kind == "run":
        _header, rows = checks.read_csv(out_dir / "summary.csv")
        return float(rows[0][checks.SUMMARY_COLUMNS.index("total_uplift")])
    _header, rows = checks.read_csv(out_dir / "uplift_curve.csv")
    return math.fsum(float(r[2]) for r in rows)


def uplift_ratio(workload: str, cmds: list[workloads.Command], pass_dir: Path) -> float:
    """The workload's uplift_ratio (see workloads.build); 0.0 if undefined."""
    totals = {"num": 0.0, "den": 0.0}
    for cmd in cmds:
        if cmd.uplift_role is not None:
            totals[cmd.uplift_role] += total_uplift(cmd, pass_dir / cmd.label)
    if not (totals["num"] > 0 and totals["den"] > 0):
        return 0.0
    ratio = totals["num"] / totals["den"]
    return max(ratio, 1.0 / ratio) if workload in workloads.AGREEING_RULES else ratio


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chpricing").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def warm_up() -> None:
    """Compile chpricing's bytecode once, so no timed import pays for it."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import chpricing.cli"],
                   cwd=ROOT, check=True, timeout=COMMAND_TIMEOUT_S)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chpricing" / "__init__.py").is_file():
        print(f"error: no chpricing sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        warm_up()
        cmds = workloads.build(args.workload, args.seed, work)
        reference = {
            c.label: REFERENCE_DIR / args.workload / c.label for c in cmds
            if args.seed == REFERENCE_SEED or not c.seeded}
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        started = time.monotonic()
        while True:
            untraced.append(run_pass(cmds, work / "pass", False,
                                     reference if not untraced else {}))
            if len(untraced) == 1:
                clean = not any(c.problems for c in untraced[0].commands)
                ratio = uplift_ratio(args.workload, cmds, work / "pass") if clean else 0.0
            if args.trace:
                traced.append(run_pass(cmds, work / "pass", True, {}))
            elapsed = time.monotonic() - started
            rounds = len(untraced)
            next_end = elapsed * (rounds + 1) / rounds
            if next_end > PASS_LIMIT_S or (rounds >= MIN_PASSES and next_end > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [c for p in untraced + traced for c in p.commands]
    problems = [msg for c in results for msg in c.problems]
    failed = sum(1 for c in results if c.problems)
    e2e = {
        "wall_s": statistics.median(p.wall_s() for p in untraced),
        "setup_s": statistics.median(p.setup_s() for p in untraced),
        "peak_rss_mb": max(c.max_rss_kb for p in untraced for c in p.commands) / 1024.0,
        "uplift_ratio": ratio,
    }
    print("environment:", json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} passes "
          f"of {len(cmds)} commands" + (f" + {len(traced)} traced" if traced else ""))
    for name, unit in END_TO_END:
        print(f"  {name:<13} {e2e[name]:.6g} {unit}")
    print(f"  {'unscaled':<13} wall_s {statistics.median(p.wall_s(False) for p in untraced):.6g} s, "
          f"setup_s {statistics.median(p.setup_s(False) for p in untraced):.6g} s, "
          f"host speed {statistics.median(c.speed for p in untraced for c in p.commands):.4g}")
    print(f"  {'fail_ratio':<13} {failed / len(results):.6g} ({failed}/{len(results)})")
    for i, cmd in enumerate(cmds):
        walls = [p.commands[i].wall_s * p.commands[i].speed for p in untraced]
        print(f"    {cmd.label:<32} wall_s {statistics.median(walls):.4g} s")
    for msg in problems[:20]:
        print("  problem:", msg)

    if args.trace:
        import tracing
        per_pass = [tracing.layer_metrics(
                        t.spans, t.wall_s(False),
                        t.wall_s() / u.wall_s() if u.wall_s() > 0 else 0.0,
                        sum(c.bytes_written for c in t.commands))
                    for u, t in zip(untraced, traced)]
        # counts must repeat exactly; the rest (times, and bytes, which
        # include trace.csv's wall-clock column) are medians over passes
        layer = {}
        for name, unit in tracing.LAYER_METRICS:
            values = [p[name] for p in per_pass]
            if unit == "count":
                if len(set(values)) > 1:
                    failed += 1
                    print(f"  problem: {name} differs between traced passes: {values}")
                layer[name] = values[0]
            else:
                layer[name] = statistics.median(values)
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:<42} {layer[name]:.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
