#!/usr/bin/env python3
"""Record the reference outputs that run.py compares against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs every workload once at the reference seed and stores the sampled
cells (checks.reference_rows) of each command's CSVs under
perfbench/reference/<workload>/<command>/.  Re-record only when the
program's results are meant to change, and say so where the change is
described.
"""
from __future__ import annotations

import csv
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run.warm_up()
        for workload in workloads.WORKLOADS:
            cmds = workloads.build(workload, run.REFERENCE_SEED, work)
            result = run.run_pass(cmds, work / "pass", False, {})
            problems = [m for c in result.commands for m in c.problems]
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            for cmd in cmds:
                dest = run.REFERENCE_DIR / workload / cmd.label
                shutil.rmtree(dest, ignore_errors=True)
                dest.mkdir(parents=True)
                for name in checks.OUTPUTS[cmd.kind]:
                    header, rows = checks.read_csv(work / "pass" / cmd.label / name)
                    keep = [h for h in header if h not in checks.UNCOMPARED]
                    with (dest / name).open("w", newline="") as fh:
                        writer = csv.writer(fh, lineterminator="\n")
                        writer.writerow(keep)
                        writer.writerows(checks.reference_rows(name, header, rows))
            print(f"recorded {workload}: {len(cmds)} commands")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
