"""Correctness checks on the CSVs a command wrote.

Each check returns a list of problems; an empty list means the command's
outputs are correct.  The column lists are the documented ones (README),
written out here rather than imported, so a change to the CLI's columns
fails the check instead of redefining it.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Command

HOURS_COLUMNS = ("t", "price", "demand", "cost", "uplift", "utility_gross",
                 "utility_net", "profit", "welfare", "status")
TRACE_COLUMNS = ("t", "k", "price", "demand", "supply", "step", "dual_value",
                 "uplift", "elapsed_s")
SUMMARY_COLUMNS = ("price_min", "price_mean", "price_max", "total_demand",
                   "total_utility_gross", "total_utility_net", "total_profit",
                   "total_welfare", "total_uplift", "settled_hours")
CURVES_COLUMNS = ("y", "v", "v_relaxed", "v_no_startup", "v_quadratic", "v_hull", "U_1")
UPLIFT_COLUMNS = ("y", "price", "uplift")

OUTPUTS = {
    "run": {"hours.csv": HOURS_COLUMNS, "trace.csv": TRACE_COLUMNS,
            "summary.csv": SUMMARY_COLUMNS},
    "curves": {"curves.csv": CURVES_COLUMNS},
    "uplift-curve": {"uplift_curve.csv": UPLIFT_COLUMNS},
}

# the exact hull price of each builtin day, every hour (README)
EXACT_PRICE = {"gribik": 95.0, "scarf": 6.3125}
# bisected prices sit within 1e-9 of it
PRICE_TOL = 1e-6
# accounting identities hold to rounding, relative to the hour's magnitudes
IDENTITY_RTOL = 1e-9
# reference cells: relative to the largest magnitude in their column, which
# admits prices moving by 1e-9 (and uplift by supply * 1e-9) but not a
# v(y) that is wrong by any startup or segment cost
REFERENCE_RTOL = 1e-6
# trace columns that are not deterministic
UNCOMPARED = {"elapsed_s"}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(header: list[str], rows: list[list[str]]) -> dict[str, list[str]]:
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _check_run(cmd: Command, files: dict) -> list[str]:
    problems = []
    hours = _columns(*files["hours.csv"])
    if hours["t"] != [str(t) for t in range(24)]:
        return [f"{cmd.label}: hours.csv does not list hours 0..23"]
    bad = [t for t, s in zip(hours["t"], hours["status"]) if s != "ok"]
    if bad:
        problems.append(f"{cmd.label}: hours {bad} not settled")
    for i in range(24):
        if hours["status"][i] != "ok":
            continue
        p, d, cost, up, gross, net, profit, welfare = (
            float(hours[k][i]) for k in HOURS_COLUMNS[1:9])
        revenue = p * d
        scale = max(1.0, abs(gross), abs(cost), abs(revenue))
        identities = {
            "welfare = gross - cost": welfare - (gross - cost),
            "profit = price*demand - cost": profit - (revenue - cost),
            "net = gross - price*demand": net - (gross - revenue),
            "welfare = net + profit": welfare - (net + profit),
        }
        for name, gap in identities.items():
            if not abs(gap) <= IDENTITY_RTOL * scale:
                problems.append(f"{cmd.label}: hour {i}: {name} off by {gap}")
        if not up >= -IDENTITY_RTOL * scale:
            problems.append(f"{cmd.label}: hour {i}: negative uplift {up}")
        if cmd.method == "chp-exact" and cmd.fleet in EXACT_PRICE:
            if not abs(p - EXACT_PRICE[cmd.fleet]) <= PRICE_TOL:
                problems.append(f"{cmd.label}: hour {i}: price {p} != "
                                f"{EXACT_PRICE[cmd.fleet]}")
    summary = _columns(*files["summary.csv"])
    if summary["settled_hours"] != ["24"]:
        problems.append(f"{cmd.label}: summary settled {summary['settled_hours']}")
    _header, trace_rows = files["trace.csv"]
    if not trace_rows:
        problems.append(f"{cmd.label}: empty trace.csv")
    return problems


def _check_uplift_curve(cmd: Command, files: dict) -> list[str]:
    cols = _columns(*files["uplift_curve.csv"])
    if not cols["y"]:
        return [f"{cmd.label}: empty uplift_curve.csv"]
    scale = max(1.0, max(abs(float(u)) for u in cols["uplift"]))
    negative = [y for y, u in zip(cols["y"], cols["uplift"])
                if not float(u) >= -IDENTITY_RTOL * scale]
    return [f"{cmd.label}: negative uplift at y={negative[:5]}"] if negative else []


def check_command(cmd: Command, out_dir: Path) -> list[str]:
    """Columns, settlement identities, uplift >= 0 and exact prices."""
    files = {}
    for name, columns in OUTPUTS[cmd.kind].items():
        path = out_dir / name
        if not path.is_file():
            return [f"{cmd.label}: missing {name}"]
        header, rows = read_csv(path)
        if tuple(header) != columns:
            return [f"{cmd.label}: {name} columns {header}, expected {list(columns)}"]
        if any(len(row) != len(columns) for row in rows):
            return [f"{cmd.label}: {name} has ragged rows"]
        files[name] = (header, rows)
    if cmd.kind == "run":
        return _check_run(cmd, files)
    if cmd.kind == "uplift-curve":
        return _check_uplift_curve(cmd, files)
    if not files["curves.csv"][1]:
        return [f"{cmd.label}: empty curves.csv"]
    return []


def check_pair(exact: Command, exact_dir: Path, disp: Command, disp_dir: Path) -> list[str]:
    """Exact hull prices equal dispatchable prices hour by hour.

    Every fleet here is a set of independent units, so the convex hull of
    its cost is its continuous-commitment relaxation and both rules clear
    at the same price.
    """
    want = _columns(*read_csv(exact_dir / "hours.csv"))["price"]
    got = _columns(*read_csv(disp_dir / "hours.csv"))["price"]
    bad = [t for t, (g, w) in enumerate(zip(got, want))
           if not abs(float(g) - float(w)) <= PRICE_TOL]
    if bad:
        return [f"{disp.label}: prices differ from {exact.label} at hours {bad}"]
    return []


# ---------------------------------------------------------------- reference

def reference_rows(name: str, header: list[str], rows: list[list[str]]) -> list[list[str]]:
    """The rows kept in the reference: full hours and summary, sampled traces and curves.

    Traces keep the first and every tenth iterate of each hour; curves keep
    every tenth demand and the last.  ``elapsed_s`` is dropped.
    """
    keep = [i for i, col in enumerate(header) if col not in UNCOMPARED]
    if name == "trace.csv":
        k_col = header.index("k")
        rows = [r for r in rows if int(r[k_col]) <= 1 or int(r[k_col]) % 10 == 0]
    elif name in ("curves.csv", "uplift_curve.csv"):
        rows = [r for i, r in enumerate(rows) if i % 10 == 0 or i == len(rows) - 1]
    return [[r[i] for i in keep] for r in rows]


def _cell_mismatch(got: str, want: str, tol: float) -> bool:
    if got == want:
        return False
    try:
        g, w = float(got), float(want)
    except ValueError:
        return True
    if not (math.isfinite(g) and math.isfinite(w)):
        return True
    return abs(g - w) > tol


def compare_reference(cmd: Command, out_dir: Path, ref_dir: Path) -> list[str]:
    """Compare the sampled output cells with the recorded reference files."""
    problems = []
    for name in OUTPUTS[cmd.kind]:
        ref_path = ref_dir / name
        if not ref_path.is_file():
            problems.append(f"{cmd.label}: no reference {ref_path.name}")
            continue
        ref_header, ref_rows = read_csv(ref_path)
        header, rows = read_csv(out_dir / name)
        got = reference_rows(name, header, rows)
        if len(got) != len(ref_rows):
            problems.append(f"{cmd.label}: {name} has {len(got)} sampled rows, "
                            f"reference {len(ref_rows)}")
            continue
        for j, col in enumerate(ref_header):
            values = [abs(float(r[j])) for r in ref_rows
                      if r[j] not in ("", "ok", "infeasible")
                      and math.isfinite(float(r[j]))]
            tol = REFERENCE_RTOL * max([1.0] + values)
            bad = [i for i, (g, w) in enumerate(zip(got, ref_rows))
                   if _cell_mismatch(g[j], w[j], tol)]
            if bad:
                i = bad[0]
                problems.append(f"{cmd.label}: {name}:{col} differs in {len(bad)} "
                                f"rows, first {got[i][j]} vs {ref_rows[i][j]}")
    return problems
