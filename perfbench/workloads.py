"""Workload definitions: the CLI commands each workload runs, built from a seed.

A workload is a list of ``Command``s.  Each command is one ``chpricing``
invocation that the benchmark runs in a fresh interpreter, sequentially and
with ``--jobs 1``.  The seed drives both the CLI's ``--seed`` (hourly demand
noise) and the ``wide-fleet`` generator, so one seed fixes every input.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("iterative-days", "crossing-curves", "wide-fleet")

# Rounds of the two iterative pricing loops.  Half the paper's 100 keeps a
# pass near 18 s at this commit, so a 30 s run still takes two passes;
# the loops still make 1200 v(y) calls per scarf day.
ITERS = 50
# uplift-curve grid on gribik: 3001 demands, about 230k fleet_supply calls
CURVE_STEP_MW = 0.2

# wide-fleet structure: 6 types x 3 units -> 4^6 = 4096 commitments
WIDE_TYPES = 6
WIDE_UNITS = 3
# profile peak (market.PROFILE_HIGH) and the defaults a custom fleet gets
PROFILE_HIGH = 50780.0
MU1 = 0.8
MU2 = 0.2
# any positive step; closed-form methods ignore it, but the CLI's default
# '--step paper' rejects custom fleets
WIDE_STEP = "c/k:0.01"
# Workloads whose two uplift_ratio rules agree in theory: every fleet here
# is a set of independent units, so the relaxation's marginal price
# supports the convex hull and both rules pay the same uplift.  Their ratio
# is folded to max(r, 1/r), so 1 is exact and an error in either rule
# raises it.
AGREEING_RULES = frozenset({"crossing-curves", "wide-fleet"})


@dataclass(frozen=True)
class Command:
    """One CLI invocation.

    ``label`` names its output directory; ``kind`` is the subcommand;
    ``fleet`` is a builtin name or the generated fleet file; ``method``
    tells the checker what to expect of a day; ``seeded`` marks outputs
    that depend on the seed (the rest are compared with the reference on
    every seed); ``uplift_role`` puts the command's total uplift in the
    numerator ("num") or denominator ("den") of the workload's uplift_ratio.
    """

    label: str
    kind: str
    fleet: str
    args: tuple[str, ...]
    method: str | None = None
    seeded: bool = True
    uplift_role: str | None = None

    def argv(self, out_dir: Path) -> list[str]:
        return [self.kind, "--fleet", self.fleet, *self.args, "--out", str(out_dir)]


def _run(fleet: str, method: str, seed: int, *extra: str, label_fleet: str = "",
         uplift_role: str | None = None) -> Command:
    args = ("--method", method, "--seed", str(seed), "--jobs", "1", *extra)
    return Command(f"run-{label_fleet or fleet}-{method}", "run", fleet, args,
                   method=method, uplift_role=uplift_role)


def wide_fleet_document(seed: int) -> dict:
    """A 6-type, 3-units-per-type fleet whose costs and limits come from the seed.

    Each type has two segments with increasing marginal costs and a
    minimum output of 25-30% of its first segment, so every demand between
    the smallest minimum output and capacity has a feasible commitment.
    Capacities and minimum outputs vary in narrow ranges: they decide how
    many commitments are feasible at a demand, which is most of the work,
    so the work differs little between seeds.  Costs vary widely.
    """
    rng = random.Random(seed)
    types = []
    for i in range(WIDE_TYPES):
        cap1 = rng.uniform(32.0, 38.0)
        cap2 = rng.uniform(18.0, 22.0)
        mc1 = rng.uniform(10.0, 40.0)
        mc2 = mc1 + rng.uniform(5.0, 30.0)
        types.append({
            "name": f"W{i}",
            "startup_cost": rng.uniform(100.0, 2000.0),
            "min_output": rng.uniform(0.25, 0.3) * cap1,
            "unit_count": WIDE_UNITS,
            "segments": [{"marginal_cost": mc1, "capacity": cap1},
                         {"marginal_cost": mc2, "capacity": cap2}],
        })
    return {"types": types}


def wide_demand_params(doc: dict) -> tuple[float, float]:
    """(a, nu) sized to the fleet so every hour clears below capacity.

    The inelastic share peaks at 60% of capacity; the elastic share is 5%
    of capacity at the mean upper-segment marginal cost and shrinks as the
    price rises.  Demand is then nearly the same share of capacity for
    every seed.
    """
    capacity = sum(t["unit_count"] * sum(s["capacity"] for s in t["segments"])
                   for t in doc["types"])
    price = sum(t["segments"][-1]["marginal_cost"] for t in doc["types"]) / len(doc["types"])
    nu = 0.6 * capacity / (MU1 * PROFILE_HIGH)
    a = 0.05 * capacity * price / MU2
    return a, nu


def build(workload: str, seed: int, work_dir: Path) -> list[Command]:
    """The workload's commands for this seed; writes any generated input files.

    uplift_ratio is, per workload: subgradient days over exact-CHP days
    (iterative-days); the dispatchable uplift curve over the hull-price
    one (crossing-curves); dispatchable days over exact-CHP days
    (wide-fleet).  Each guards against a faster but less accurate result;
    see AGREEING_RULES for the last two.
    """
    if workload == "iterative-days":
        cmds = []
        for fleet in ("gribik", "scarf"):
            cmds.append(_run(fleet, "chp-subgradient", seed, "--iters", str(ITERS),
                             uplift_role="num"))
            cmds.append(_run(fleet, "lmp", seed, "--iters", str(ITERS)))
            cmds.append(_run(fleet, "chp-exact", seed, uplift_role="den"))
        cmds.append(Command("curves-scarf", "curves", "scarf", (), seeded=False))
        return cmds
    if workload == "crossing-curves":
        cmds = [Command(f"uplift-gribik-{rule}", "uplift-curve", "gribik",
                        ("--rule", rule, "--step-mw", str(CURVE_STEP_MW)),
                        seeded=False, uplift_role=role)
                for rule, role in (("chp", "den"), ("dispatchable", "num"))]
        for fleet in ("gribik", "scarf"):
            cmds.append(_run(fleet, "chp-exact", seed))
            cmds.append(_run(fleet, "dispatchable", seed))
        return cmds
    if workload == "wide-fleet":
        doc = wide_fleet_document(seed)
        a, nu = wide_demand_params(doc)
        path = work_dir / "wide_fleet.json"
        path.write_text(json.dumps(doc, indent=2))
        extra = ("--a", repr(a), "--nu", repr(nu), "--step", WIDE_STEP)
        return [_run(str(path), method, seed, *extra, label_fleet="wide",
                     uplift_role=role)
                for method, role in (("chp-exact", "den"), ("dispatchable", "num"))]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
