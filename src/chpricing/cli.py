"""Experiment harness and command line interface.

Subcommands:
  run           price a 24-hour day with one method, settle, write CSVs
  curves        tabulate the cost curves and first-hour utility over demand
  uplift-curve  tabulate price and uplift over demand for a pricing rule

Outputs are byte-identical across runs with the same configuration and
seed, except for the wall-clock column of trace.csv.

The options are declared once, in _COMMANDS.  A well-formed command line
is parsed straight from it; argparse, built from the same table, is
imported only for --help, a usage error or a spelling the table's parser
leaves to it (an abbreviation, --flag=value, --).
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .fleet import (Fleet, FleetValidationError, builtin_fleet, check_integer, check_number,
                    load_fleet)
from .hull import chp_fixed_demand, uplifts
from .market import (
    HOURS,
    DayProfile,
    DemandModel,
    _hour_terms,
    _utility,
    default_profile,
    load_profile,
    sample_noise,
    synthetic_profile,
)
from .pricing import (
    ITERATIVE_METHODS,
    METHODS,
    PriceLoop,
    PricedHours,
    _check_loop,
    dispatchable_price,
    price_hours,
)
from .ucp import (
    MAX_GRID_POINTS,
    DegenerateCostError,
    InfeasibleError,
    _require_covered,
    no_startup_values,
    quadratic_fit,
    relaxed_value,
    ucp_values,
)
from .welfare import HourResult, hour_result, summarize_day

__all__ = ["ExperimentConfig", "run_experiment", "emit_cost_curves",
           "emit_uplift_curves", "main"]

# demand-model and loop defaults for the builtin fleets
FIXTURE_DEFAULTS = {
    "gribik": dict(a=3.9e4, mu1=0.8, mu2=0.2, nu=0.01, utility_constant=20000.0,
                   lambda0=100.0, step_coef=0.1, n_iters=100),
    "scarf": dict(a=455.0, mu1=0.8, mu2=0.2, nu=0.0025, utility_constant=500.0,
                  lambda0=10.0, step_coef=0.01, n_iters=100),
}
# the same defaults for a fleet file; a, nu and step_coef have none there
CUSTOM_FLEET_DEFAULTS = dict(mu1=0.8, mu2=0.2, utility_constant=0.0, lambda0=100.0,
                             n_iters=100)

# the pricing rules of an uplift curve
RULES = ("chp", "dispatchable")
# HourResult's fields, then the hour's status
HOURS_COLUMNS = ("t", "price", "demand", "cost", "uplift", "utility_gross",
                 "utility_net", "profit", "welfare", "status")
TRACE_COLUMNS = ("t", "k", "price", "demand", "supply", "step", "dual_value",
                 "uplift", "elapsed_s")
# DaySummary's fields, then the settled-hour count
SUMMARY_COLUMNS = ("price_min", "price_mean", "price_max", "total_demand",
                   "total_utility_gross", "total_utility_net", "total_profit",
                   "total_welfare", "total_uplift", "settled_hours")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one day run prices with, each field checked when made."""

    fleet: Fleet
    method: str             # one of pricing.METHODS
    out_dir: str | os.PathLike
    model: DemandModel
    profile: DayProfile     # its noise included
    loop: PriceLoop | None = None  # None for the closed-form methods
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, kind in (("fleet", Fleet), ("model", DemandModel),
                           ("profile", DayProfile)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(
                    f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a str or os.PathLike, got {self.out_dir!r}")
        _check_loop(self.method, self.loop)
        check_integer("jobs", self.jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


def _resolve_fleet(source: str) -> Fleet:
    if source in FIXTURE_DEFAULTS:
        return builtin_fleet(source)
    return load_fleet(Path(source).read_text())


def _reprs(values: list[float]) -> list[str]:
    """The repr of each float, cut from one repr of the whole list."""
    return repr(values)[1:-1].split(", ") if values else []


def _trace_lines(priced: PricedHours) -> list[str]:
    """trace.csv lines of the priced hours, each cell the repr of its float."""
    steps, clocks = _reprs(priced.step.tolist()), _reprs(priced.elapsed_s.tolist())
    per_hour = zip(*([_reprs(hour) for hour in column.T.tolist()] for column in (
        priced.price, priced.demand, priced.supply, priced.dual_value, priced.uplift)))
    return [f"{t},{k},{price},{demand},{supply},{step},{phi},{up},{clock}"
            for t, columns in zip(priced.hours, per_hour)
            for k, (price, demand, supply, phi, up, step, clock)
            in enumerate(zip(*columns, steps, clocks), priced.first_k)]


def _run_hours(config: ExperimentConfig, hours
               ) -> tuple[list[str], list[str], list[HourResult]]:
    """Price the config's hours and settle each at its final row.

    Returns their trace.csv and hours.csv lines and the settled hours; an
    hour whose final demand no commitment covers (cost inf) is infeasible.
    """
    priced = price_hours(config.method, config.fleet, config.model, config.profile,
                         hours, config.loop)
    hour_lines, settled = [], []
    finals = (column[-1].tolist() for column in (
        priced.price, priced.demand, priced.cost, priced.uplift, priced.utility))
    for t, price, demand, cost, up, utility in zip(priced.hours, *finals):
        if cost == math.inf:
            cells = _reprs([price, demand]) + [""] * 6 + ["infeasible"]
        else:
            result = hour_result(t, price, demand, cost, up, utility)
            settled.append(result)
            cells = _reprs(list(result[1:])) + ["ok"]
        hour_lines.append(",".join([str(t)] + cells))
    return _trace_lines(priced), hour_lines, settled


def _write_csv(out_dir: str | Path, name: str, header: tuple[str, ...],
               lines: list[str]) -> Path:
    """Write the header and the lines to name in out_dir, made if missing."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([",".join(header)] + lines) + "\n")
    return path


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Price and settle the 24 hours; write hours.csv, trace.csv, summary.csv."""
    worker = partial(_run_hours, config)
    if config.jobs > 1:
        # imported here: the pool module costs every command's set-up, and
        # a pool forks all its workers at once, so more than HOURS would idle
        from concurrent.futures import ProcessPoolExecutor
        workers = min(config.jobs, HOURS)
        chunks = [range(HOURS * i // workers, HOURS * (i + 1) // workers)
                  for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(worker, chunks))
    else:
        outcomes = [worker(range(HOURS))]
    trace_lines, hour_lines, settled = (list(chain.from_iterable(part))
                                        for part in zip(*outcomes))

    if len(settled) == HOURS:
        summary_row = _reprs(list(summarize_day(settled))) + [str(HOURS)]
    else:
        # a broken day gets no aggregates, only the settled-hour count
        summary_row = [""] * 9 + [str(len(settled))]

    # written only now, so a day that fails (say, an lmp fit refused)
    # leaves no directory
    files = (("hours", HOURS_COLUMNS, hour_lines), ("trace", TRACE_COLUMNS, trace_lines),
             ("summary", SUMMARY_COLUMNS, [",".join(summary_row)]))
    return {name: _write_csv(config.out_dir, f"{name}.csv", header, lines)
            for name, header, lines in files}


def _demand_grid(capacity: float, step_mw: float) -> list[float]:
    """The multiples of the step below capacity - 1e-9, then capacity: point i
    is the float nearest i * D, D the decimal that repr(step_mw) reads."""
    check_number("step-mw", step_mw)
    if not 0 < step_mw < math.inf:
        raise ValueError(f"step-mw must be finite and > 0, got {step_mw}")
    if capacity / step_mw > MAX_GRID_POINTS:
        raise ValueError(
            f"step-mw {step_mw} over {capacity} MW makes more than "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS} demand points")
    digits, _, exponent = repr(float(step_mw)).partition("e")
    whole, _, fraction = digits.partition(".")
    scale = int(exponent or 0) - len(fraction)
    num, den = int(whole + fraction) * 10 ** max(scale, 0), 10 ** max(-scale, 0)
    limit = capacity - 1e-9
    grid = [i * num / den for i in range(math.ceil(limit / step_mw) + 1)]
    while grid and grid[-1] >= limit:  # the points ascend
        grid.pop()
    grid.append(capacity)
    return grid


def emit_cost_curves(fleet: Fleet, grid_step: float, out_dir: str | Path,
                     model: DemandModel | None = None) -> Path:
    """Write curves.csv: the cost curves and the bundled day's first-hour utility.

    Every cost column is one array over the grid.  The hull value is the
    relaxed cost (hull_value returns relaxed_value's), so both columns
    are cut from one.  Utility U_1 is the model's in the first hour of
    default_profile().  Cells that are undefined are left empty: utility
    without a model or at or below the inelastic floor, and the quadratic
    fit of a fleet whose startup-free cost is zero everywhere.  An
    uncovered grid is refused (_require_covered) before any fit or cost.
    """
    grid = _demand_grid(fleet.total_capacity, grid_step)
    ys = np.array(grid)
    _require_covered(fleet, ys)
    quadratic = [""] * len(grid)
    try:
        quadratic = _reprs(quadratic_fit(fleet).cost(ys).tolist())
    except DegenerateCostError:
        pass
    values = ucp_values(fleet, ys)
    no_startup = no_startup_values(fleet, ys)
    relaxed = _reprs(relaxed_value(fleet, ys)[0].tolist())
    utility = [""] * len(grid)
    if model is not None:
        terms = _hour_terms(model, default_profile(), (0,))
        # the grid ascends, so the rows above the inelastic floor are its tail
        above = int(ys.searchsorted(terms[0][0], side="right"))
        utility[above:] = _reprs(_utility(model, terms, ys[above:]).tolist())
    rows = zip(_reprs(grid), _reprs(values.tolist()), relaxed,
               _reprs(no_startup.tolist()), quadratic, relaxed, utility)
    return _write_csv(out_dir, "curves.csv", ("y", "v", "v_relaxed", "v_no_startup",
                                              "v_quadratic", "v_hull", "U_1"),
                      [",".join(row) for row in rows])


def emit_uplift_curves(fleet: Fleet, rule: str, grid_step: float,
                       out_dir: str | Path) -> Path:
    """Write uplift_curve.csv: price and uplift over demand for one rule; an
    uncovered grid is refused (_require_covered) before any price or cost."""
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule}")
    grid = _demand_grid(fleet.total_capacity, grid_step)
    ys = np.array(grid)
    _require_covered(fleet, ys)
    prices = (chp_fixed_demand if rule == "chp" else dispatchable_price)(fleet, ys)
    billed = uplifts(fleet, prices, ys)
    rows = zip(_reprs(grid), _reprs(prices.tolist()), _reprs(billed.tolist()))
    return _write_csv(out_dir, "uplift_curve.csv", ("y", "price", "uplift"),
                      [",".join(row) for row in rows])


def _parse_step(text: str, fleet: str) -> float:
    if text == "paper":
        if fleet not in FIXTURE_DEFAULTS:
            raise ValueError(
                "--step paper needs a builtin fleet; use --step c/k:VALUE")
        return FIXTURE_DEFAULTS[fleet]["step_coef"]
    if text.startswith("c/k:"):
        # PriceLoop validates the value
        try:
            return float(text[len("c/k:"):])
        except ValueError:
            raise ValueError(f"--step c/k:VALUE needs a number, got {text!r}") from None
    raise ValueError(f"--step must be 'paper' or 'c/k:VALUE', got {text!r}")


def _parse_synthetic(text: str) -> tuple[float, float, float]:
    try:
        low, mean, high = (float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"--synthetic needs three numbers MIN,MEAN,MAX, got {text!r}") from None
    return low, mean, high


def _setting(fleet: str, key: str, given):
    """The value given, else the builtin fleet's default, else a fleet file's."""
    if given is not None:
        return given
    defaults = FIXTURE_DEFAULTS.get(fleet, CUSTOM_FLEET_DEFAULTS)
    if key not in defaults:
        raise ValueError(f"--{key} is required for a custom fleet file")
    return defaults[key]


def _model(args: SimpleNamespace) -> DemandModel:
    """The demand model of the flags, the fleet's default for each left out."""
    return DemandModel(**{key: _setting(args.fleet, key, getattr(args, key))
                          for key in ("a", "nu", "mu1", "mu2", "utility_constant")})


def _cmd_run(args: SimpleNamespace) -> int:
    method = args.method.replace("-", "_")
    model = _model(args)
    # a closed-form method reads, and so checks, no --step, --iters or --lambda0
    loop = PriceLoop(_setting(args.fleet, "lambda0", args.lambda0),
                     _setting(args.fleet, "n_iters", args.iters),
                     _parse_step(args.step, args.fleet)
                     ) if method in ITERATIVE_METHODS else None
    fleet = _resolve_fleet(args.fleet)
    if args.profile is not None:
        base = load_profile(Path(args.profile).read_text()).base_demand
    elif args.synthetic is not None:
        base = synthetic_profile(*_parse_synthetic(args.synthetic))
    else:
        base = default_profile().base_demand
    noise = (0.0,) * HOURS if args.no_noise else sample_noise(args.seed)
    paths = run_experiment(ExperimentConfig(fleet, method, args.out, model,
                                            DayProfile(base, noise), loop, args.jobs))
    for name in ("hours", "trace", "summary"):
        print(paths[name])
    return 0


def _cmd_curves(args: SimpleNamespace) -> int:
    # a fleet file without model flags has no model; any flag asks for one
    given = {args.a, args.nu, args.mu1, args.mu2, args.utility_constant}
    model = _model(args) if args.fleet in FIXTURE_DEFAULTS or given != {None} else None
    fleet = _resolve_fleet(args.fleet)
    path = emit_cost_curves(fleet, args.step_mw, args.out, model)
    print(path)
    return 0


def _cmd_uplift_curve(args: SimpleNamespace) -> int:
    fleet = _resolve_fleet(args.fleet)
    path = emit_uplift_curves(fleet, args.rule, args.step_mw, args.out)
    print(path)
    return 0


# the demand-model options of run and curves
_MODEL_OPTIONS = {
    "--a": dict(type=float, help="elastic utility scale"),
    "--nu": dict(type=float, help="profile-to-fleet demand scale"),
    "--mu1": dict(type=float, help="inelastic share weight"),
    "--mu2": dict(type=float, help="elastic share weight"),
    "--utility-constant": dict(type=float, help="additive constant of the hourly utility"),
}
# The command line, read by both parsers: subcommand -> (help, function,
# options), each option's dict its add_argument keywords.
_COMMANDS = {
    "run": ("price and settle a 24-hour day", _cmd_run, {
        "--fleet": dict(required=True, help="gribik, scarf, or a path to a fleet JSON file"),
        "--method": dict(required=True,
                         choices=[method.replace("_", "-") for method in METHODS]),
        "--profile": dict(help="CSV day profile (hour,d1)"),
        "--synthetic": dict(metavar="MIN,MEAN,MAX",
                            help="synthetic diurnal profile statistics"),
        "--seed": dict(type=int, default=0),
        "--iters": dict(type=int),
        "--step": dict(default="paper", help="'paper' (builtin default) or 'c/k:VALUE'"),
        "--lambda0": dict(type=float),
        "--out": dict(required=True),
        "--jobs": dict(type=int, default=1),
        "--no-noise": dict(action="store_true", default=False),
        **_MODEL_OPTIONS}),
    "curves": ("tabulate cost curves over demand", _cmd_curves, {
        "--fleet": dict(required=True),
        "--step-mw": dict(type=float, default=1.0),
        "--out": dict(required=True),
        **_MODEL_OPTIONS}),
    "uplift-curve": ("tabulate price and uplift for a rule", _cmd_uplift_curve, {
        "--fleet": dict(required=True),
        "--rule": dict(required=True, choices=RULES),
        "--step-mw": dict(type=float, default=1.0),
        "--out": dict(required=True)}),
}
# a day profile comes from a file or from statistics, not both
_EXCLUSIVE = ("--profile", "--synthetic")


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for a well-formed argv, read off the option table.

    Takes a known subcommand, then exact flags each given once, each value
    one token that does not start with '-' and passes the option's type and
    choices, every required flag and not both exclusive ones.  Any other
    argv (--help, an abbreviation, --flag=value, --, a usage error) returns
    None and is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value reads as a flag
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if text.startswith("-") or value not in spec.get("choices", [value]):
            return None
        given[flag] = value
    if all(flag in given for flag in _EXCLUSIVE) or any(
            spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **{
        flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
        for flag, spec in options.items()})


def build_parser():
    """The argparse parser of the option table: it words --help and usage errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="chpricing",
        description="Convex hull pricing experiments for startup-cost fleets")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in _COMMANDS.items():
        command_p = sub.add_parser(command, help=help_text)
        day = command_p.add_mutually_exclusive_group() if _EXCLUSIVE[0] in options else None
        for flag, spec in options.items():
            (day if flag in _EXCLUSIVE else command_p).add_argument(flag, **spec)
        command_p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse is imported only for an argv the table's parser leaves to it
    args = _parse_exact(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))
    try:
        return args.func(args)
    except (FleetValidationError, InfeasibleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
