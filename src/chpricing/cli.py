"""Experiment harness and command line interface.

Subcommands:
  run           price a 24-hour day with one method, settle, write CSVs
  curves        tabulate the cost curves and first-hour utility over demand
  uplift-curve  tabulate price and uplift over demand for a pricing rule

Outputs are byte-identical across runs with the same configuration and
seed, except for the wall-clock column of trace.csv.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .fleet import Fleet, FleetValidationError, builtin_fleet, load_fleet
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
    HarmonicStep,
    PricedHours,
    check_loop_args,
    dispatchable_price,
    price_hours,
)
from .ucp import (
    MAX_GRID_POINTS,
    DegenerateCostError,
    InfeasibleError,
    QuadraticCost,
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
    """Everything needed to reproduce one day run."""

    fleet: str              # 'gribik', 'scarf', or a path to a fleet file
    method: str             # chp_subgradient | chp_exact | lmp | dispatchable
    out_dir: str
    a: float
    mu1: float
    mu2: float
    nu: float
    utility_constant: float
    lambda0: float
    n_iters: int
    step_coef: float | None  # None for the closed-form methods
    seed: int = 0
    jobs: int = 1
    no_noise: bool = False
    profile_path: str | None = None
    synthetic: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.method in ITERATIVE_METHODS:
            if self.step_coef is None:
                raise ValueError(f"{self.method} needs a step coefficient")
            check_loop_args(self.lambda0, self.n_iters)


def _resolve_fleet(source: str) -> Fleet:
    if source in FIXTURE_DEFAULTS:
        return builtin_fleet(source)
    return load_fleet(Path(source).read_text())


def _resolve_profile(config: ExperimentConfig) -> DayProfile:
    if config.profile_path is not None:
        base = load_profile(Path(config.profile_path).read_text())
    elif config.synthetic is not None:
        base = DayProfile(synthetic_profile(*config.synthetic))
    else:
        base = default_profile()
    noise = (0.0,) * HOURS if config.no_noise else sample_noise(config.seed)
    return DayProfile(base.base_demand, noise)


def _reprs(values: list[float]) -> list[str]:
    """The repr of each float, cut from one repr of the whole list."""
    return repr(values)[1:-1].split(", ")


def _trace_lines(priced: PricedHours) -> list[str]:
    """trace.csv lines of the priced hours, each cell the repr of its float."""
    steps, clocks = _reprs(priced.step.tolist()), _reprs(priced.elapsed_s.tolist())
    per_hour = zip(*([_reprs(hour) for hour in column.T.tolist()] for column in (
        priced.price, priced.demand, priced.supply, priced.dual_value, priced.uplift)))
    return [f"{t},{k},{price},{demand},{supply},{step},{phi},{up},{clock}"
            for t, columns in zip(priced.hours, per_hour)
            for k, (price, demand, supply, phi, up, step, clock)
            in enumerate(zip(*columns, steps, clocks), priced.first_k)]


def _run_hours(hours, fleet: Fleet, model: DemandModel, profile: DayProfile,
               method: str, lambda0: float, n_iters: int,
               step_rule: HarmonicStep | None, quad: QuadraticCost | None
               ) -> tuple[list[str], list[str], list[HourResult]]:
    """Price the hours with the method and settle each at its final row.

    Returns their trace.csv and hours.csv lines and the settled hours; an
    hour whose final demand no commitment covers (cost inf) is infeasible.
    """
    priced = price_hours(method, fleet, model, profile, hours, lambda0, n_iters,
                         step_rule, quad)
    hour_lines, settled = [], []
    finals = (column[-1].tolist() for column in (
        priced.price, priced.demand, priced.cost, priced.uplift))
    # price_hours' phi read these utilities, so none of them raises
    gross = _utility(model, _hour_terms(model, profile, priced.hours), priced.demand[-1])
    for t, price, demand, cost, up, utility in zip(priced.hours, *finals, gross.tolist()):
        if cost == math.inf:
            cells = [_fmt(price), _fmt(demand)] + [""] * 6 + ["infeasible"]
        else:
            result = hour_result(t, price, demand, cost, up, utility)
            settled.append(result)
            cells = [_fmt(x) for x in result[1:]] + ["ok"]
        hour_lines.append(",".join([str(t)] + cells))
    return _trace_lines(priced), hour_lines, settled


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: tuple[str, ...], lines: list[str]) -> None:
    path.write_text("\n".join([",".join(header)] + lines) + "\n")


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Price and settle the 24 hours; write hours.csv, trace.csv, summary.csv."""
    fleet = _resolve_fleet(config.fleet)
    model = DemandModel(a=config.a, mu1=config.mu1, mu2=config.mu2, nu=config.nu,
                        utility_constant=config.utility_constant)
    profile = _resolve_profile(config)
    step_rule = None if config.step_coef is None else HarmonicStep(config.step_coef)
    quad = quadratic_fit(fleet) if config.method == "lmp" else None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    worker = partial(_run_hours, fleet=fleet, model=model, profile=profile,
                     method=config.method, lambda0=config.lambda0,
                     n_iters=config.n_iters, step_rule=step_rule, quad=quad)
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
        summary_row = [_fmt(x) for x in summarize_day(settled)] + [str(HOURS)]
    else:
        # a broken day gets no aggregates, only the settled-hour count
        summary_row = [""] * 9 + [str(len(settled))]

    paths = {
        "hours": out / "hours.csv",
        "trace": out / "trace.csv",
        "summary": out / "summary.csv",
    }
    _write_csv(paths["hours"], HOURS_COLUMNS, hour_lines)
    _write_csv(paths["trace"], TRACE_COLUMNS, trace_lines)
    _write_csv(paths["summary"], SUMMARY_COLUMNS, [",".join(summary_row)])
    return paths


def _demand_grid(capacity: float, step_mw: float) -> list[float]:
    if not step_mw > 0:
        raise ValueError(f"step-mw must be > 0, got {step_mw}")
    if capacity / step_mw > MAX_GRID_POINTS:
        raise ValueError(
            f"step-mw {step_mw} over {capacity} MW makes more than "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS} demand points")
    grid = []
    y = 0.0
    while y < capacity - 1e-9:
        grid.append(y)
        y += step_mw
    grid.append(capacity)
    return grid


def _require_feasible(grid: list[float], values: np.ndarray) -> None:
    """Refuse a curve with a demand that no commitment covers (value +inf)."""
    uncovered = np.flatnonzero(np.isinf(values))
    if uncovered.size:
        raise InfeasibleError(f"no commitment can meet {grid[uncovered[0]]} MW")


def _write_columns(path: Path, header: tuple[str, ...], columns: list[list[str]]
                   ) -> None:
    _write_csv(path, header, [",".join(row) for row in zip(*columns)])


def emit_cost_curves(fleet: Fleet, grid_step: float, out_dir: str | Path,
                     model: DemandModel | None = None,
                     profile: DayProfile | None = None) -> Path:
    """Write curves.csv: the cost curves and the first hour's gross utility.

    Every cost column is one array over the grid.  The hull value is the
    relaxed cost (hull_value returns relaxed_value's), so both columns
    are cut from one.  Cells that are undefined are left empty: utility
    at or below the inelastic floor, and the quadratic fit of a fleet
    whose startup-free cost is zero everywhere.
    """
    grid = _demand_grid(fleet.total_capacity, grid_step)
    quadratic = [""] * len(grid)
    try:
        quadratic = _reprs(quadratic_fit(fleet).cost(np.array(grid)).tolist())
    except DegenerateCostError:
        pass
    values = ucp_values(fleet, grid)
    _require_feasible(grid, values)
    no_startup = no_startup_values(fleet, grid)
    relaxed = _reprs(relaxed_value(fleet, grid)[0].tolist())
    utility = [""] * len(grid)
    if model is not None and profile is not None:
        terms = _hour_terms(model, profile, (0,))
        # the grid ascends, so the rows above the inelastic floor are its tail
        above = int(np.searchsorted(grid, terms[0][0], side="right"))
        utility[above:] = map(_fmt, _utility(model, terms, grid[above:]).tolist())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "curves.csv"
    _write_columns(path, ("y", "v", "v_relaxed", "v_no_startup", "v_quadratic",
                          "v_hull", "U_1"),
                   [_reprs(grid), _reprs(values.tolist()), relaxed,
                    _reprs(no_startup.tolist()), quadratic, relaxed, utility])
    return path


def emit_uplift_curves(fleet: Fleet, rule: str, grid_step: float,
                       out_dir: str | Path) -> Path:
    """Write uplift_curve.csv: price and uplift over demand for one rule."""
    if rule not in ("chp", "dispatchable"):
        raise ValueError(f"rule must be 'chp' or 'dispatchable', got {rule}")
    grid = _demand_grid(fleet.total_capacity, grid_step)
    prices = (chp_fixed_demand if rule == "chp" else dispatchable_price)(fleet, grid)
    billed = uplifts(fleet, prices, grid)
    _require_feasible(grid, billed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "uplift_curve.csv"
    _write_columns(path, ("y", "price", "uplift"),
                   [_reprs(grid), _reprs(prices.tolist()), _reprs(billed.tolist())])
    return path


def _parse_step(text: str, fleet: str) -> float:
    if text == "paper":
        if fleet not in FIXTURE_DEFAULTS:
            raise ValueError(
                "--step paper needs a builtin fleet; use --step c/k:VALUE")
        return FIXTURE_DEFAULTS[fleet]["step_coef"]
    if text.startswith("c/k:"):
        # HarmonicStep validates the value
        return float(text[len("c/k:"):])
    raise ValueError(f"--step must be 'paper' or 'c/k:VALUE', got {text!r}")


def _parse_synthetic(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--synthetic needs MIN,MEAN,MAX, got {text!r}")
    low, mean, high = (float(p) for p in parts)
    return low, mean, high


def _model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, help="elastic utility scale")
    parser.add_argument("--nu", type=float, help="profile-to-fleet demand scale")
    parser.add_argument("--mu1", type=float, help="inelastic share weight")
    parser.add_argument("--mu2", type=float, help="elastic share weight")
    parser.add_argument("--utility-constant", type=float,
                        help="additive constant of the hourly utility")


def _setting(fleet: str, key: str, given):
    """The value given, else the builtin fleet's default, else a fleet file's."""
    if given is not None:
        return given
    defaults = FIXTURE_DEFAULTS.get(fleet, CUSTOM_FLEET_DEFAULTS)
    if key not in defaults:
        raise ValueError(f"--{key} is required for a custom fleet file")
    return defaults[key]


def _resolve_model_params(args: argparse.Namespace) -> dict[str, float]:
    return {key: _setting(args.fleet, key, getattr(args, key))
            for key in ("a", "nu", "mu1", "mu2", "utility_constant")}


def _cmd_run(args: argparse.Namespace) -> int:
    params = _resolve_model_params(args)
    method = args.method.replace("-", "_")
    config = ExperimentConfig(
        fleet=args.fleet,
        method=method,
        out_dir=args.out,
        lambda0=_setting(args.fleet, "lambda0", args.lambda0),
        n_iters=_setting(args.fleet, "n_iters", args.iters),
        step_coef=(_parse_step(args.step, args.fleet)
                   if method in ITERATIVE_METHODS else None),
        seed=args.seed,
        jobs=args.jobs,
        no_noise=args.no_noise,
        profile_path=args.profile,
        synthetic=_parse_synthetic(args.synthetic) if args.synthetic else None,
        **params,
    )
    paths = run_experiment(config)
    for name in ("hours", "trace", "summary"):
        print(paths[name])
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    fleet = _resolve_fleet(args.fleet)
    model = profile = None
    if args.fleet in FIXTURE_DEFAULTS or (args.a is not None and args.nu is not None):
        params = _resolve_model_params(args)
        model = DemandModel(**params)
        profile = default_profile()
    path = emit_cost_curves(fleet, args.step_mw, args.out, model, profile)
    print(path)
    return 0


def _cmd_uplift_curve(args: argparse.Namespace) -> int:
    fleet = _resolve_fleet(args.fleet)
    path = emit_uplift_curves(fleet, args.rule, args.step_mw, args.out)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chpricing",
        description="Convex hull pricing experiments for startup-cost fleets")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="price and settle a 24-hour day")
    run_p.add_argument("--fleet", required=True,
                       help="gribik, scarf, or a path to a fleet JSON file")
    run_p.add_argument("--method", required=True,
                       choices=["chp-subgradient", "chp-exact", "lmp", "dispatchable"])
    run_p.add_argument("--profile", help="CSV day profile (hour,d1)")
    run_p.add_argument("--synthetic", metavar="MIN,MEAN,MAX",
                       help="synthetic diurnal profile statistics")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--iters", type=int, default=None)
    run_p.add_argument("--step", default="paper",
                       help="'paper' (builtin default) or 'c/k:VALUE'")
    run_p.add_argument("--lambda0", type=float, default=None)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.add_argument("--no-noise", action="store_true")
    _model_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    curves_p = sub.add_parser("curves", help="tabulate cost curves over demand")
    curves_p.add_argument("--fleet", required=True)
    curves_p.add_argument("--step-mw", type=float, default=1.0)
    curves_p.add_argument("--out", required=True)
    _model_args(curves_p)
    curves_p.set_defaults(func=_cmd_curves)

    uplift_p = sub.add_parser("uplift-curve",
                              help="tabulate price and uplift for a rule")
    uplift_p.add_argument("--fleet", required=True)
    uplift_p.add_argument("--rule", required=True, choices=["chp", "dispatchable"])
    uplift_p.add_argument("--step-mw", type=float, default=1.0)
    uplift_p.add_argument("--out", required=True)
    uplift_p.set_defaults(func=_cmd_uplift_curve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FleetValidationError, InfeasibleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
