"""Convex hull pricing for electricity markets with startup-cost fleets.

The library prices a fleet of generator types with startup costs and
minimum output levels against elastic hourly demand, compares hull
prices with marginal-cost and dispatchable benchmarks, and settles the
resulting market outcomes.
"""
import os
import sys

# numpy's bundled OpenBLAS starts one thread per core when numpy loads;
# chpricing's only BLAS work is one small least-squares fit, so a pool
# buys nothing, and its spinning thread can cost start-up time.  Pin it to
# one thread while numpy loads, then restore the environment.  Left alone
# when numpy is already loaded or the caller set a thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .fleet import (
    CostSegment,
    Fleet,
    FleetValidationError,
    GeneratorType,
    builtin_fleet,
    dump_fleet,
    load_fleet,
)
from .hull import (
    HullPoint,
    chp_fixed_demand,
    default_price_cap,
    hull_value,
    uplift,
    uplifts,
)
from .market import (
    DayProfile,
    DemandModel,
    consumer_best_response,
    default_profile,
    hourly_demand,
    hourly_utility,
    inelastic_share,
    load_profile,
    sample_noise,
    synthetic_profile,
)
from .pricing import (
    HarmonicStep,
    IterateRecord,
    PricedHours,
    PricingTrace,
    dispatchable_equilibrium,
    dispatchable_price,
    dual_value,
    exact_dual,
    lmp_equilibrium,
    price_hours,
    run_lmp,
    run_subgradient,
)
from .ucp import (
    BestResponse,
    Commitment,
    Dispatch,
    InfeasibleError,
    QuadraticCost,
    best_response,
    conjugate,
    dispatch_committed,
    fleet_supply,
    no_startup_value,
    quadratic_fit,
    relaxed_value,
    ucp_value,
    ucp_values,
)
from .welfare import DaySummary, HourResult, settle_hour, summarize_day
from .cli import (
    ExperimentConfig,
    emit_cost_curves,
    emit_uplift_curves,
    main,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponse",
    "Commitment",
    "CostSegment",
    "DayProfile",
    "DaySummary",
    "DemandModel",
    "Dispatch",
    "ExperimentConfig",
    "Fleet",
    "FleetValidationError",
    "GeneratorType",
    "HarmonicStep",
    "HourResult",
    "HullPoint",
    "InfeasibleError",
    "IterateRecord",
    "PricedHours",
    "PricingTrace",
    "QuadraticCost",
    "best_response",
    "builtin_fleet",
    "chp_fixed_demand",
    "conjugate",
    "consumer_best_response",
    "default_price_cap",
    "default_profile",
    "dispatch_committed",
    "dispatchable_equilibrium",
    "dispatchable_price",
    "dual_value",
    "dump_fleet",
    "emit_cost_curves",
    "emit_uplift_curves",
    "exact_dual",
    "fleet_supply",
    "hourly_demand",
    "hourly_utility",
    "hull_value",
    "inelastic_share",
    "lmp_equilibrium",
    "load_fleet",
    "load_profile",
    "main",
    "no_startup_value",
    "price_hours",
    "quadratic_fit",
    "relaxed_value",
    "run_experiment",
    "run_lmp",
    "run_subgradient",
    "sample_noise",
    "settle_hour",
    "summarize_day",
    "synthetic_profile",
    "ucp_value",
    "ucp_values",
    "uplift",
    "uplifts",
    "__version__",
]
