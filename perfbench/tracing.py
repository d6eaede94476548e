"""Span tracing of chpricing's public functions, from outside the library.

``Tracer.install`` wraps each function in ``WRAPPED`` and rebinds the
wrapper in every ``chpricing`` module that bound the original (``ucp_value``
is imported into hull, welfare, cli and the package itself, for example),
so every call goes through exactly one wrapper and is counted once.  A span
is (name, parent span, start, end); spans are kept in compact arrays and
written as one ``.npz`` file when the command ends.  A span's self time is
its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

# module -> public functions traced as spans
WRAPPED = {
    "fleet": ("load_fleet",),
    "market": ("hourly_demand", "hourly_utility"),
    "ucp": ("ucp_value", "dispatch_committed", "no_startup_value", "quadratic_fit",
            "best_response", "conjugate", "fleet_supply", "relaxed_value",
            "relaxed_supply"),
    "hull": ("bisect_first_true", "hull_value", "uplift"),
    "pricing": ("dual_value", "run_subgradient", "run_lmp", "exact_dual",
                "dispatchable_equilibrium"),
    "welfare": ("settle_hour",),
    "cli": ("run_experiment", "emit_cost_curves", "emit_uplift_curves"),
}

# the supply-crossing layer: the bisections and what they evaluate
CROSSING = ("hull.bisect_first_true", "ucp.fleet_supply", "ucp.relaxed_supply",
            "hull.hull_value")

# per-layer metrics reported with --trace 1, in report order: (name, unit)
LAYER_METRICS = (
    ("ucp.ucp_value.calls", "count"),
    ("ucp.ucp_value.self_s", "s"),
    ("ucp.dispatch_committed.calls", "count"),
    ("ucp.dispatch_per_value", "ratio"),
    ("ucp.no_startup_value.calls", "count"),
    ("ucp.quadratic_fit.calls", "count"),
    ("ucp.quadratic_fit.self_s", "s"),
    ("hull.bisect_first_true.calls", "count"),
    ("hull.bisect_first_true.evals_per_call", "ratio"),
    ("ucp.fleet_supply.calls", "count"),
    ("ucp.fleet_supply.self_s", "s"),
    ("ucp.relaxed_supply.calls", "count"),
    ("ucp.relaxed_supply.self_s", "s"),
    ("hull.hull_value.calls", "count"),
    ("hull.hull_value.self_s", "s"),
    ("pricing.exact_dual.self_s", "s"),
    ("pricing.dispatchable_equilibrium.self_s", "s"),
    ("ucp.best_response.calls", "count"),
    ("ucp.best_response.self_s", "s"),
    ("ucp.conjugate.calls", "count"),
    ("ucp.conjugate.self_s", "s"),
    ("market.hourly_demand.calls", "count"),
    ("market.hourly_demand.self_s", "s"),
    ("market.hourly_utility.calls", "count"),
    ("pricing.run_subgradient.self_s", "s"),
    ("pricing.run_lmp.self_s", "s"),
    ("pricing.dual_value.calls", "count"),
    ("hull.uplift.calls", "count"),
    ("hull.uplift.self_s", "s"),
    ("welfare.settle_hour.calls", "count"),
    ("welfare.settle_hour.self_s", "s"),
    ("ucp.relaxed_value.self_s", "s"),
    ("cli.run_experiment.self_s", "s"),
    ("cli.emit_cost_curves.self_s", "s"),
    ("cli.emit_uplift_curves.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("fleet.load_fleet.self_s", "s"),
    ("ucp.self_share", "ratio"),
    ("crossing.self_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.bisect_evals = 0
        self._stack = [-1]

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def _count_evals(self, bisect):
        """bisect_first_true with its predicate counted on each evaluation."""
        @functools.wraps(bisect)
        def counted_bisect(pred, *args, **kwargs):
            def counted(x):
                self.bisect_evals += 1
                return pred(x)
            return bisect(counted, *args, **kwargs)
        return counted_bisect

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a chpricing module binds it."""
        for module_name, functions in WRAPPED.items():
            module = importlib.import_module(f"chpricing.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                inner = (self._count_evals(original)
                         if fn_name == "bisect_first_true" else original)
                wrapper = self._span(f"{module_name}.{fn_name}", inner)
                for name, mod in list(sys.modules.items()):
                    if name != "chpricing" and not name.startswith("chpricing."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64),
                 bisect_evals=np.int64(self.bisect_evals))


@dataclass
class SpanTotals:
    """Per span name: calls, total seconds and self seconds, summed over commands."""

    calls: dict[str, int] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    bisect_evals: int = 0

    def add_file(self, path) -> None:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            ids = data["name_ids"]
            parents = data["parents"]
            duration = data["ends"] - data["starts"]
            self.bisect_evals += int(data["bisect_evals"])
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        own = duration - child_time
        calls = np.bincount(ids, minlength=len(names))
        total = np.bincount(ids, weights=duration, minlength=len(names))
        self_time = np.bincount(ids, weights=own, minlength=len(names))
        for i, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + int(calls[i])
            self.total_s[name] = self.total_s.get(name, 0.0) + float(total[i])
            self.self_s[name] = self.self_s.get(name, 0.0) + float(self_time[i])


def layer_metrics(spans: SpanTotals, traced_wall_s: float, overhead_ratio: float,
                  bytes_written: int) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced pass over a workload.

    ``traced_wall_s`` is the pass's measured wall time, the base of the
    self-time shares; ``overhead_ratio`` is its host-speed-scaled wall time
    over that of the untraced pass run next to it.
    """
    def calls(name: str) -> int:
        return spans.calls.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {
        "ucp.dispatch_per_value": ratio(calls("ucp.dispatch_committed"),
                                        calls("ucp.ucp_value")),
        "hull.bisect_first_true.evals_per_call": ratio(
            spans.bisect_evals, calls("hull.bisect_first_true")),
        "cli.bytes_written": bytes_written,
        "ucp.self_share": ratio(sum(v for k, v in spans.self_s.items()
                                    if k.startswith("ucp.")), traced_wall_s),
        "crossing.self_share": ratio(sum(spans.self_s.get(k, 0.0) for k in CROSSING),
                                     traced_wall_s),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for metric, _unit in LAYER_METRICS:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        span, stat = metric.rsplit(".", 1)
        table = spans.calls if stat == "calls" else spans.self_s
        out[metric] = table.get(span, 0)
    return out
