"""Generator fleet domain model, built-in benchmark fleets, and fleet file I/O.

Money is in dollars, power in MW.  Fleet objects are immutable and hashable,
so they can be cached on and shipped to worker processes without copying.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "CostSegment",
    "GeneratorType",
    "Fleet",
    "FleetValidationError",
    "builtin_fleet",
    "load_fleet",
    "dump_fleet",
]

BUILTIN_FLEETS = ("gribik", "scarf")
_INF = float("inf")


class FleetValidationError(ValueError):
    """A fleet document or constructor argument breaks a structural invariant."""


def check_number(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Refuse a non-number, which a range comparison would meet as TypeError,
    and a bool, which it would read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")


def check_integer(name: str, value) -> int:
    """value as an int, refusing a bool and a count that range() would not
    take and int() would truncate."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CostSegment:
    """One linear piece of a unit's variable cost curve."""

    marginal_cost: float  # $/MWh
    capacity: float       # MW

    def __post_init__(self) -> None:
        for field in ("marginal_cost", "capacity"):
            check_number(f"segment {field}", getattr(self, field), FleetValidationError)
        # chained comparisons are False for NaN, so NaN is rejected too
        if not 0 < self.capacity < _INF:
            raise FleetValidationError(
                f"segment capacity must be finite and > 0, got {self.capacity}")
        if not 0 <= self.marginal_cost < _INF:
            raise FleetValidationError(
                f"segment marginal_cost must be finite and >= 0, got {self.marginal_cost}")


@dataclass(frozen=True)
class GeneratorType:
    """A group of identical units.

    Each unit pays ``startup_cost`` when committed and must then run between
    ``min_output`` and the sum of its segment capacities.  Variable cost is
    convex piecewise linear: segments are filled in order, so their marginal
    costs must be nondecreasing.
    """

    name: str
    startup_cost: float   # $ per committed unit
    min_output: float     # MW
    segments: tuple[CostSegment, ...]
    unit_count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.name:
            raise FleetValidationError("generator type name must be nonempty")
        for field in ("startup_cost", "min_output"):
            check_number(f"{self.name}: {field}", getattr(self, field), FleetValidationError)
        if not 0 <= self.startup_cost < _INF:
            raise FleetValidationError(
                f"{self.name}: startup_cost must be finite and >= 0, got {self.startup_cost}")
        if not self.segments:
            raise FleetValidationError(f"{self.name}: segments must be nonempty")
        costs = [s.marginal_cost for s in self.segments]
        if any(hi < lo for lo, hi in zip(costs, costs[1:])):
            raise FleetValidationError(
                f"{self.name}: segments not sorted by nondecreasing marginal cost")
        # finite fields can still sum to inf, which later arithmetic turns into NaN
        if not self.max_output < _INF:
            raise FleetValidationError(
                f"{self.name}: max_output must be finite, got {self.max_output}")
        if not self.full_output_cost < _INF:
            raise FleetValidationError(
                f"{self.name}: full-output cost must be finite, got {self.full_output_cost}")
        if not 0 <= self.min_output <= self.max_output:
            raise FleetValidationError(
                f"{self.name}: min_output {self.min_output} outside "
                f"[0, {self.max_output}]")
        try:
            count = check_integer("unit_count", self.unit_count)
        except ValueError:
            count = 0  # refused below, with the range in the message
        if count < 1:
            raise FleetValidationError(
                f"{self.name}: unit_count must be an integer >= 1, got {self.unit_count!r}")
        object.__setattr__(self, "unit_count", count)

    @cached_property
    def max_output(self) -> float:
        """Maximum output of one committed unit (MW)."""
        return sum(s.capacity for s in self.segments)

    @cached_property
    def full_output_cost(self) -> float:
        """Cost of one unit committed at maximum output: startup plus every
        segment's cost at full capacity ($)."""
        return self.startup_cost + sum(s.marginal_cost * s.capacity for s in self.segments)


@dataclass(frozen=True)
class Fleet:
    """An ordered collection of generator types."""

    types: tuple[GeneratorType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise FleetValidationError("fleet must contain at least one type")
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise FleetValidationError(f"duplicate type names in fleet: {names}")
        try:
            capacity = self.total_capacity
            full_cost = sum(t.unit_count * t.full_output_cost for t in self.types)
        except OverflowError:  # a unit count beyond float range
            capacity = full_cost = _INF
        if not capacity < _INF:
            raise FleetValidationError(f"fleet total_capacity must be finite, got {capacity}")
        if not full_cost < _INF:
            raise FleetValidationError(
                f"fleet full-output cost must be finite, got {full_cost}")

    @cached_property
    def total_capacity(self) -> float:
        """Fleet-wide maximum output with every unit committed (MW)."""
        return sum(t.unit_count * t.max_output for t in self.types)

    @property
    def total_units(self) -> int:
        return sum(t.unit_count for t in self.types)


def builtin_fleet(name: str) -> Fleet:
    """Return one of the bundled benchmark fleets: ``gribik`` or ``scarf``.

    ``gribik`` is the classic three-generator startup-cost example (600 MW);
    ``scarf`` is the modified Scarf economy with 16 units (161 MW).
    """
    if name == "gribik":
        return Fleet((
            GeneratorType("A", startup_cost=0.0, min_output=0.0,
                          segments=(CostSegment(65.0, 100.0),
                                    CostSegment(110.0, 100.0)),
                          unit_count=1),
            GeneratorType("B", startup_cost=6000.0, min_output=0.0,
                          segments=(CostSegment(40.0, 100.0),
                                    CostSegment(90.0, 100.0)),
                          unit_count=1),
            GeneratorType("C", startup_cost=8000.0, min_output=0.0,
                          segments=(CostSegment(25.0, 100.0),
                                    CostSegment(35.0, 100.0)),
                          unit_count=1),
        ))
    if name == "scarf":
        return Fleet((
            GeneratorType("Smokestack", startup_cost=53.0, min_output=0.0,
                          segments=(CostSegment(3.0, 16.0),),
                          unit_count=6),
            GeneratorType("HighTech", startup_cost=30.0, min_output=0.0,
                          segments=(CostSegment(2.0, 7.0),),
                          unit_count=5),
            GeneratorType("MedTech", startup_cost=0.0, min_output=2.0,
                          segments=(CostSegment(7.0, 6.0),),
                          unit_count=5),
        ))
    raise ValueError(f"unknown builtin fleet {name!r}; choose from {BUILTIN_FLEETS}")


def _number(raw: dict, key: str, label: str) -> float:
    """A JSON number field as a float; null, strings, booleans and containers are refused."""
    value = raw[key]
    check_number(f"{label}: {key}", value, FleetValidationError)
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float range
        raise FleetValidationError(f"{label}: {key} must be finite, got {value}") from None


def load_fleet(document: str) -> Fleet:
    """Parse a JSON fleet document.

    Expected shape::

        {"types": [{"name": ..., "startup_cost": ..., "min_output": ...,
                    "unit_count": ..., "segments": [{"marginal_cost": ...,
                                                     "capacity": ...}, ...]},
                   ...]}
    """
    import json  # here, not at the top: a builtin fleet reads no document

    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise FleetValidationError(f"fleet document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "types" not in doc:
        raise FleetValidationError("fleet document must be an object with a 'types' list")
    raw_types = doc["types"]
    if not isinstance(raw_types, list) or not raw_types:
        raise FleetValidationError("'types' must be a nonempty list")
    types = []
    for i, raw in enumerate(raw_types):
        name = raw.get("name") if isinstance(raw, dict) else None
        label = name if isinstance(name, str) and name else f"types[{i}]"
        if not isinstance(raw, dict):
            raise FleetValidationError(f"{label}: type entry must be an object")
        missing = {"name", "startup_cost", "min_output", "unit_count",
                   "segments"} - raw.keys()
        if missing:
            raise FleetValidationError(f"{label}: missing fields {sorted(missing)}")
        if not isinstance(name, str):
            raise FleetValidationError(f"{label}: name must be a string, got {name!r}")
        raw_segments = raw["segments"]
        if not isinstance(raw_segments, list) or not raw_segments:
            raise FleetValidationError(f"{label}: 'segments' must be a nonempty list")
        segments = []
        for j, seg in enumerate(raw_segments):
            if not isinstance(seg, dict) or {"marginal_cost", "capacity"} - seg.keys():
                raise FleetValidationError(
                    f"{label}: segments[{j}] must have marginal_cost and capacity")
            segments.append(CostSegment(
                _number(seg, "marginal_cost", f"{label}: segments[{j}]"),
                _number(seg, "capacity", f"{label}: segments[{j}]")))
        # an integral float such as 2.0 is a count; 2.7 is left for
        # GeneratorType to reject rather than truncated
        unit_count = raw["unit_count"]
        if isinstance(unit_count, float) and unit_count.is_integer():
            unit_count = int(unit_count)
        types.append(GeneratorType(
            name=name,
            startup_cost=_number(raw, "startup_cost", label),
            min_output=_number(raw, "min_output", label),
            segments=tuple(segments),
            unit_count=unit_count,
        ))
    return Fleet(tuple(types))


def dump_fleet(fleet: Fleet) -> str:
    """Serialize a fleet to the JSON document format accepted by load_fleet."""
    import json

    doc = {"types": [
        {
            "name": t.name,
            "startup_cost": t.startup_cost,
            "min_output": t.min_output,
            "unit_count": t.unit_count,
            "segments": [{"marginal_cost": s.marginal_cost, "capacity": s.capacity}
                         for s in t.segments],
        }
        for t in fleet.types
    ]}
    return json.dumps(doc, indent=2)
