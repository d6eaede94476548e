"""The records that the library returns: what their callers rely on.

A record is a ``typing.NamedTuple``: its fields in a fixed order (cli
writes hours.csv and summary.csv rows from them by position), a
``Name(field=value, ...)`` repr, no assignment, and a pickle round trip
(``--jobs`` workers send settled hours back to the parent).
"""
import pickle

import numpy as np
import pytest

import chpricing as ch
from chpricing import cli, ucp
from chpricing.pricing import PriceLoop, price_hours

FIELDS = {
    "HullPoint": ("demand", "hull_value", "price_lo", "price_hi"),
    "PricedHours": ("method", "hours", "step", "elapsed_s", "price", "demand",
                    "supply", "dual_value", "utility", "cost", "uplift"),
    "BestResponse": ("supply", "profit", "commitment", "dispatch"),
    "Dispatch": ("commitment", "unit_outputs", "total_output", "total_cost"),
    "_CommitmentTable": ("counts", "floor", "span", "lo", "hi", "base", "slopes",
                         "lines"),
    "HourResult": ("t", "price", "demand", "supply_cost", "uplift", "utility_gross",
                   "utility_net", "supplier_profit", "social_welfare"),
    "DaySummary": ("price_min", "price_mean", "price_max", "total_demand",
                   "total_utility_gross", "total_utility_net", "total_supplier_profit",
                   "total_social_welfare", "total_uplift"),
}

# the CSV files whose rows are records, by position: the header names
# the fields, shortened, then one column more
CSV_COLUMNS = {"HourResult": cli.HOURS_COLUMNS, "DaySummary": cli.SUMMARY_COLUMNS}
SHORT = (("supply_cost", "cost"), ("supplier_profit", "profit"),
         ("social_welfare", "welfare"))


@pytest.fixture(scope="module")
def records(scarf, scarf_model, day_profile):
    priced = price_hours("chp_subgradient", scarf, scarf_model, day_profile, range(3),
                         PriceLoop(10.0, 4, 0.01))
    settled = [ch.settle_hour(scarf, scarf_model, day_profile, t, 6.3125)
               for t in range(24)]
    return {
        "HullPoint": ch.hull_value(scarf, 7.5),
        "PricedHours": priced,
        "BestResponse": ch.best_response(scarf, 6.0),
        "Dispatch": ch.ucp_value(scarf, 7.5)[1],
        "_CommitmentTable": ucp._commitment_table(scarf),
        "HourResult": settled[5],
        "DaySummary": ch.summarize_day(settled),
    }


def header_of(fields):
    names = []
    for field in fields:
        for long, short in SHORT:
            field = field.replace(long, short)
        names.append(field)
    return tuple(names)


def same(a, b):
    """Field-by-field equality; arrays compare by value."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("name", FIELDS)
def test_record_shape(records, name):
    record = records[name]
    assert type(record).__name__ == name
    assert record._fields == FIELDS[name]
    if name in CSV_COLUMNS:
        assert header_of(record._fields) == CSV_COLUMNS[name][:-1]
    assert isinstance(record, tuple) and len(record) == len(FIELDS[name])
    assert repr(record) == f"{name}(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(FIELDS[name], record)) + ")"
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name][0], record[0])
    with pytest.raises(AttributeError):
        record.note = "added"
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and same(back, record)
