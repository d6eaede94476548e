import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chpricing
import chpricing.cli
from chpricing import (
    CostSegment,
    Fleet,
    FleetValidationError,
    GeneratorType,
    builtin_fleet,
    dump_fleet,
    load_fleet,
)


NAN = float("nan")
INF = float("inf")


def one_type_document(**fields):
    raw = {"name": "X", "startup_cost": 0.0, "min_output": 0.0, "unit_count": 1,
           "segments": [{"marginal_cost": 1.0, "capacity": 1.0}]}
    raw.update(fields)
    return json.dumps({"types": [raw]})


def seg_pairs(gtype):
    return [(s.marginal_cost, s.capacity) for s in gtype.segments]


class TestBuiltinFixtures:
    def test_gribik_fields(self, gribik):
        assert [t.name for t in gribik.types] == ["A", "B", "C"]
        by_name = {t.name: t for t in gribik.types}
        assert by_name["A"].startup_cost == 0.0
        assert by_name["B"].startup_cost == 6000.0
        assert by_name["C"].startup_cost == 8000.0
        assert seg_pairs(by_name["A"]) == [(65.0, 100.0), (110.0, 100.0)]
        assert seg_pairs(by_name["B"]) == [(40.0, 100.0), (90.0, 100.0)]
        assert seg_pairs(by_name["C"]) == [(25.0, 100.0), (35.0, 100.0)]
        assert all(t.min_output == 0.0 for t in gribik.types)
        assert all(t.unit_count == 1 for t in gribik.types)
        assert gribik.total_capacity == 600.0

    def test_scarf_fields(self, scarf):
        by_name = {t.name: t for t in scarf.types}
        smoke, high, med = (by_name[n] for n in
                            ("Smokestack", "HighTech", "MedTech"))
        assert (smoke.startup_cost, high.startup_cost, med.startup_cost) == \
            (53.0, 30.0, 0.0)
        assert seg_pairs(smoke) == [(3.0, 16.0)]
        assert seg_pairs(high) == [(2.0, 7.0)]
        assert seg_pairs(med) == [(7.0, 6.0)]
        assert (smoke.unit_count, high.unit_count, med.unit_count) == (6, 5, 5)
        assert med.min_output == 2.0
        assert scarf.total_units == 16
        assert scarf.total_capacity == 161.0

    def test_max_output_is_segment_sum(self, gribik, scarf):
        for fleet in (gribik, scarf):
            for t in fleet.types:
                assert t.max_output == sum(s.capacity for s in t.segments)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_fleet("enron")


class TestValidation:
    def test_segments_must_be_sorted(self):
        with pytest.raises(FleetValidationError, match="not sorted"):
            GeneratorType("X", 0.0, 0.0,
                          (CostSegment(110.0, 100.0), CostSegment(65.0, 100.0)))

    def test_min_output_above_capacity(self):
        with pytest.raises(FleetValidationError):
            GeneratorType("X", 0.0, 7.0, (CostSegment(7.0, 6.0),))

    def test_empty_segments(self):
        with pytest.raises(FleetValidationError):
            GeneratorType("X", 0.0, 0.0, ())

    def test_nonpositive_segment_capacity(self):
        with pytest.raises(FleetValidationError):
            CostSegment(10.0, 0.0)

    def test_negative_marginal_cost(self):
        with pytest.raises(FleetValidationError):
            CostSegment(-1.0, 10.0)

    def test_bad_unit_count(self):
        with pytest.raises(FleetValidationError):
            GeneratorType("X", 0.0, 0.0, (CostSegment(1.0, 1.0),), unit_count=0)

    @pytest.mark.parametrize("count", [True, False])
    def test_boolean_unit_count(self, count):
        # bool is an int subclass; True would pass as a one-unit type
        with pytest.raises(FleetValidationError,
                           match=f"unit_count must be an integer >= 1, got {count}"):
            GeneratorType("X", 0.0, 0.0, (CostSegment(1.0, 1.0),), unit_count=count)

    @pytest.mark.parametrize("count", [2.5, 2.0, 0, -1, "2"])
    def test_unit_count_message(self, count):
        with pytest.raises(FleetValidationError,
                           match=f"^X: unit_count must be an integer >= 1, got {count!r}$"):
            GeneratorType("X", 0.0, 0.0, (CostSegment(1.0, 1.0),), unit_count=count)

    def test_numpy_integer_unit_count(self):
        # the count rule is fleet.check_integer's, as for commitment counts
        segments = (CostSegment(1.0, 1.0),)
        gtype = GeneratorType("X", 0.0, 0.0, segments, unit_count=np.int64(2))
        assert type(gtype.unit_count) is int
        assert gtype == GeneratorType("X", 0.0, 0.0, segments, unit_count=2)
        fleet = Fleet((gtype,))
        assert hash(fleet) == hash(Fleet((GeneratorType("X", 0.0, 0.0, segments, 2),)))
        assert load_fleet(dump_fleet(fleet)) == fleet

    def test_negative_startup(self):
        with pytest.raises(FleetValidationError):
            GeneratorType("X", -5.0, 0.0, (CostSegment(1.0, 1.0),))

    def test_empty_fleet(self):
        with pytest.raises(FleetValidationError):
            Fleet(())

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_nonfinite_marginal_cost(self, value):
        with pytest.raises(FleetValidationError, match="marginal_cost"):
            CostSegment(value, 10.0)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_nonfinite_segment_capacity(self, value):
        with pytest.raises(FleetValidationError, match="capacity"):
            CostSegment(10.0, value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_nonfinite_startup(self, value):
        with pytest.raises(FleetValidationError, match="startup_cost"):
            GeneratorType("X", value, 0.0, (CostSegment(1.0, 1.0),))


    @pytest.mark.parametrize("value", ["5", True, None])
    @pytest.mark.parametrize("field", ["marginal_cost", "capacity"])
    def test_segment_field_that_is_not_a_number(self, field, value):
        # "5" once met a comparison as TypeError, and True passed as 1
        fields = {"marginal_cost": 1.0, "capacity": 1.0, field: value}
        with pytest.raises(FleetValidationError,
                           match=f"^segment {field} must be a number, got {value!r}$"):
            CostSegment(**fields)

    @pytest.mark.parametrize("value", ["5", True, None])
    @pytest.mark.parametrize("field", ["startup_cost", "min_output"])
    def test_type_field_that_is_not_a_number(self, field, value):
        fields = {"startup_cost": 0.0, "min_output": 0.0, field: value}
        with pytest.raises(FleetValidationError,
                           match=f"^X: {field} must be a number, got {value!r}$"):
            GeneratorType("X", segments=(CostSegment(1.0, 1.0),), **fields)

    def test_overflowing_max_output(self):
        # each capacity is finite, their sum is not
        segments = (CostSegment(1.0, 1e308), CostSegment(2.0, 1e308))
        with pytest.raises(FleetValidationError,
                           match="^A: max_output must be finite, got inf$"):
            GeneratorType("A", 10.0, 0.0, segments)

    def test_overflowing_max_output_in_a_fleet_file(self, tmp_path, capsys):
        # it once reached the staircase as a NaN price
        path = tmp_path / "fleet.json"
        path.write_text(one_type_document(name="A", startup_cost=10.0, segments=[
            {"marginal_cost": 1.0, "capacity": 1e308},
            {"marginal_cost": 2.0, "capacity": 1e308}]))
        assert chpricing.cli.main(["run", "--fleet", str(path), "--method", "chp-exact",
                                   "--a", "1", "--nu", "1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: A: max_output must be finite, got inf\n"

    def test_overflowing_full_output_cost(self):
        with pytest.raises(FleetValidationError,
                           match="^X: full-output cost must be finite, got inf$"):
            GeneratorType("X", 0.0, 0.0, (CostSegment(1e300, 1e10),))

    @pytest.mark.parametrize("capacity, count", [(1e308, 3), (1.0, 10**400)])
    def test_overflowing_total_capacity(self, capacity, count):
        # the second count is beyond float range, which raised OverflowError
        gtype = GeneratorType("A", 0.0, 0.0, (CostSegment(1.0, capacity),), unit_count=count)
        with pytest.raises(FleetValidationError,
                           match="^fleet total_capacity must be finite, got inf$"):
            Fleet((gtype,))

    def test_overflowing_total_full_output_cost(self):
        # 1e308 dollars a type, twice
        types = [GeneratorType(name, 0.0, 0.0, (CostSegment(1e300, 1e8),)) for name in "AB"]
        with pytest.raises(FleetValidationError,
                           match="^fleet full-output cost must be finite, got inf$"):
            Fleet(types)

    def test_empty_name(self):
        with pytest.raises(FleetValidationError,
                           match="^generator type name must be nonempty$"):
            GeneratorType("", 0.0, 0.0, (CostSegment(1.0, 1.0),))

    def test_duplicate_type_names(self):
        gtype = GeneratorType("X", 0.0, 0.0, (CostSegment(1.0, 1.0),))
        with pytest.raises(FleetValidationError,
                           match=r"^duplicate type names in fleet: \['X', 'X'\]$"):
            Fleet((gtype, gtype))


class TestSerialization:
    @pytest.mark.parametrize("name", ["gribik", "scarf"])
    def test_round_trip(self, name):
        fleet = builtin_fleet(name)
        assert load_fleet(dump_fleet(fleet)) == fleet

    def test_load_unsorted_segments(self, gribik):
        doc = json.loads(dump_fleet(gribik))
        doc["types"][0]["segments"].reverse()
        with pytest.raises(FleetValidationError, match="not sorted"):
            load_fleet(json.dumps(doc))

    def test_load_min_above_capacity(self):
        doc = {"types": [{"name": "X", "startup_cost": 0.0, "min_output": 7.0,
                          "unit_count": 1,
                          "segments": [{"marginal_cost": 7.0, "capacity": 6.0}]}]}
        with pytest.raises(FleetValidationError, match="X"):
            load_fleet(json.dumps(doc))

    def test_load_missing_field(self):
        doc = {"types": [{"name": "X", "startup_cost": 0.0,
                          "segments": [{"marginal_cost": 1.0, "capacity": 1.0}]}]}
        with pytest.raises(FleetValidationError):
            load_fleet(json.dumps(doc))

    def test_load_not_json(self):
        with pytest.raises(FleetValidationError):
            load_fleet("types: nope")

    def test_load_missing_types_key(self):
        with pytest.raises(FleetValidationError):
            load_fleet(json.dumps({"fleet": []}))

    @pytest.mark.parametrize("fields", [
        {"startup_cost": NAN},
        {"segments": [{"marginal_cost": NAN, "capacity": 1.0}]},
        {"segments": [{"marginal_cost": 1.0, "capacity": INF}]},
    ])
    def test_load_nonfinite_number(self, fields):
        # json.dumps writes NaN and Infinity, which json.loads reads back
        with pytest.raises(FleetValidationError, match="finite"):
            load_fleet(one_type_document(**fields))

    @pytest.mark.parametrize("count", [2.7, "3", None, INF])
    def test_load_non_integral_unit_count(self, count):
        with pytest.raises(FleetValidationError, match="unit_count"):
            load_fleet(one_type_document(unit_count=count))

    @pytest.mark.parametrize("count", [True, False])
    def test_load_boolean_unit_count(self, count):
        with pytest.raises(FleetValidationError,
                           match=f"unit_count must be an integer >= 1, got {count}"):
            load_fleet(one_type_document(unit_count=count))

    def test_load_integral_float_unit_count(self):
        assert load_fleet(one_type_document(unit_count=3.0)).types[0].unit_count == 3

    @pytest.mark.parametrize("value", [None, [1.0], {"x": 1.0}, "3", True])
    @pytest.mark.parametrize("field", ["startup_cost", "min_output"])
    def test_load_non_numeric_type_field(self, field, value):
        with pytest.raises(FleetValidationError, match=f"X: {field} must be a number"):
            load_fleet(one_type_document(**{field: value}))

    @pytest.mark.parametrize("value", [None, [1.0], {"x": 1.0}, "3", True])
    @pytest.mark.parametrize("field", ["marginal_cost", "capacity"])
    def test_load_non_numeric_segment_field(self, field, value):
        seg = {"marginal_cost": 1.0, "capacity": 1.0, field: value}
        with pytest.raises(FleetValidationError,
                           match=rf"X: segments\[0\]: {field} must be a number"):
            load_fleet(one_type_document(segments=[seg]))

    def test_load_integer_beyond_float_range(self):
        document = one_type_document().replace('"startup_cost": 0.0',
                                               '"startup_cost": 1' + "0" * 400)
        with pytest.raises(FleetValidationError, match="startup_cost must be finite"):
            load_fleet(document)

    @pytest.mark.parametrize("name", [None, 3, ["X"]])
    def test_load_non_string_name(self, name):
        with pytest.raises(FleetValidationError, match=r"types\[0\]: name must be a string"):
            load_fleet(one_type_document(name=name))


    def test_load_empty_types(self):
        with pytest.raises(FleetValidationError, match="^'types' must be a nonempty list$"):
            load_fleet(json.dumps({"types": []}))

    def test_load_type_entry_that_is_not_an_object(self):
        with pytest.raises(FleetValidationError,
                           match=r"^types\[0\]: type entry must be an object$"):
            load_fleet(json.dumps({"types": [["X"]]}))

    def test_load_empty_segments(self):
        with pytest.raises(FleetValidationError,
                           match="^X: 'segments' must be a nonempty list$"):
            load_fleet(one_type_document(segments=[]))

    @pytest.mark.parametrize("seg", [{}, {"capacity": 1.0}, [1.0, 1.0]])
    def test_load_segment_without_its_keys(self, seg):
        with pytest.raises(FleetValidationError, match=(
                r"^X: segments\[0\] must have marginal_cost and capacity$")):
            load_fleet(one_type_document(segments=[seg]))


class TestHash:
    def test_equal_fleets_hash_equal(self, gribik):
        assert hash(load_fleet(dump_fleet(gribik))) == hash(gribik)

    def test_unpickled_fleet_rehashes_under_another_hash_seed(self, tmp_path):
        # type names are str, whose hashes differ between processes: a hash
        # cached here must not travel to a worker with another seed
        fleet = load_fleet(dump_fleet(builtin_fleet("gribik")))
        here = hash(fleet)
        blob = tmp_path / "fleet.pkl"
        blob.write_bytes(pickle.dumps(fleet))
        code = ("import pickle, sys; from chpricing import builtin_fleet; "
                "fleet = pickle.loads(open(sys.argv[1], 'rb').read()); "
                "print(hash(fleet), hash(builtin_fleet('gribik')))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(chpricing.__file__).resolve().parents[1]))
        there = []
        for seed in ("1", "2"):
            done = subprocess.run([sys.executable, "-c", code, str(blob)],
                                  env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                                  text=True, timeout=60, check=True)
            unpickled, fresh = done.stdout.split()
            assert unpickled == fresh
            there.append(int(fresh))
        # at least one child ran under a seed other than this process's
        assert any(h != here for h in there)
