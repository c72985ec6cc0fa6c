import json

import numpy as np
import pytest

from crossdock.instance_io import (
    SchemaError,
    generate,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from crossdock.model import Solution, validation_issues

from conftest import tiny_two_truck


def test_instance_round_trip(nine_truck):
    again = parse_instance(serialize_instance(nine_truck))
    assert again == nine_truck


def test_generated_round_trip_preserves_numbers():
    inst = generate(3, n=4, m=2, capacity_ratio=0.5)
    again = parse_instance(serialize_instance(inst))
    assert again.arrival == inst.arrival
    assert again.capacity == inst.capacity
    assert again == inst


def test_solution_round_trip(s_star):
    assert parse_solution(serialize_solution(s_star)) == s_star


def test_empty_document_is_schema_error():
    with pytest.raises(SchemaError):
        parse_instance("{}")
    with pytest.raises(SchemaError):
        parse_solution("{}")


def test_unknown_keys_rejected(nine_truck):
    doc = json.loads(serialize_instance(nine_truck))
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="surprise"):
        parse_instance(doc)
    with pytest.raises(SchemaError, match="extra"):
        parse_solution({"dock": [0], "transfers": [], "extra": True})


def test_schema_errors_name_the_key():
    with pytest.raises(SchemaError, match="'arrival'"):
        parse_instance({
            "n": 1, "m": 1, "arrival": "nope", "departure": [1.0],
            "transfer_time": [[0.0]], "transfer_cost": [[0.0]],
            "flow": [[0.0]], "penalty": [[0.0]], "capacity": "unbounded",
        })
    with pytest.raises(SchemaError, match=r"transfer_time\[1\]"):
        parse_instance({
            "n": 1, "m": 1, "arrival": [0.0], "departure": [1.0],
            "transfer_time": [[0.0, 1.0]], "transfer_cost": [[0.0]],
            "flow": [[0.0]], "penalty": [[0.0]], "capacity": "unbounded",
        })


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("arrival", [0.0], "instance: key 'arrival' must be a list of 2 numbers"),
        ("arrival", [0.0, "2"], "instance: key 'arrival[2]' must be a number"),
        ("flow", [[0.0, 5.0]], "instance: key 'flow' must be a 2x2 matrix"),
        ("flow", [[0, 5], [0]], "instance: key 'flow[2]' must be a list of 2 numbers"),
        ("flow", [[0, 5], [0, True]], "instance: key 'flow[2][2]' must be a number"),
    ],
)
def test_number_schema_errors_are_pinned(key, value, message):
    # the matrix reads each row through the list reader, labelled key[r]
    doc = json.loads(serialize_instance(tiny_two_truck()))
    doc[key] = value
    with pytest.raises(SchemaError) as excinfo:
        parse_instance(doc)
    assert str(excinfo.value) == message


def test_capacity_unbounded_sentinel():
    doc = {
        "n": 1, "m": 1, "arrival": [0.0], "departure": [1.0],
        "transfer_time": [[0.0]], "transfer_cost": [[0.0]],
        "flow": [[0.0]], "penalty": [[0.0]], "capacity": "unbounded",
    }
    inst = parse_instance(doc)
    assert inst.capacity is None
    assert inst.unbounded_capacity
    doc["capacity"] = 12
    assert parse_instance(doc).capacity == 12.0
    doc["capacity"] = "lots"
    with pytest.raises(SchemaError, match="capacity"):
        parse_instance(doc)
    # null is not the file's spelling of an unbounded buffer
    doc["capacity"] = None
    with pytest.raises(SchemaError, match="'capacity' must be a number or 'unbounded'"):
        parse_instance(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dock": 5}, "solution: expected a sequence, got 5"),
        ({"dock": "12"}, "solution: expected a sequence, got '12'"),
        ({"dock": [1, 2.0]}, "solution: a truck or dock index must be an integer"),
        ({"dock": [1, 2], "transfers": 5}, "solution: expected a sequence, got 5"),
        ({"dock": [1, 2], "transfers": {}}, "solution: expected a sequence, got {}"),
        ({"dock": [1, 2], "transfers": [7]}, "solution: expected a sequence, got 7"),
        ({"dock": [1, 2], "transfers": [[1, 2, 1]]}, "solution: transfer (1, 2, 1) must have"),
        ({"dock": [1, 2], "transfers": [[1, 2, 1, True]]}, "must be an integer, got True"),
    ],
    ids=[
        "dock_int", "dock_str", "dock_float", "transfers_int", "transfers_dict",
        "transfer_int", "transfer_short", "transfer_bool",
    ],
)
def test_solution_schema_errors_come_from_the_constructor(doc, message):
    # the reader checks keys only; Solution's ValueError is raised as SchemaError
    with pytest.raises(SchemaError) as excinfo:
        parse_solution(doc)
    assert message in str(excinfo.value)


def test_solution_duplicate_pair_rejected():
    with pytest.raises(SchemaError, match="two transfers"):
        parse_solution(
            {"dock": [1, 1], "transfers": [[1, 2, 1, 1], [1, 2, 2, 2]]}
        )


def test_fixture_matches_printed_data(nine_truck):
    # spot checks against the printed matrices
    assert nine_truck.a(1) == 15.42 and nine_truck.d(7) == 18.05
    assert nine_truck.t(1, 2) == 1.0 and nine_truck.t(3, 4) == 5.0
    assert nine_truck.f(1, 3) == 190.0 and nine_truck.p(1, 3) == 190.0
    assert nine_truck.f(9, 9) == 200.0
    # the standing assumption zeroes flows toward already-departed trucks;
    # the penalty matrix stays as printed
    for (i, j) in ((3, 1), (3, 2), (4, 1), (4, 2), (7, 1), (7, 2)):
        assert nine_truck.f(i, j) == 0.0
        assert nine_truck.p(i, j) > 0.0
    assert nine_truck.capacity is None


def test_generator_determinism():
    a = generate(0, n=4, m=2, flow_density=1.0)
    b = generate(0, n=4, m=2, flow_density=1.0)
    assert a == b
    c = generate(1, n=4, m=2, flow_density=1.0)
    assert c != a


def test_generator_zero_density():
    inst = generate(5, n=4, m=2, flow_density=0.0)
    assert all(x == 0.0 for row in inst.flow for x in row)


def test_generator_always_valid():
    for seed in range(1000):
        inst = generate(seed, n=1 + seed % 4, m=1 + seed % 3,
                        flow_density=(seed % 5) / 4.0,
                        capacity_ratio=0.5 if seed % 2 else None)
        assert validation_issues(inst) == []


def test_generator_capacity_ratio():
    inst = generate(2, n=4, m=2, capacity_ratio=0.5)
    total = sum(
        inst.flow[i][j] for i in range(4) for j in range(4) if i != j
    )
    assert inst.capacity == max(1.0, round(0.5 * total))


@pytest.mark.parametrize("ratio", [float("inf"), float("nan"), -1.0, 0.0, 1e308])
def test_generator_rejects_a_ratio_outside_the_clis_rule(ratio):
    # the CLI's rule, 0 < ratio < inf, holds on the API too, and 1e308 obeys
    # it but scales the total flow to an infinite capacity
    with pytest.raises(ValueError, match="capacity ratio"):
        generate(0, n=4, m=2, capacity_ratio=ratio)


@pytest.mark.parametrize("density", [float("nan"), -0.5, 1.5])
def test_generator_rejects_a_flow_density_outside_the_clis_rule(density):
    # the CLI accepts a density in [0, 1]; before, NaN and -0.5 gave all-zero
    # flows and 1.5 the instance of 1.0
    with pytest.raises(ValueError, match="flow density"):
        generate(0, n=4, m=2, flow_density=density)


@pytest.mark.parametrize(
    "name, value",
    [
        ("flow_density", True),
        ("flow_density", "0.5"),
        ("flow_density", None),
        ("capacity_ratio", True),
        ("capacity_ratio", "0.1"),
    ],
)
def test_generator_refuses_a_bool_or_a_density_or_ratio_that_is_not_a_number(
    name, value
):
    # before, True read as 1.0 (a ratio of True wrote capacity 800 on this
    # instance) and a string or a None density raised TypeError
    with pytest.raises(ValueError, match=name.replace("_", " ")):
        generate(0, 3, 2, **{name: value})


@pytest.mark.parametrize(
    "seed, n, m", [(True, 3, 2), (0, True, 2), (0, 3, True), (1.5, 3, 2), (0, 3.0, 2)]
)
def test_generator_refuses_a_bool_or_non_integer_seed_n_or_m(seed, n, m):
    # before, a bool was stored as is and wrote a file that did not read back,
    # and a float failed inside numpy with a TypeError
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        generate(seed, n, m)


def test_generator_stores_numpy_integers_as_ints():
    inst = generate(np.int64(3), np.int64(4), np.uint8(2))
    assert inst == generate(3, 4, 2)
    assert [type(x) for x in (inst.seed, inst.n, inst.m)] == [int, int, int]
    assert parse_instance(serialize_instance(inst)) == inst


def test_unassigned_marker_is_zero():
    sol = Solution.empty(3)
    assert sol.dock == (0, 0, 0)
