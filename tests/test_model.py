import math

import numpy as np
import pytest

from crossdock import diagnosis, subproblem
from crossdock.formulations import Formulation, check_solution, objective_value
from crossdock.instance_io import generate
from crossdock.model import (
    Instance,
    InvalidInstanceError,
    Solution,
    _dock_array,
    compute_xhat,
    event_times,
    instance_flags,
    total_penalty_constant,
    validate_instance,
    validation_issues,
)
from crossdock.reproduce import reproduce_note


def test_fixture_is_valid_and_flagged_over_constrained(nine_truck):
    inst = validate_instance(nine_truck)
    assert inst.n == 9 and inst.m == 6
    assert instance_flags(inst) == ["over_constrained (n=9 > m=6)"]


def test_window_equality_is_inverted():
    inst = Instance(
        n=1,
        m=1,
        arrival=(0.0,),
        departure=(0.0,),
        transfer_time=((0.0,),),
        transfer_cost=((0.0,),),
        flow=((0.0,),),
        penalty=((0.0,),),
        capacity=None,
    )
    issues = validation_issues(inst)
    assert [(v.code, v.indices) for v in issues] == [("window_inverted", (1,))]
    with pytest.raises(InvalidInstanceError):
        validate_instance(inst)


def test_shape_mismatch_reported():
    # a shape is the constructor's check, so no instance of the wrong shape
    # reaches validation_issues
    with pytest.raises(ValueError, match=r"^'flow' must be a 2x2 matrix$"):
        Instance(
            n=2,
            m=1,
            arrival=(0.0, 0.0),
            departure=(1.0, 1.0),
            transfer_time=((0.0,),),
            transfer_cost=((0.0,),),
            flow=((0.0,) * 3,) * 3,  # 3x3 against n=2
            penalty=((0.0, 0.0), (0.0, 0.0)),
            capacity=None,
        )


def test_flow_against_departed_truck_is_an_error():
    # truck 2 departs (1.5) before truck 1 arrives (2.0) yet flow[1][2] > 0
    inst = Instance(
        n=2,
        m=1,
        arrival=(2.0, 1.0),
        departure=(3.0, 1.5),
        transfer_time=((0.0,),),
        transfer_cost=((0.0,),),
        flow=((0.0, 4.0), (0.0, 0.0)),
        penalty=((0.0, 1.0), (0.0, 0.0)),
        capacity=None,
    )
    issues = validation_issues(inst)
    assert [(v.code, v.indices) for v in issues] == [("flow_vs_time", (1, 2))]


NAN = float("nan")
INF = math.inf


def _two_trucks(**changes) -> Instance:
    fields = dict(
        n=2,
        m=2,
        arrival=(0.0, 1.0),
        departure=(2.0, 3.0),
        transfer_time=((0.0, 1.0), (1.0, 0.0)),
        transfer_cost=((0.0, 1.0), (1.0, 0.0)),
        flow=((0.0, 4.0), (0.0, 0.0)),
        penalty=((0.0, 5.0), (0.0, 0.0)),
        capacity=10.0,
    )
    fields.update(changes)
    return Instance(**fields)


@pytest.mark.parametrize(
    "changes, issue",
    [
        ({"arrival": (NAN, 1.0)}, ("not_a_number", (1,))),
        ({"departure": (2.0, NAN)}, ("not_a_number", (2,))),
        ({"transfer_time": ((0.0, NAN), (1.0, 0.0))}, ("not_a_number", (1, 2))),
        ({"transfer_cost": ((0.0, 1.0), (NAN, 0.0))}, ("not_a_number", (2, 1))),
        ({"flow": ((0.0, NAN), (0.0, 0.0))}, ("not_a_number", (1, 2))),
        ({"penalty": ((NAN, 5.0), (0.0, 0.0))}, ("not_a_number", (1, 1))),
        ({"capacity": NAN}, ("nonfinite_capacity", ())),
        ({"capacity": math.inf}, ("nonfinite_capacity", ())),
        ({"arrival": (-INF, 1.0)}, ("infinite_number", (1,))),
        ({"departure": (2.0, INF)}, ("infinite_number", (2,))),
        ({"transfer_time": ((0.0, INF), (1.0, 0.0))}, ("infinite_number", (1, 2))),
        ({"transfer_cost": ((0.0, 1.0), (INF, 0.0))}, ("infinite_number", (2, 1))),
        ({"flow": ((0.0, INF), (0.0, 0.0))}, ("infinite_number", (1, 2))),
        ({"flow": ((0.0, 4.0), (-INF, 0.0))}, ("infinite_number", (2, 1))),
        ({"penalty": ((0.0, INF), (0.0, 0.0))}, ("infinite_number", (1, 2))),
    ],
    ids=[
        "arrival", "departure", "transfer_time", "transfer_cost", "flow",
        "penalty", "capacity_nan", "capacity_inf", "arrival_inf",
        "departure_inf", "transfer_time_inf", "transfer_cost_inf", "flow_inf",
        "flow_minus_inf", "penalty_inf",
    ],
)
def test_non_finite_numbers_are_rejected(changes, issue):
    # NaN fails every comparison, so the sign, window and capacity checks
    # alone let it through; an infinite entry passes them too, and an
    # infinite penalty makes every objective infinite
    inst = _two_trucks(**changes)
    assert [(v.code, v.indices) for v in validation_issues(inst)] == [issue]
    with pytest.raises(InvalidInstanceError):
        validate_instance(inst)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"capacity": True}, "'capacity' must be a number"),
        ({"capacity": "5"}, "'capacity' must be a number"),
        ({"arrival": ("16.5", 2.0)}, "'arrival[1]' must be a number"),
        ({"arrival": (0.0, np.float64(1.0), 5)}, "'arrival' must be a list of 2 numbers"),
        ({"flow": ((0.0, 4.0), (np.bool_(True), 0.0))}, "'flow[2][1]' must be a number"),
        ({"flow": np.zeros((2, 2))}, "'flow' must be a 2x2 matrix"),
        ({"penalty": ((0.0, 5.0), [0.0])}, "'penalty[2]' must be a list of 2 numbers"),
        ({"n": 2.0}, "'n' must be an integer >= 1, got 2.0"),
        ({"m": True}, "'m' must be an integer >= 1, got True"),
        ({"m": 0}, "'m' must be an integer >= 1, got 0"),
        ({"name": None}, "'name' must be a string"),
        ({"seed": False}, "'seed' must be an integer, got False"),
    ],
    ids=[
        "capacity_bool", "capacity_str", "arrival_str", "arrival_length",
        "flow_numpy_bool", "flow_numpy_array", "penalty_row", "n_float", "m_bool",
        "m_zero", "name", "seed_bool",
    ],
)
def test_construction_refuses_what_it_cannot_read(changes, message):
    # every field used to pass through float(), so True read as 1.0 and "5"
    # as 5.0, and a wrong shape showed only later, in validation_issues
    with pytest.raises(ValueError) as excinfo:
        _two_trucks(**changes)
    assert str(excinfo.value) == message


def test_with_capacity_refuses_a_bool_or_a_string(nine_truck):
    for capacity in (True, "5"):
        with pytest.raises(ValueError, match="'capacity' must be a number"):
            nine_truck.with_capacity(capacity)
    # True used to read as capacity 1.0 and solve the note at that capacity
    with pytest.raises(ValueError, match="'capacity' must be a number"):
        reproduce_note(capacity=True)


def test_construction_keeps_numbers_and_stores_floats():
    inst = _two_trucks(
        n=np.int64(2),
        arrival=[0, np.float64(1.0)],
        flow=((0, 4), (0, 0)),
        capacity=10,
        seed=np.int32(7),
    )
    assert inst == _two_trucks(seed=7)
    assert type(inst.n) is int and type(inst.seed) is int
    assert all(type(x) is float for x in inst.arrival + inst.flow[0])
    assert type(inst.capacity) is float


def test_an_integer_beyond_float_range_reads_as_infinite():
    # float(10**400) raises OverflowError; the constructor reads it as the
    # infinity of its sign, as JSON reads 1e400, so validation names it
    inst = _two_trucks(flow=((0.0, 10**400), (-(10**400), 0.0)))
    assert inst.flow == ((0.0, INF), (-INF, 0.0))
    assert [(v.code, v.indices) for v in validation_issues(inst)] == [
        ("infinite_number", (1, 2)),
        ("infinite_number", (2, 1)),
    ]


def test_a_transfer_of_other_than_four_indices_is_refused():
    with pytest.raises(ValueError, match=r"^transfer \(1, 2, 1\) must have four indices"):
        Solution(dock=(1, 2), transfers=((1, 2, 1),))
    with pytest.raises(ValueError, match=r"transfer \(1, 2, 1, 2, 1\)"):
        Solution(dock=(1, 2), transfers=((1, 2, 1, 2, 1),))


def test_xhat_on_reference_instance(nine_truck):
    xhat = compute_xhat(nine_truck)
    assert xhat[0][2] == 1
    assert xhat[0][4] == 1  # boundary equality d_1 = a_5 = 16.41
    assert xhat[2][0] == 0  # d_3 = 18.00 > a_1 = 15.42
    assert all(xhat[i][i] == 0 for i in range(nine_truck.n))
    ones = tuple(
        (i + 1, j + 1) for i, row in enumerate(xhat) for j, x in enumerate(row) if x
    )
    assert ones == (
        (1, 3),
        (1, 4),
        (1, 5),
        (1, 7),
        (2, 3),
        (2, 4),
        (2, 5),
        (2, 7),
    )


def test_event_times_reference(nine_truck):
    events = event_times(nine_truck)
    assert len(events) == 18
    assert events[0] == 15.42
    assert events[17] == 18.05
    assert list(events) == sorted(events)


def test_event_times_trivial_cases():
    one = Instance(
        n=1,
        m=1,
        arrival=(0.0,),
        departure=(1.0,),
        transfer_time=((0.0,),),
        transfer_cost=((0.0,),),
        flow=((0.0,),),
        penalty=((0.0,),),
        capacity=None,
    )
    assert event_times(one) == (0.0, 1.0)
    dup = Instance(
        n=2,
        m=1,
        arrival=(1.0, 1.0),
        departure=(2.0, 2.0),
        transfer_time=((0.0,),),
        transfer_cost=((0.0,),),
        flow=((0.0, 0.0),) * 2,
        penalty=((0.0, 0.0),) * 2,
        capacity=None,
    )
    assert event_times(dup) == (1.0, 1.0, 2.0, 2.0)


def test_total_penalty_constant_examples(nine_truck):
    inst = Instance(
        n=2,
        m=1,
        arrival=(0.0, 2.0),
        departure=(1.0, 3.0),
        transfer_time=((0.0,),),
        transfer_cost=((0.0,),),
        flow=((0.0, 5.0), (0.0, 0.0)),
        penalty=((0.0, 2.0), (0.0, 0.0)),
        capacity=None,
    )
    assert total_penalty_constant(inst) == 10.0
    zero = Instance(
        n=2,
        m=1,
        arrival=(0.0, 2.0),
        departure=(1.0, 3.0),
        transfer_time=((0.0,),),
        transfer_cost=((0.0,),),
        flow=((0.0, 0.0),) * 2,
        penalty=((7.0, 7.0),) * 2,
        capacity=None,
    )
    assert total_penalty_constant(zero) == 0.0
    # direct-summation oracle values for the reference instance
    assert total_penalty_constant(nine_truck) == 1_692_200.0
    assert total_penalty_constant(nine_truck, include_diagonal=True) == 1_927_000.0


def test_xhat_monotone_in_arrival():
    # raising any arrival never flips a precedence bit from 1 to 0
    for seed in range(30):
        inst = generate(seed, n=4, m=2)
        before = compute_xhat(inst)
        j = seed % inst.n
        bumped = list(inst.arrival)
        bumped[j] += 0.5
        inst2 = Instance(
            n=inst.n,
            m=inst.m,
            arrival=tuple(bumped),
            departure=inst.departure,
            transfer_time=inst.transfer_time,
            transfer_cost=inst.transfer_cost,
            flow=inst.flow,
            penalty=inst.penalty,
            capacity=inst.capacity,
        )
        after = compute_xhat(inst2)
        for i in inst.trucks():
            if i != j + 1 and before[i - 1][j] == 1:
                assert after[i - 1][j] == 1


def test_event_length_property():
    for seed in range(50):
        inst = generate(seed, n=2 + seed % 4, m=1 + seed % 2)
        assert len(event_times(inst)) == 2 * inst.n


def test_xhat_never_symmetric_ones():
    for seed in range(50):
        inst = generate(seed, n=4, m=2)
        xhat = compute_xhat(inst)
        for i in inst.trucks():
            for j in inst.trucks():
                if i != j:
                    assert not (xhat[i - 1][j - 1] == 1 and xhat[j - 1][i - 1] == 1)


def test_dock_arrays_outside_the_instance_are_rejected(nine_truck, s_star):
    # every library entry point that reads a dock array checks it against the
    # instance: a short or long array, a dock outside 0..m or a transfer
    # outside the trucks and docks raises ValueError instead of answering
    # from wrapped or missing entries
    fx = nine_truck
    rest = (0,) * (fx.n - 2)
    bad_solutions = [
        Solution(dock=(1, 2)),
        Solution(dock=(1,) * (fx.n + 3)),
        # dock -1 read transfer_cost[-2][-2]
        Solution(dock=(-1, -1) + rest, transfers=((1, 2, -1, -1), (2, 1, -1, -1))),
        Solution(dock=(fx.m + 1,) + (0,) * (fx.n - 1)),
        Solution(dock=(1, 2) + rest, transfers=((1, fx.n + 1, 1, 2),)),
        Solution(dock=(1, 2) + rest, transfers=((1, 2, 1, fx.m + 1),)),
    ]
    for form in Formulation:
        for include_diagonal in (False, True):
            for sol in bad_solutions:
                with pytest.raises(ValueError):
                    objective_value(fx, sol, form, include_diagonal)
                with pytest.raises(ValueError):
                    check_solution(fx, sol, form, include_diagonal)
    bad_docks = [sol.dock for sol in bad_solutions[:4]]
    for dock in bad_docks:
        with pytest.raises(ValueError):
            _dock_array(fx, dock)
        for form in Formulation:
            with pytest.raises(ValueError):
                diagnosis.find_conflict(fx, dock, form)
        for call in (
            subproblem.optimal_transfers_rcrossdock,
            subproblem.induced_transfers_crossdock,
            subproblem.check_dock_conflicts,
        ):
            with pytest.raises(ValueError):
                call(fx, dock)
    # an array in range passes as it is, from a Solution or a sequence
    assert _dock_array(fx, s_star) == s_star.dock
    assert _dock_array(fx, list(s_star.dock)) == s_star.dock
    assert _dock_array(fx, (0,) * fx.n) == (0,) * fx.n
    assert _dock_array(fx, (fx.m,) * fx.n) == (fx.m,) * fx.n


@pytest.mark.parametrize("bad", [1.9, 2.5, 1.0, True, False, "1"])
def test_indices_that_are_not_integers_are_rejected(nine_truck, bad):
    # a float dock used to be truncated (1.9 read as dock 1, and the
    # checker called the truncated solution FEASIBLE), and a bool read as
    # dock 1 or 0; every such index now raises ValueError, in a Solution's
    # docks and transfers and in a plain dock array
    fx = nine_truck
    rest = (0,) * (fx.n - 2)
    with pytest.raises(ValueError, match="must be an integer"):
        Solution(dock=(bad, 2) + rest)
    with pytest.raises(ValueError, match="must be an integer"):
        Solution(dock=(1, 2) + rest, transfers=((bad, 2, 1, 2),))
    with pytest.raises(ValueError, match="must be an integer"):
        Solution(dock=(1, 2) + rest, transfers=((1, 2, 1, bad),))
    with pytest.raises(ValueError, match="must be an integer"):
        _dock_array(fx, (bad, 2) + rest)
    for form in Formulation:
        with pytest.raises(ValueError, match="must be an integer"):
            diagnosis.find_conflict(fx, (bad, 2.7) + rest, form)


def test_numpy_integer_indices_pass_as_ints(nine_truck, s_star):
    dock = np.array(s_star.dock, dtype=np.int64)
    transfers = np.array(s_star.transfers, dtype=np.int32)
    solution = Solution(dock=tuple(dock), transfers=tuple(map(tuple, transfers)))
    assert solution == s_star
    assert all(type(x) is int for x in solution.dock)
    assert _dock_array(nine_truck, dock) == s_star.dock
    for form in Formulation:
        assert check_solution(nine_truck, solution, form) == check_solution(
            nine_truck, s_star, form
        )
