import dataclasses
import itertools
import math
import random
import time

import pytest

from crossdock import subproblem
from crossdock.exact import (
    Budget,
    InstanceTooLargeError,
    branch_and_bound,
    brute_force,
    compare_models,
    _Tables,
    _UNDOCKED,
    _oracle_solution,
)
from crossdock.formulations import (
    Formulation,
    check_solution,
    compile_rules,
    objective_value,
)
from crossdock.instance_io import generate
from crossdock.model import (
    EPS,
    Instance,
    InvalidInstanceError,
    Solution,
    total_penalty_constant,
)
from crossdock.vns import VnsConfig, _repair, vns_solve

from conftest import touching_windows, within_eps

CD = Formulation.CROSS_DOCK
RCD = Formulation.R_CROSS_DOCK


def _single_truck_instance():
    return Instance(
        n=1,
        m=2,
        arrival=(0.0,),
        departure=(1.0,),
        transfer_time=((0.0, 1.0), (1.0, 0.0)),
        transfer_cost=((0.0, 1.0), (1.0, 0.0)),
        flow=((3.0,),),
        penalty=((2.0,),),
        capacity=None,
    )


def test_single_truck_trivial():
    inst = _single_truck_instance()
    for form in (CD, RCD):
        result = branch_and_bound(inst, form)
        assert result.objective.total == 0.0
        assert result.proven_optimal
        assert result.nodes_explored >= 1
        assert brute_force(inst, form).objective.total == 0.0


def test_two_truck_optimum_zero_when_windows_allow():
    # sequential windows, one dock, zero same-dock operation time
    inst = Instance(
        n=2,
        m=1,
        arrival=(0.0, 2.0),
        departure=(1.0, 3.0),
        transfer_time=((0.0,),),
        transfer_cost=((5.0,),),
        flow=((0.0, 5.0), (0.0, 0.0)),
        penalty=((0.0, 2.0), (0.0, 0.0)),
        capacity=None,
    )
    result = brute_force(inst, CD)
    assert result.objective.total == 0.0
    assert result.best.dock == (1, 1)
    assert branch_and_bound(inst, CD).objective.total == 0.0


def test_all_pairs_time_infeasible_pays_every_penalty():
    # overlapping windows and huge transfer times: nothing ships, any
    # feasible assignment scores the penalty constant
    inst = Instance(
        n=3,
        m=2,
        arrival=(0.0, 0.1, 0.2),
        departure=(5.0, 5.1, 5.2),
        transfer_time=((9.0, 9.0), (9.0, 9.0)),
        transfer_cost=((1.0, 1.0), (1.0, 1.0)),
        flow=tuple(
            tuple(10.0 if i != j else 0.0 for j in range(3)) for i in range(3)
        ),
        penalty=tuple(
            tuple(3.0 if i != j else 0.0 for j in range(3)) for i in range(3)
        ),
        capacity=None,
    )
    for form in (CD, RCD):
        result = brute_force(inst, form)
        assert result.objective.total == total_penalty_constant(inst)
        assert check_solution(inst, result.best, form).feasible


def test_oracle_equivalence_sample():
    # the full 50-seed sweep lives in the acceptance suite
    for seed in range(8):
        inst = generate(seed, n=2 + seed % 3, m=1 + seed % 2, flow_density=1.0)
        for form in (CD, RCD):
            bb = branch_and_bound(inst, form)
            bf = brute_force(inst, form)
            assert bb.objective.total == bf.objective.total
            assert bb.proven_optimal and bf.proven_optimal


def test_oracle_equivalence_with_binding_capacity():
    for seed in range(8):
        inst = generate(seed, n=4, m=2, flow_density=1.0, capacity_ratio=0.3)
        for form in (CD, RCD):
            bb = branch_and_bound(inst, form)
            bf = brute_force(inst, form)
            assert bb.objective.total == bf.objective.total


def test_strict_literal_mode_oracle_equivalence():
    for seed in range(6):
        unbounded = generate(seed, n=3, m=2, flow_density=1.0)
        binding = generate(seed, n=3, m=2, capacity_ratio=0.3)
        for form in (CD, RCD):
            optima = []
            for inst in (unbounded, binding):
                bb = branch_and_bound(inst, form, include_diagonal=True)
                bf = brute_force(inst, form, include_diagonal=True)
                assert bb.objective.total == bf.objective.total
                recomputed = objective_value(inst, bb.best, form, include_diagonal=True)
                assert recomputed.total == bb.objective.total
                optima.append(bb.objective.total)
            # the capacity binds, yet some transfers still ship
            nothing_ships = total_penalty_constant(binding, True)
            assert optima[0] < optima[1] < nothing_ships, (seed, form)


@pytest.mark.parametrize(
    "build, rcd_optima",
    [(touching_windows, (32.5, 42.0, 42.0)), (within_eps, (11.5, 26.5, 24.5))],
    ids=["touching", "within-eps"],
)
def test_bnb_matches_brute_force_at_the_eps_boundary_under_a_binding_buffer(
    build, rcd_optima
):
    # margins of exactly 0 and events within EPS of each other, unbounded and
    # at capacities 2 and 4, where the R-CROSS-DOCK optimum rises; every
    # selectable transfer holds a forward interval, so the selection kernel,
    # which rejects a negative unit, accepts the items of both solvers
    for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
        optima = []
        for capacity in (None, 2.0, 4.0):
            inst = build().with_capacity(capacity)
            bb = branch_and_bound(inst, form, include_diagonal=include_diagonal)
            brute = brute_force(inst, form, include_diagonal=include_diagonal)
            assert bb.proven_optimal
            assert bb.objective.total == brute.objective.total, (capacity, form)
            optima.append(bb.objective.total)
        if form is RCD:
            assert tuple(optima) == rcd_optima, include_diagonal


def _gain_within_eps() -> Instance:
    """Shipping 1 -> 2 from dock 1 to dock 2 gains 5e-10, below EPS: the
    selection never ships it, so neither may the tables."""
    return Instance(
        n=2,
        m=2,
        arrival=(0.0, 0.0),
        departure=(10.0, 10.0),
        transfer_time=((0.0, 1.0), (1.0, 0.0)),
        transfer_cost=((0.0, 1.0), (1.0, 0.0)),
        flow=((0.0, 1.0), (0.0, 0.0)),
        penalty=((0.0, 1.0000000005), (0.0, 0.0)),
        capacity=None,
    )


def _check_leaf_value_against_built(inst, assignments) -> int:
    """Assert that the full ``leaf_value`` of every clash-free assignment
    agrees with objective_value of the solution the subproblem functions
    build, and that ``build_solution`` builds that very solution, in both
    models and diagonal modes. Returns how many values capacity changed from
    the uncapped table value (an overflow included)."""
    changed = 0
    for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
        tables = _Tables(inst, form, include_diagonal)
        for y0 in assignments:
            y0 = list(y0)
            if tables.fast_value(y0) == math.inf:
                continue
            result = tables.leaf_value(y0)
            # the slow twin of build_solution: the oracle's route, which
            # never reads the tables' pair, unary or choice data
            built = _oracle_solution(tables, y0)
            where = (inst.name, inst.capacity, form, include_diagonal, y0)
            assert tables.build_solution(y0) == built, where
            assert (result is None) == (built is None), where
            if built is None:  # the forced transfers overflow the buffer
                changed += 1
                continue
            expected = objective_value(inst, built, form, include_diagonal).total
            assert result == pytest.approx(expected, rel=1e-12), where
            changed += result != pytest.approx(tables.fast_value(y0), rel=1e-12)
    return changed


def test_fast_path_matches_the_built_solution():
    # with capacity unbounded, the table value of every feasible assignment
    # equals objective_value of the transfer set the subproblem builds for it,
    # self-transfer terms and gains within EPS included
    instances = [
        generate(seed, n, m) for seed in range(4) for n, m in ((1, 1), (2, 1), (3, 2))
    ] + [_gain_within_eps()]
    for inst in instances:
        options = list(range(inst.m)) + [_UNDOCKED]
        assignments = list(itertools.product(options, repeat=inst.n))
        assert _check_leaf_value_against_built(inst, assignments) == 0
    tables = _Tables(_gain_within_eps(), RCD, False)
    assert tables.leaf_value([0, 1]) == 1.0000000005


def test_capacity_value_matches_the_built_solution(nine_truck):
    # under a binding capacity the table value plus the gain the selection
    # gives up equals the built solution's objective
    changed = 0
    shapes = ((1, 1), (2, 1), (3, 2), (4, 2))
    for seed, (n, m), ratio in itertools.product(range(3), shapes, (0.05, 0.1)):
        inst = generate(seed, n, m, capacity_ratio=ratio)
        options = list(range(inst.m)) + [_UNDOCKED]
        changed += _check_leaf_value_against_built(
            inst, list(itertools.product(options, repeat=n))
        )
    # the fixture has (m+1)^n = 7^9 assignments: a seeded sample, half the
    # trucks docked on average
    rng = random.Random(0)
    fixture = nine_truck.with_capacity(1000)
    sample = [
        [rng.randrange(fixture.m) if rng.random() < 0.5 else _UNDOCKED for _ in range(fixture.n)]
        for _ in range(150)
    ]
    changed += _check_leaf_value_against_built(fixture, sample)
    assert changed > 0, "capacity never changes a value; the test is vacuous"


def _non_integer(inst: Instance) -> Instance:
    """A copy with flows / 3 and penalties x 0.7: sums that round."""
    return dataclasses.replace(
        inst,
        flow=tuple(tuple(f / 3 for f in row) for row in inst.flow),
        penalty=tuple(tuple(p * 0.7 for p in row) for row in inst.penalty),
    )


def test_leaf_value_drops_exactly_the_leaves_that_cannot_beat_the_target():
    # for every clash-free assignment: None iff the full value misses
    # target - EPS (or the CROSS-DOCK forced load overflows), and the full
    # value otherwise, for targets on both sides of the value. The full value
    # comes from fresh tables, which share no selection memo with the tables
    # under test
    priced = changed = 0
    for seed, n, ratio in itertools.product(range(3), (3, 4), (0.05, 0.1)):
        generated = generate(seed, n, 2, capacity_ratio=ratio)
        for inst in (generated, _non_integer(generated)):
            options = list(range(inst.m)) + [_UNDOCKED]
            for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
                tables = _Tables(inst, form, include_diagonal)
                full = _Tables(inst, form, include_diagonal)
                for y0 in itertools.product(options, repeat=n):
                    y0 = list(y0)
                    if tables.fast_value(y0) == math.inf:
                        continue
                    value = full.leaf_value(y0)
                    where = (inst.name, inst.flow[0], form, include_diagonal, y0)
                    if value is None:
                        assert tables.leaf_value(y0, math.inf) is None, where
                        continue
                    for target in (value - 1, value, value + EPS / 2, value + 1):
                        expected = None if value >= target - EPS else value
                        assert tables.leaf_value(y0, target) == expected, (where, target)
                    priced += 1
                    changed += value != tables.fast_value(y0)
    assert changed > priced // 10, (priced, changed)


def test_a_target_the_table_value_misses_is_dropped_before_the_buffer(nine_truck, monkeypatch):
    # the buffer only adds to the table value, so a target that fast_value
    # already misses is answered None without building the choice; a target
    # above it still reaches the buffer
    fixture = nine_truck.with_capacity(1000)
    built = []
    choice = _Tables._choice

    def counted(self, y0):
        built.append(tuple(y0))
        return choice(self, y0)

    monkeypatch.setattr(_Tables, "_choice", counted)
    rng = random.Random(1)
    checked = 0
    for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
        tables = _Tables(fixture, form, include_diagonal)
        for _ in range(100):
            y0 = [rng.randrange(fixture.m) if rng.random() < 0.5 else _UNDOCKED for _ in range(fixture.n)]
            value = tables.fast_value(y0)
            if value == math.inf:
                continue
            for target in (value - 1, value, value + EPS / 2):
                assert tables.leaf_value(y0, target) is None, (form, y0, target)
            assert not built, (form, include_diagonal, y0)
            tables.leaf_value(y0, value + 1)
            assert built == [tuple(y0)], (form, include_diagonal, y0)
            built.clear()
            checked += 1
    assert checked > 50, checked


def _scanned_clash(tables, y0):
    """Reference clash test: the first two docked trucks, in (i, j) order,
    whose pair entry is infinite, or None."""
    docked = [(i, y0[i]) for i in range(tables.n) if y0[i] != _UNDOCKED]
    for idx, (i, ki) in enumerate(docked):
        for j, kj in docked[idx + 1 :]:
            if tables.pair[i][j][ki][kj] == math.inf:
                return i, j
    return None


def _repaired_by_rescanning(tables, y0, evaluate):
    """Reference repair: undock the later-arriving truck of the first clash,
    scan again from the start until none is left, then shed the
    latest-arriving docked truck while ``evaluate`` answers None."""
    arrival = tables.inst.arrival
    while (clash := _scanned_clash(tables, y0)) is not None:
        y0[max(clash, key=lambda u: (arrival[u], u))] = _UNDOCKED
    while (result := evaluate(y0)) is None:
        docked = [i for i in range(tables.n) if y0[i] != _UNDOCKED]
        y0[max(docked, key=lambda u: (arrival[u], u))] = _UNDOCKED
    return y0, result


def _random_assignments(inst, rng, count):
    return [
        [rng.randrange(inst.m) if rng.random() < 0.7 else _UNDOCKED for _ in range(inst.n)]
        for _ in range(count)
    ]


def test_table_value_is_infinite_exactly_on_a_clash(nine_truck):
    # fast_value is every solver's clash test: infinite iff the reference
    # scan finds two docked trucks that cannot coexist
    rng = random.Random(2)
    clashes = 0
    for inst in (nine_truck, generate(0, 8, 2), generate(1, 10, 3, capacity_ratio=0.05)):
        for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
            tables = _Tables(inst, form, include_diagonal)
            for y0 in _random_assignments(inst, rng, 200):
                clash = _scanned_clash(tables, y0) is not None
                assert (tables.fast_value(y0) == math.inf) == clash, (form, y0)
                clashes += clash
    assert 0 < clashes < 12 * 200, clashes


def test_repair_undocks_as_the_rescanning_reference(nine_truck):
    # one pass in (i, j) order undocks what rescanning from the start after
    # every undocking does, since undocking never makes a clash
    rng = random.Random(3)
    repaired = 0
    instances = [nine_truck, nine_truck.with_capacity(1000)] + [
        generate(seed, n, m, capacity_ratio=ratio)
        for seed, (n, m), ratio in itertools.product(range(3), ((5, 2), (8, 2), (10, 3)), (None, 0.05))
    ]
    for inst in instances:
        for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
            tables = _Tables(inst, form, include_diagonal)
            for y0 in _random_assignments(inst, rng, 40):
                expected = _repaired_by_rescanning(tables, list(y0), tables.leaf_value)
                assert _repair(tables, list(y0), tables.leaf_value) == expected, (form, y0)
                repaired += expected[0] != y0
    assert repaired > 1000, repaired


def test_selection_memo_answers_as_a_fresh_selection(monkeypatch):
    # the slow twin of _Tables._select's memo: every answer, under rising,
    # falling and absent floors, equals a fresh select_items call. Two tables
    # over the same instance at two capacities get the same buffer problems,
    # so a memo shared between them answers one from the other's entries
    fresh = subproblem.select_items
    kernel_calls = []

    def counted(*args, **kwargs):
        kernel_calls.append(args)
        return fresh(*args, **kwargs)

    monkeypatch.setattr(subproblem, "select_items", counted)

    def expected(tables, items, base, floor):
        rules = tables.rules
        return fresh(
            [item[4] for item in items],
            [rules.hold[i][j] for i, j, _, _, _ in items],
            base,
            rules.limit,
            floor=floor,
        )

    # floors as offsets from a problem's unfloored kept gain; None: no floor
    offsets = (5, 1, 9, -2, 3, None, -7, 0.5, None, 12)
    calls = differ = 0
    for seed, form, include_diagonal in itertools.product(
        range(2), (CD, RCD), (False, True)
    ):
        inst = generate(seed, 6, 2, capacity_ratio=0.05)
        if form is CD and not include_diagonal:
            continue  # CROSS-DOCK selects only the strict-literal self-flows
        tables = [
            _Tables(inst.with_capacity(capacity), form, include_diagonal)
            for capacity in (inst.capacity, 1.5 * inst.capacity)
        ]
        problems = {}
        options = list(range(inst.m)) + [_UNDOCKED]
        for y0 in itertools.product(options, repeat=inst.n):
            choice = None if tables[0].fast_value(y0) == math.inf else tables[0]._choice(y0)
            if choice is not None and choice[1]:
                _, items, base = choice
                key = (tuple(items), tuple(base))
                if key not in problems and len(problems) < 40:
                    problems[key] = (items, base)
        for offset in offsets:
            for items, base in problems.values():
                for table in tables:
                    floor = None
                    if offset is not None:
                        floor = expected(table, items, base, None)[1] + offset
                    want = expected(table, items, base, floor)
                    assert table._select(items, base, floor) == want, (offset, items)
                    calls += 1
                differ += expected(tables[0], items, base, None) != expected(
                    tables[1], items, base, None
                )
    assert differ > 0, "the two capacities never select differently"
    assert len(kernel_calls) < calls // 2, "the memo answered too few calls"


@pytest.mark.parametrize("include_diagonal", [False, True])
@pytest.mark.parametrize("form", [CD, RCD])
def test_oracle_equivalence_where_capacity_binds(form, include_diagonal):
    changed = 0
    for seed in range(10):
        inst = generate(seed, 5, 2, capacity_ratio=0.05)
        bb = branch_and_bound(inst, form, include_diagonal=include_diagonal)
        bf = brute_force(inst, form, include_diagonal)
        assert bb.proven_optimal
        assert bb.objective.total == bf.objective.total, seed
        unbounded = brute_force(inst.with_capacity(None), form, include_diagonal)
        changed += unbounded.objective.total != bf.objective.total
    # the capacity must change most optima, or the test shows nothing
    assert changed >= 5, changed


@pytest.mark.parametrize("form", [CD, RCD])
def test_searches_compile_one_rule_set_and_call_no_subproblem(form, monkeypatch):
    # B&B and VNS price and build every solution from one set of tables: in
    # strict-literal mode under a binding capacity they compile the rules
    # once and never reach the subproblem's transfer builders
    def unreachable(*args, **kwargs):
        raise AssertionError("the search called the subproblem")

    for name in (
        "induced_transfers_crossdock", "optimal_transfers_rcrossdock", "select_transfers"
    ):
        monkeypatch.setattr(subproblem, name, unreachable)
    inst = generate(0, 6, 2, capacity_ratio=0.05)
    compile_rules.cache_clear()
    bb = branch_and_bound(inst, form, include_diagonal=True)
    heuristic = vns_solve(inst, form, VnsConfig(iter_max=3), include_diagonal=True)
    assert bb.status == "optimal"
    assert heuristic.objective.total >= bb.objective.total
    assert compile_rules.cache_info().misses == 1


def test_search_is_deterministic():
    inst = generate(17, n=4, m=2)
    runs = [branch_and_bound(inst, RCD) for _ in range(2)]
    assert runs[0].nodes_explored == runs[1].nodes_explored
    assert runs[0].best == runs[1].best
    assert runs[0].trace == runs[1].trace


def test_incumbent_trace_nonincreasing():
    inst = generate(23, n=4, m=2)
    for form in (CD, RCD):
        result = branch_and_bound(inst, form)
        trace = list(result.trace)
        assert trace == sorted(trace, reverse=True)


def test_bound_at_root_is_admissible():
    for seed in range(10):
        inst = generate(seed, n=4, m=2)
        for form in (CD, RCD):
            bb = branch_and_bound(inst, form)
            assert bb.bound_at_root <= bb.objective.total + 1e-9


def test_node_bounds_admissible_by_subtree_completion():
    # every reported node bound must lower-bound the best completion of its
    # partial assignment (checked by enumerating all completions)
    inst = generate(5, n=3, m=2)
    for form in (CD, RCD):
        tables = _Tables(inst, form, False)
        order = tables.order
        seen = []

        def on_node(decided, bound):
            seen.append((dict(decided), bound))

        branch_and_bound(inst, form, on_node=on_node)
        assert seen
        options = list(range(inst.m)) + [_UNDOCKED]
        for decided, bound in seen:
            free = [u for u in range(inst.n) if (u + 1) not in decided]
            best = None
            for combo in itertools.product(options, repeat=len(free)):
                y0 = [_UNDOCKED] * inst.n
                for truck1, dock1 in decided.items():
                    y0[truck1 - 1] = dock1 - 1 if dock1 else _UNDOCKED
                for u, k in zip(free, combo):
                    y0[u] = k
                if tables.fast_value(y0) < math.inf and (value := tables.leaf_value(y0)) is not None:
                    best = value if best is None else min(best, value)
            if best is not None:
                assert bound <= best + 1e-9


def test_budget_exhaustion_still_returns_incumbent():
    inst = generate(3, n=4, m=2)
    result = branch_and_bound(inst, RCD, budget=Budget(max_nodes=1))
    assert result.status == "budget_exhausted"
    assert not result.proven_optimal
    assert result.best is not None
    assert result.objective.total >= 0.0


def _runaway_selection() -> Instance:
    """Eight trucks whose windows all overlap, so R-CROSS-DOCK docks each at
    its own dock, and a buffer of 20 against 56 small transfers of 1-5
    units: the leaf with every truck docked is a selection over 56 items,
    which the exact search cannot finish within minutes."""
    n = m = 8
    return Instance(
        n=n,
        m=m,
        arrival=tuple(float(i) for i in range(n)),
        departure=tuple(100.0 + i for i in range(n)),
        transfer_time=((1.0,) * m,) * m,
        transfer_cost=((1.0,) * m,) * m,
        flow=tuple(
            tuple(0.0 if i == j else 1.0 + (7 * i + 3 * j) % 5 for j in range(n))
            for i in range(n)
        ),
        penalty=((10.0,) * n,) * n,
        capacity=20.0,
    )


def test_a_time_limit_stops_a_runaway_selection():
    inst = _runaway_selection()
    result = branch_and_bound(inst, RCD, Budget(time_limit=1))
    assert result.status == "budget_exhausted"
    assert result.wall_time < 1.5, result.wall_time
    assert check_solution(inst, result.best, RCD).feasible


def test_a_vns_time_budget_stops_a_runaway_selection():
    inst = _runaway_selection()
    start = time.perf_counter()
    result = vns_solve(inst, RCD, VnsConfig(time_budget=1))
    assert time.perf_counter() - start < 1.5
    assert check_solution(inst, result.best, RCD).feasible
    assert result.objective.total == result.trace[-1]


def test_a_deadline_stops_the_selection_kernel_only_once_passed():
    # a deadline already past stops the 56-item selection; one a minute
    # ahead leaves a 12-item selection, where capacity binds, as it was
    tables = _Tables(_runaway_selection(), RCD, False)

    def select(docked, deadline):
        _, items, base = tables._choice(list(range(docked)) + [_UNDOCKED] * (8 - docked))
        return subproblem.select_items(
            [item[4] for item in items],
            [tables.rules.hold[i][j] for i, j, _, _, _ in items],
            base,
            tables.rules.limit,
            deadline=deadline,
        )

    with pytest.raises(subproblem._OutOfBudget):
        select(8, time.perf_counter() - 1)
    assert select(4, time.perf_counter() + 60) == select(4, None) == ([0, 1, 2, 4, 6], 195.0)


def test_wall_time_and_budgets_count_the_table_build(monkeypatch):
    # each solver reads its clock before it builds the tables, so a slow
    # build shows in wall_time and uses up a time budget
    build = _Tables.__init__

    def slow_build(self, *args):
        time.sleep(0.2)
        build(self, *args)

    monkeypatch.setattr(_Tables, "__init__", slow_build)
    inst = generate(0, 4, 2)
    for result in (
        branch_and_bound(inst, RCD),
        brute_force(inst, RCD),
        vns_solve(inst, RCD, VnsConfig(iter_max=1)),
    ):
        assert result.wall_time >= 0.2, result.wall_time


def test_solvers_reject_an_invalid_instance():
    # a_1 = 5 > d_1 = 3 with a self-flow: the solvers name the instance's
    # fault before any search, not a negative buffer unit deep inside one
    inst = Instance(
        n=2,
        m=1,
        arrival=(5.0, 0.0),
        departure=(3.0, 4.0),
        transfer_time=((0.0,),),
        transfer_cost=((0.0,),),
        flow=((1.0, 0.0), (0.0, 0.0)),
        penalty=((3.0, 0.0), (0.0, 0.0)),
        capacity=1.0,
    )
    for solve in (branch_and_bound, brute_force, vns_solve):
        with pytest.raises(InvalidInstanceError) as err:
            solve(inst, RCD, include_diagonal=True)
        assert [issue.code for issue in err.value.issues] == ["window_inverted"]


def test_max_nodes_counts_the_nodes_processed(nine_truck):
    # a budget below the fixture CROSS-DOCK tree's size stops after exactly
    # that many nodes, and a budget of the size lets the search finish
    full = branch_and_bound(nine_truck, CD)
    size = full.nodes_explored
    assert full.status == "optimal" and size > 100
    for max_nodes in (1, 2, 100, size - 1):
        seen = []
        result = branch_and_bound(
            nine_truck, CD, Budget(max_nodes=max_nodes), on_node=lambda d, b: seen.append(b)
        )
        assert result.status == "budget_exhausted", max_nodes
        assert result.nodes_explored == len(seen) == max_nodes
    result = branch_and_bound(nine_truck, CD, Budget(max_nodes=size))
    assert result.status == "optimal"
    assert result.nodes_explored == size
    assert result.objective == full.objective


def test_fixture_tree_sizes_are_pinned(nine_truck):
    # the node counts of the heaviest-first branching order: a change of the
    # order or of the bounds shows here
    assert branch_and_bound(nine_truck, CD).nodes_explored == 236
    assert branch_and_bound(nine_truck, RCD).nodes_explored == 26_733
    strict = branch_and_bound(nine_truck, RCD, include_diagonal=True)
    assert strict.nodes_explored == 22_207


def _relabel(inst: Instance, rng: random.Random) -> Instance:
    """The instance with its trucks renumbered by a random permutation, where
    trucks with equal arrival keep their relative order."""
    n = inst.n
    label = list(range(n))  # old truck -> new truck
    rng.shuffle(label)
    ties = {}
    for i in range(n):
        ties.setdefault(inst.arrival[i], []).append(i)
    for members in ties.values():
        for i, new in zip(members, sorted(label[i] for i in members)):
            label[i] = new
    old = [0] * n
    for i, new in enumerate(label):
        old[new] = i

    def square(rows):
        return [[rows[old[a]][old[b]] for b in range(n)] for a in range(n)]

    return dataclasses.replace(
        inst,
        arrival=[inst.arrival[i] for i in old],
        departure=[inst.departure[i] for i in old],
        flow=square(inst.flow),
        penalty=square(inst.penalty),
    )


def test_branching_order_is_label_invariant(nine_truck):
    # heaviest trucks first, ties by arrival, then index: a relabelling that
    # keeps equal-arrival trucks in order explores one tree
    rng = random.Random(12)
    cases = [
        nine_truck,
        nine_truck.with_capacity(2000.0),
        generate(1, 10, 3, capacity_ratio=0.05),
    ]
    for inst in cases:
        reference = branch_and_bound(inst, RCD)
        for _ in range(5):
            relabelled = _relabel(inst, rng)
            tables = _Tables(relabelled, RCD, False)
            keys = [
                (-tables.weight[i], relabelled.arrival[i], i) for i in tables.order
            ]
            assert keys == sorted(keys)
            result = branch_and_bound(relabelled, RCD)
            assert result.nodes_explored == reference.nodes_explored
            assert result.trace == reference.trace
            assert result.objective.total == reference.objective.total


def test_time_limit_is_checked_every_256_nodes(nine_truck):
    # an expired clock is first read before the 257th node
    result = branch_and_bound(nine_truck, RCD, Budget(time_limit=0.0))
    assert result.status == "budget_exhausted"
    assert result.nodes_explored == 256


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_nodes": -3},
        {"max_nodes": 2.5},
        {"max_nodes": True},
        {"time_limit": math.nan},
        {"time_limit": -1.0},
        {"time_limit": "1"},
    ],
)
def test_an_invalid_budget_is_refused(kwargs):
    # a NaN time limit never expires, and a negative or fractional node
    # budget would stop after a count it does not name
    with pytest.raises(ValueError):
        Budget(**kwargs)


def test_valid_budgets_are_kept():
    for max_nodes in (None, 0, 7):
        for time_limit in (None, 0, 0.5, math.inf):
            budget = Budget(max_nodes=max_nodes, time_limit=time_limit)
            assert (budget.max_nodes, budget.time_limit) == (max_nodes, time_limit)
    result = branch_and_bound(generate(3, n=4, m=2), RCD, Budget(max_nodes=0))
    assert result.nodes_explored == 0 and result.status == "budget_exhausted"


def test_budgeted_sixteen_truck_search_is_pinned():
    # the benchmark's budgeted n = 16 job: a change in the order the nodes
    # are visited or in their bounds moves the incumbents found within the
    # budget, the trace and the node count
    inst = generate(0, 16, 5)
    rcd = branch_and_bound(inst, RCD, Budget(max_nodes=150_000))
    assert rcd.status == "budget_exhausted"
    assert rcd.nodes_explored == 150_000
    assert rcd.objective.total == 4_354_759
    assert rcd.trace == (
        4829100, 4554529, 4525921, 4520921, 4515634, 4514721, 4498037, 4473836,
        4466831, 4461831, 4452536, 4451336, 4432432, 4427432, 4413737, 4411837,
        4402129, 4395544, 4395347, 4392748, 4388747, 4374854, 4366859, 4360259,
        4354759,
    )
    cd = branch_and_bound(inst, CD, Budget(max_nodes=150_000))
    assert cd.status == "optimal"
    assert cd.nodes_explored == 992
    assert cd.objective.total == 4_637_708
    assert cd.trace == (
        4829100, 4810400, 4805300, 4733904, 4732904, 4727404, 4639608, 4637708,
    )


def test_brute_force_guard():
    inst = generate(0, n=15, m=3)
    with pytest.raises(InstanceTooLargeError, match="instance_too_large"):
        brute_force(inst, CD)


def test_compare_reference_instance(nine_truck):
    comparison = compare_models(nine_truck)
    assert (
        comparison.r_cross_dock.objective.total
        < comparison.cross_dock.objective.total
    )
    assert not comparison.rcd_best_under_cd.feasible
    assert comparison.absolute_gap > 0
    assert 0 < comparison.relative_gap_percent < 100


def test_compare_gap_zero_when_models_coincide():
    # sequential windows, free same-dock moves, enough docks: the pair
    # forcing never hurts and both models serve everything
    inst = Instance(
        n=3,
        m=3,
        arrival=(0.0, 2.0, 4.0),
        departure=(1.0, 3.0, 5.0),
        transfer_time=tuple(tuple(0.0 for _ in range(3)) for _ in range(3)),
        transfer_cost=tuple(tuple(1.0 for _ in range(3)) for _ in range(3)),
        flow=(
            (0.0, 10.0, 10.0),
            (0.0, 0.0, 10.0),
            (0.0, 0.0, 0.0),
        ),
        penalty=tuple(tuple(4.0 for _ in range(3)) for _ in range(3)),
        capacity=None,
    )
    comparison = compare_models(inst)
    assert comparison.cross_dock.objective.total == 0.0
    assert comparison.r_cross_dock.objective.total == 0.0
    assert comparison.absolute_gap == 0.0
    assert comparison.relative_gap_percent == 0.0


def test_compare_all_zero_flow():
    inst = generate(9, n=3, m=2, flow_density=0.0)
    comparison = compare_models(inst)
    assert comparison.cross_dock.objective.total == 0.0
    assert comparison.r_cross_dock.objective.total == 0.0
    assert comparison.relative_gap_percent == 0.0


def test_reference_optima_frozen(nine_truck):
    # frozen from the first proven solve of the validated fixture; these pin
    # regressions, the published figures are only juxtaposed in reports
    cd = branch_and_bound(nine_truck, CD)
    rcd = branch_and_bound(nine_truck, RCD)
    assert cd.proven_optimal and rcd.proven_optimal
    assert cd.objective.total == 1_584_704.0
    assert rcd.objective.total == 1_349_910.0
    assert check_solution(nine_truck, cd.best, CD).feasible
    assert check_solution(nine_truck, rcd.best, RCD).feasible


def test_strict_literal_reference_optima_frozen(nine_truck):
    # strict-literal (self-flows included), the figures of
    # perfbench/references.json; they come from branch and bound alone (the
    # LP export covers the default mode only), so this pins regressions of
    # the search itself
    cd = branch_and_bound(nine_truck, CD, include_diagonal=True)
    rcd = branch_and_bound(nine_truck, RCD, include_diagonal=True)
    assert cd.proven_optimal and rcd.proven_optimal
    assert cd.objective.total == 1_584_704.0
    assert rcd.objective.total == 1_366_810.0
    assert check_solution(nine_truck, cd.best, CD, True).feasible
    assert check_solution(nine_truck, rcd.best, RCD, True).feasible


def test_node_bounds_admissible_in_strict_mode():
    inst = generate(8, n=3, m=2)
    for form in (CD, RCD):
        tables = _Tables(inst, form, True)
        seen = []

        def on_node(decided, bound):
            seen.append((dict(decided), bound))

        branch_and_bound(inst, form, include_diagonal=True, on_node=on_node)
        options = list(range(inst.m)) + [_UNDOCKED]
        for decided, bound in seen:
            free = [u for u in range(inst.n) if (u + 1) not in decided]
            best = None
            for combo in itertools.product(options, repeat=len(free)):
                y0 = [_UNDOCKED] * inst.n
                for truck1, dock1 in decided.items():
                    y0[truck1 - 1] = dock1 - 1 if dock1 else _UNDOCKED
                for u, k in zip(free, combo):
                    y0[u] = k
                if tables.fast_value(y0) < math.inf and (value := tables.leaf_value(y0)) is not None:
                    best = value if best is None else min(best, value)
            if best is not None:
                assert bound <= best + 1e-9


def _bound_from_scratch(tables, decided) -> float:
    """A node's bound summed straight from the tables: the base, the exact
    pair and unary terms of the docked decided trucks, and the optimistic
    terms of every pair still open (no truck left unassigned, not both
    decided) and of every undecided truck."""
    dock = {truck - 1: k - 1 for truck, k in decided}  # 0 -> _UNDOCKED
    docked = [(i, k) for i, k in sorted(dock.items()) if k != _UNDOCKED]
    live = [u for u in range(tables.n) if dock.get(u) != _UNDOCKED]
    bound = tables.base
    for (i, ki), (j, kj) in itertools.combinations(docked, 2):
        bound += tables.pair[i][j][ki][kj]
    for i, k in docked:
        bound += tables.unary[i][k]
    for i, j in itertools.combinations(live, 2):
        if i not in dock or j not in dock:
            bound += tables.pair_opt[i][j]
    for u in range(tables.n):
        if u not in dock:
            bound += tables.unary_opt[u]
    return bound


def _check_node_bounds(inst, rel=None) -> int:
    """Check every node bound of a search, equal or within ``rel``; returns
    how many nodes were checked."""
    nodes = 0
    for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
        tables = _Tables(inst, form, include_diagonal)
        seen = []
        result = branch_and_bound(
            inst, form, include_diagonal=include_diagonal,
            on_node=lambda decided, bound: seen.append((decided, bound)),
        )
        assert len(seen) == result.nodes_explored
        for decided, bound in seen:
            expected = _bound_from_scratch(tables, decided)
            if rel is not None:
                expected = pytest.approx(expected, rel=rel)
            assert bound == expected, (inst.name, form, include_diagonal, decided)
        nodes += len(seen)
    return nodes


def _scaled(inst: Instance) -> Instance:
    """The instance on non-integer data: flows / 3, penalties * 0.7, costs * 1.1."""
    return dataclasses.replace(
        inst,
        flow=[[f / 3 for f in row] for row in inst.flow],
        penalty=[[p * 0.7 for p in row] for row in inst.penalty],
        transfer_cost=[[c * 1.1 for c in row] for row in inst.transfer_cost],
    )


def test_node_bounds_match_the_tables_summed_from_scratch():
    # the running bound and per-truck accumulators of the search against a
    # plain sum over the decided and open pairs; on integer data the two agree
    # exactly, binding capacity and strict-literal mode included
    nodes = 0
    for seed, (n, m), ratio in itertools.product(
        range(3), ((3, 2), (4, 2), (5, 2), (5, 3)), (None, 0.05)
    ):
        nodes += _check_node_bounds(generate(seed, n, m, capacity_ratio=ratio))
    assert nodes > 1000
    # deeper trees: many accumulator block offsets, and runs of unassigned
    # children that share their parent's accumulator list
    assert _check_node_bounds(generate(0, 8, 3)) > 1000
    assert _check_node_bounds(generate(1, 8, 3, capacity_ratio=0.05)) > 1000
    # non-integer data: the running bound adds in another order, so the last
    # bits may differ, and drift along a deeper tree's paths
    assert _check_node_bounds(_scaled(generate(1, 5, 3, capacity_ratio=0.05)), rel=1e-12) > 500
    assert _check_node_bounds(_scaled(generate(0, 8, 3)), rel=1e-12) > 1000


def test_the_pair_tables_read_the_same_from_either_truck(nine_truck):
    # branch and bound reads a pair from whichever of its trucks it branched
    # on first, so both orientations of every entry must be the same float,
    # on data whose sums round too
    checked = 0
    for base in (nine_truck, generate(0, 6, 3), generate(1, 5, 2, capacity_ratio=0.05)):
        for inst in (_non_integer(base), _scaled(base)):
            for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
                tables = _Tables(inst, form, include_diagonal)
                pair, pair_opt = tables.pair, tables.pair_opt
                for i, j in itertools.permutations(range(inst.n), 2):
                    where = (inst.name, form, include_diagonal, i, j)
                    assert pair_opt[i][j] == pair_opt[j][i], ("pair_opt", where)
                    for k, l in itertools.product(range(inst.m), repeat=2):
                        assert pair[i][j][k][l] == pair[j][i][l][k], ("pair", where, k, l)
                        checked += pair[i][j][k][l] < math.inf
    assert checked > 1000


def test_shape_mismatch_between_instance_and_solution():
    inst = generate(1, n=3, m=2)
    with pytest.raises(ValueError, match="docks 2 trucks"):
        objective_value(inst, Solution.empty(2), CD)
    with pytest.raises(ValueError, match="docks 2 trucks"):
        check_solution(inst, Solution.empty(2), RCD)


def test_oracle_equivalence_odd_shapes():
    # more docks than trucks, single dock, single truck
    for (n, m) in ((1, 3), (2, 3), (3, 1), (4, 1)):
        inst = generate(n * 10 + m, n=n, m=m)
        for form in (CD, RCD):
            bb = branch_and_bound(inst, form)
            bf = brute_force(inst, form)
            assert bb.objective.total == bf.objective.total
