import dataclasses
import itertools
import random

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
)
from crossdock.formulations import Formulation, check_solution, objective_value
from crossdock.instance_io import generate
from crossdock.model import Instance, Solution, total_penalty_constant

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


def _check_evaluate_against_built(inst, assignments) -> tuple[int, int]:
    """Assert that ``evaluate`` agrees with objective_value of the solution
    ``build_solution`` builds, for every assignment in both models and
    diagonal modes. Returns how many values capacity changed from the
    uncapped table value (an overflow included) and how many were inexact."""
    changed = inexact = 0
    for form, include_diagonal in itertools.product((CD, RCD), (False, True)):
        tables = _Tables(inst, form, include_diagonal)
        for y0 in assignments:
            y0 = list(y0)
            result = tables.evaluate(y0)
            if tables.first_clash(y0) is not None:
                assert result is None
                continue
            built = tables.build_solution(y0)
            where = (inst.name, inst.capacity, form, include_diagonal, y0)
            assert (result is None) == (built is None), where
            if built is None:  # the forced transfers overflow the buffer
                changed += 1
                continue
            sol, exact = built
            value, fast_exact = result
            expected = objective_value(inst, sol, form, include_diagonal).total
            assert value == pytest.approx(expected, rel=1e-12), where
            assert fast_exact == exact, where
            changed += value != pytest.approx(tables.fast_value(y0), rel=1e-12)
            inexact += not exact
    return changed, inexact


def test_fast_path_matches_the_built_solution():
    # with capacity unbounded, the table value of every feasible assignment
    # equals objective_value of the transfer set the subproblem builds for it,
    # self-transfer terms and gains within EPS included
    instances = [generate(seed, n=3, m=2) for seed in range(4)] + [_gain_within_eps()]
    for inst in instances:
        options = list(range(inst.m)) + [_UNDOCKED]
        assignments = list(itertools.product(options, repeat=inst.n))
        changed, _ = _check_evaluate_against_built(inst, assignments)
        assert changed == 0
    tables = _Tables(_gain_within_eps(), RCD, False)
    assert tables.evaluate([0, 1]) == (1.0000000005, True)


@pytest.mark.parametrize("limit", [None, 2])
def test_capacity_value_matches_the_built_solution(limit, nine_truck, monkeypatch):
    # under a binding capacity the table value plus the gain the selection
    # gives up equals the built solution's objective; a limit of 2 sends
    # most selections down the greedy path
    if limit is not None:
        monkeypatch.setattr(subproblem, "EXACT_SELECTION_LIMIT", limit)
    changed = inexact = 0
    for seed, n, ratio in itertools.product(range(3), (3, 4), (0.05, 0.1)):
        inst = generate(seed, n, 2, capacity_ratio=ratio)
        options = list(range(inst.m)) + [_UNDOCKED]
        counts = _check_evaluate_against_built(
            inst, list(itertools.product(options, repeat=n))
        )
        changed, inexact = changed + counts[0], inexact + counts[1]
    # the fixture has (m+1)^n = 7^9 assignments: a seeded sample, half the
    # trucks docked on average
    rng = random.Random(0)
    fixture = nine_truck.with_capacity(1000)
    sample = [
        [rng.randrange(fixture.m) if rng.random() < 0.5 else _UNDOCKED for _ in range(fixture.n)]
        for _ in range(150)
    ]
    counts = _check_evaluate_against_built(fixture, sample)
    changed, inexact = changed + counts[0], inexact + counts[1]
    assert changed > 0, "capacity never changes a value; the test is vacuous"
    if limit is not None:
        assert inexact > 0, "the greedy path never ran"


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
                outcome = tables.evaluate(y0)
                if outcome is not None:
                    value = outcome[0]
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


def test_max_nodes_counts_the_nodes_processed(nine_truck):
    # the fixture CROSS-DOCK tree has 243 nodes: a budget below that stops
    # after exactly that many nodes, a budget of 243 lets the search finish
    full = branch_and_bound(nine_truck, CD)
    assert full.status == "optimal" and full.nodes_explored == 243
    for max_nodes in (1, 2, 100, 242):
        seen = []
        result = branch_and_bound(
            nine_truck, CD, Budget(max_nodes=max_nodes), on_node=lambda d, b: seen.append(b)
        )
        assert result.status == "budget_exhausted", max_nodes
        assert result.nodes_explored == len(seen) == max_nodes
    result = branch_and_bound(nine_truck, CD, Budget(max_nodes=243))
    assert result.status == "optimal"
    assert result.nodes_explored == 243
    assert result.objective == full.objective


def test_time_limit_is_checked_every_256_nodes(nine_truck):
    # an expired clock is first read before the 257th node
    result = branch_and_bound(nine_truck, RCD, Budget(time_limit=0.0))
    assert result.status == "budget_exhausted"
    assert result.nodes_explored == 256


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
    assert comparison.rcd_infeasible_under_cd
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
                outcome = tables.evaluate(y0)
                if outcome is not None:
                    value = outcome[0]
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


def test_node_bounds_match_the_tables_summed_from_scratch():
    # the incremental per-truck accumulators of the search against a plain
    # sum over the decided and open pairs; on integer data the two agree
    # exactly, binding capacity and strict-literal mode included
    nodes = 0
    for seed, (n, m), ratio in itertools.product(
        range(3), ((3, 2), (4, 2), (5, 2), (5, 3)), (None, 0.05)
    ):
        nodes += _check_node_bounds(generate(seed, n, m, capacity_ratio=ratio))
    assert nodes > 1000
    # non-integer data: the accumulators add in another order, so the last
    # bits may differ
    inst = generate(1, 5, 3, capacity_ratio=0.05)
    scaled = dataclasses.replace(
        inst,
        flow=[[f / 3 for f in row] for row in inst.flow],
        penalty=[[p * 0.7 for p in row] for row in inst.penalty],
        transfer_cost=[[c * 1.1 for c in row] for row in inst.transfer_cost],
    )
    assert _check_node_bounds(scaled, rel=1e-12) > 500


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
