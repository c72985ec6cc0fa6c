import pytest

from crossdock.exact import brute_force
from crossdock.formulations import Formulation, check_solution, objective_value
from crossdock.instance_io import generate
from crossdock.vns import VnsConfig, greedy_initial, vns_solve
from crossdock.exact import _Tables, _UNDOCKED

CD = Formulation.CROSS_DOCK
RCD = Formulation.R_CROSS_DOCK


def test_fixed_seed_gives_identical_traces(nine_truck):
    cfg = VnsConfig(iter_max=6, rng_seed=42)
    a = vns_solve(nine_truck, RCD, cfg)
    b = vns_solve(nine_truck, RCD, cfg)
    assert a.trace == b.trace
    assert a.best == b.best
    assert a.nodes_explored == b.nodes_explored
    assert a.rng_algorithm == "PCG64"
    assert not a.proven_optimal


def test_zero_iterations_returns_greedy_unchanged(nine_truck):
    result = vns_solve(nine_truck, RCD, VnsConfig(iter_max=0, rng_seed=5))
    tables = _Tables(nine_truck, RCD, False)
    calls = []

    def evaluate(y0):
        calls.append(tuple(y0))
        return tables.evaluate(y0)

    greedy = greedy_initial(tables, evaluate)
    expected = tables.to_public(greedy)
    assert result.best.dock == expected
    assert len(result.trace) == 1
    # the greedy start's evaluations count, plus the pricing of its result
    assert len(calls) == 1 + nine_truck.n * nine_truck.m
    assert result.nodes_explored == len(calls) + 1


def test_trace_monotone_nonincreasing(nine_truck):
    for seed in range(5):
        result = vns_solve(nine_truck, RCD, VnsConfig(iter_max=8, rng_seed=seed))
        trace = list(result.trace)
        assert trace == sorted(trace, reverse=True)


def test_incumbents_feasible_every_iteration():
    # growing iteration budgets share the seeded prefix, so each prefix
    # incumbent is observable and must pass the checker
    for seed in range(20):
        inst = generate(seed, n=4, m=2, capacity_ratio=0.5 if seed % 2 else None)
        for form in (CD, RCD):
            final = vns_solve(inst, form, VnsConfig(iter_max=4, rng_seed=seed))
            assert check_solution(inst, final.best, form).feasible
            for iters in (0, 1, 2, 3):
                partial = vns_solve(
                    inst, form, VnsConfig(iter_max=iters, rng_seed=seed)
                )
                assert check_solution(inst, partial.best, form).feasible
                assert partial.trace == final.trace[: iters + 1]


def test_matches_oracle_on_most_small_instances():
    # acceptance runs the full 50-seed sweep at the 80% threshold; this is a
    # faster smoke version
    hits = 0
    total = 0
    for seed in range(12):
        inst = generate(seed, n=2 + seed % 3, m=1 + seed % 2)
        for form in (CD, RCD):
            oracle = brute_force(inst, form).objective.total
            heuristic = vns_solve(
                inst, form, VnsConfig(iter_max=20, rng_seed=seed)
            ).objective.total
            assert heuristic >= oracle - 1e-9
            total += 1
            hits += heuristic == pytest.approx(oracle)
    assert hits / total >= 0.8


def test_strict_literal_mode_smoke(nine_truck):
    cfg = VnsConfig(iter_max=3, rng_seed=2)
    result = vns_solve(nine_truck, RCD, cfg, include_diagonal=True)
    assert check_solution(
        nine_truck, result.best, RCD, include_diagonal=True
    ).feasible
    # docked trucks ship their own diagonal flow for free here (t_kk = 0)
    diagonal = [t for t in result.best.transfers if t[0] == t[1]]
    assert diagonal
    again = vns_solve(nine_truck, RCD, cfg, include_diagonal=True)
    assert again.best == result.best


def test_binding_capacity_runs_are_feasible_and_repeatable():
    # every evaluation here prices a capacity-bound selection from the
    # tables; the reported solution is still built and priced by the
    # subproblem and objective_value, and a rerun repeats the search exactly
    cut = 0
    for seed in range(3):
        inst = generate(seed, n=6, m=2, capacity_ratio=0.05)
        for form in (CD, RCD):
            for include_diagonal in (False, True):
                cfg = VnsConfig(iter_max=5, rng_seed=seed)
                result = vns_solve(inst, form, cfg, include_diagonal)
                where = (seed, form, include_diagonal)
                assert check_solution(inst, result.best, form, include_diagonal).feasible, where
                recomputed = objective_value(inst, result.best, form, include_diagonal)
                assert recomputed.total == result.objective.total, where
                again = vns_solve(inst, form, cfg, include_diagonal)
                assert again.trace == result.trace, where
                assert again.nodes_explored == result.nodes_explored, where
                assert again.best == result.best, where
                # the capacity cut transfers from the incumbent's uncapped set
                tables = _Tables(inst, form, include_diagonal)
                y0 = [k - 1 if k else _UNDOCKED for k in result.best.dock]
                cut += result.objective.total > tables.fast_value(y0) + 1e-9
    assert cut > 0, "capacity never binds at an incumbent; the test is vacuous"
