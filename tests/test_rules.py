"""The compiled rules against the literal constraint-by-constraint checker."""

import itertools
import math

import pytest

from crossdock.exact import _Tables
from crossdock.formulations import (
    ConstraintFamily,
    Formulation,
    check_solution,
    compile_rules,
    occupancy_at,
)
from crossdock.instance_io import generate, load_fixture_instance
from crossdock.model import EPS, Instance, Solution, event_times

from conftest import tiny_two_truck, touching_windows, within_eps

MODES = [
    (form, include_diagonal)
    for form in (Formulation.CROSS_DOCK, Formulation.R_CROSS_DOCK)
    for include_diagonal in (False, True)
]


def _everything(inst: Instance, include_diagonal: bool) -> Solution:
    """Every pair in scope shipped through dock 1."""
    pairs = itertools.product(inst.trucks(), inst.trucks())
    return Solution(
        dock=(1,) * inst.n,
        transfers=tuple((i, j, 1, 1) for i, j in pairs if include_diagonal or i != j),
    )


def _instances() -> list[Instance]:
    out = [load_fixture_instance(), touching_windows(), within_eps()]
    # d_2 - a_1 - t_11 = 3 - t11: margins of exactly 0, +0.01 and -0.01,
    # with and without flow on the pair
    for t11 in (3.0, 2.99, 3.01):
        out += [tiny_two_truck(t11=t11), tiny_two_truck(t11=t11, f12=0.0)]
    out += [generate(seed, n, m) for n in (2, 3, 4) for m in (1, 2) for seed in range(3)]
    # each again with a capacity at half its peak occupancy, which binds
    for inst in list(out):
        everything = _everything(inst, True)
        peak = max(occupancy_at(inst, everything, t, True) for t in event_times(inst))
        if peak > 0:
            out.append(inst.with_capacity(peak / 2))
    return out


INSTANCES = _instances()


def _families(report) -> set:
    return {c.family for c in report.constraint_ids()}


@pytest.mark.parametrize("form,include_diagonal", MODES)
def test_transfer_flags_match_the_checker(form, include_diagonal):
    for inst in INSTANCES:
        rules = compile_rules(inst, form)
        docks = inst.docks()
        for i, j, k, l in itertools.product(inst.trucks(), inst.trucks(), docks, docks):
            if i == j and not include_diagonal:
                continue
            dock = [0] * inst.n
            dock[i - 1], dock[j - 1] = k, l
            one = Solution(dock=dock, transfers=((i, j, k, l),))
            families = _families(check_solution(inst, one, form, include_diagonal))
            time_row = ConstraintFamily.TIME_FEASIBILITY in families
            same_dock_row = ConstraintFamily.SAME_DOCK_TW in families
            where = (inst.name, inst.capacity, i, j, k, l)
            assert rules.time_ok[i - 1][j - 1][k - 1][l - 1] == (not time_row), where
            allowed = rules.allowed[i - 1][j - 1][k - 1][l - 1]
            assert allowed == (not time_row and not same_dock_row), where


@pytest.mark.parametrize("form,include_diagonal", MODES)
def test_pair_tables_match_the_checker(form, include_diagonal):
    for inst in INSTANCES:
        rules = compile_rules(inst, form)
        for i, j in itertools.product(inst.trucks(), inst.trucks()):
            dock = [0] * inst.n
            dock[i - 1] = dock[j - 1] = 1
            idle = Solution(dock=dock)
            report = check_solution(inst, idle, Formulation.R_CROSS_DOCK)
            conflict = ConstraintFamily.DOCK_CONFLICT in _families(report)
            assert rules.overlap[i - 1][j - 1] == conflict, (inst.name, i, j)
            if i != j:
                # the checker's row for a same-dock transfer states the bound
                # whenever it binds (below 1)
                one = Solution(dock=dock, transfers=((i, j, 1, 1),))
                rows = [
                    (v.lhs, v.rhs)
                    for v in check_solution(inst, one, form).violations
                    if v.constraint.family is ConstraintFamily.SAME_DOCK_TW
                ]
                bound = rules.same_dock_bound[i - 1][j - 1]
                assert rows == ([(1, bound)] if bound < 1 else []), (inst.name, i, j)


@pytest.mark.parametrize("form,include_diagonal", MODES)
def test_coexistence_table_matches_the_checker(form, include_diagonal):
    # CROSS-DOCK: docking i@k and j@l forces both transfers, so the pair may
    # coexist iff the forced pair is feasible (capacity aside); R-CROSS-DOCK:
    # iff the dock-conflict rule holds. Elsewhere the pair entry is infinite.
    for inst in INSTANCES:
        pair = _Tables(inst, form, include_diagonal).pair
        unbounded = inst.with_capacity(None)
        docks = inst.docks()
        for i, j, k, l in itertools.product(inst.trucks(), inst.trucks(), docks, docks):
            if i == j:
                continue
            dock = [0] * inst.n
            dock[i - 1], dock[j - 1] = k, l
            if form is Formulation.CROSS_DOCK:
                forced = Solution(dock=dock, transfers=((i, j, k, l), (j, i, l, k)))
                report = check_solution(unbounded, forced, form, include_diagonal)
                expected = report.feasible
            else:
                report = check_solution(inst, Solution(dock=dock), form, include_diagonal)
                expected = ConstraintFamily.DOCK_CONFLICT not in _families(report)
            where = (inst.name, inst.capacity, i, j, k, l)
            entry = pair[i - 1][j - 1][k - 1][l - 1]
            assert (entry != math.inf) == expected, where
            # B&B reads a pair from the later truck's side, fast_value from
            # the earlier truck's side
            assert entry == pair[j - 1][i - 1][l - 1][k - 1], where


@pytest.mark.parametrize("form,include_diagonal", MODES)
def test_summed_profiles_match_occupancy_and_capacity_rows(form, include_diagonal):
    binding = 0
    for inst in INSTANCES:
        rules = compile_rules(inst, form)
        assert rules.events == event_times(inst)
        # the largest load that passes the checker's occ - capacity <= EPS
        if inst.unbounded_capacity:
            assert rules.limit == math.inf
        else:
            assert rules.limit - inst.capacity <= EPS
            assert math.nextafter(rules.limit, math.inf) - inst.capacity > EPS
        everything = _everything(inst, include_diagonal)
        report = check_solution(inst, everything, form, include_diagonal)
        over = {
            c.indices[0]
            for c in report.constraint_ids()
            if c.family is ConstraintFamily.CAPACITY
        }
        binding += len(over)
        load = rules.load((i, j) for (i, j, _, _) in everything.transfers)
        assert len(load) == len(rules.events)
        for r, t_r in enumerate(rules.events):
            holds = [rules.hold[i - 1][j - 1] for (i, j, _, _) in everything.transfers]
            summed = sum(units for lo, hi, units in holds if lo <= r < hi)
            assert summed == occupancy_at(inst, everything, t_r, include_diagonal)
            assert load[r] == occupancy_at(inst, everything, t_r, include_diagonal)
            assert (summed > rules.limit) == (r + 1 in over)
    assert binding > 0, "capacity never binds; the capacity check is vacuous"


def test_reversed_window_holds_negative_units():
    # truck 2 departs (t=3) before truck 1 arrives (t=5): validation rejects
    # flow on such a pair and ``generate`` never draws it, so the instance is
    # built directly. The occupancy term f_12 * ([a_1 <= t] - [d_2 <= t]) is
    # -f_12 from d_2 until a_1.
    inst = Instance(
        n=2,
        m=2,
        arrival=(5.0, 0.0),
        departure=(10.0, 3.0),
        transfer_time=((0.0, 1.0), (1.0, 0.0)),
        transfer_cost=((1.0, 1.0), (1.0, 1.0)),
        flow=((0.0, 7.0), (0.0, 0.0)),
        penalty=((0.0, 1.0), (0.0, 0.0)),
        capacity=None,
    )
    shipped = Solution(dock=(1, 2), transfers=((1, 2, 1, 2),))
    for form in (Formulation.CROSS_DOCK, Formulation.R_CROSS_DOCK):
        rules = compile_rules(inst, form)
        occupancy = [occupancy_at(inst, shipped, t_r) for t_r in rules.events]
        assert rules.load([(1, 2)]) == occupancy == [0.0, -7.0, 0.0, 0.0]
        assert not any(itertools.chain.from_iterable(rules.time_ok[0][1]))


def test_rules_are_compiled_once_per_instance_and_formulation(nine_truck):
    first = compile_rules(nine_truck, Formulation.CROSS_DOCK)
    assert compile_rules(nine_truck, Formulation.CROSS_DOCK) is first
    assert compile_rules(nine_truck, Formulation.R_CROSS_DOCK) is not first
    # the diagonal mode does not change the rules: both modes read one set
    for form in (Formulation.CROSS_DOCK, Formulation.R_CROSS_DOCK):
        strict, default = _Tables(nine_truck, form, True), _Tables(nine_truck, form, False)
        assert strict.rules is default.rules
