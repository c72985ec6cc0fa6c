import itertools

import numpy as np
import pytest

from crossdock.diagnosis import ConflictSet, _narrative, explain_pair, find_conflict
from crossdock.formulations import (
    ConstraintFamily,
    ConstraintId,
    Formulation,
    check_solution,
    compile_rules,
)
from crossdock.instance_io import generate
from crossdock.model import EPS, UNASSIGNED, Instance, Solution
from crossdock.subproblem import InfeasibilityWitness, induced_transfers_crossdock

CD = Formulation.CROSS_DOCK
RCD = Formulation.R_CROSS_DOCK


def test_published_conflict_set(nine_truck, s_prime_star):
    conflict = find_conflict(nine_truck, s_prime_star.dock, CD)
    assert conflict is not None
    assert conflict.minimal
    got = [(c.family, c.indices) for c in conflict.constraints]
    assert got == [
        (ConstraintFamily.PAIR_FORCING, (1, 2, 1, 2)),
        (ConstraintFamily.TIME_FEASIBILITY, (1, 2, 1, 2)),
    ]
    assert "-0.01" in conflict.narrative


def test_s_star_assignment_is_consistent(nine_truck, s_star):
    assert find_conflict(nine_truck, s_star.dock, CD) is None


def test_all_unassigned_is_consistent(nine_truck):
    assert find_conflict(nine_truck, Solution.empty(9).dock, CD) is None
    assert find_conflict(nine_truck, Solution.empty(9).dock, RCD) is None


def test_rcrossdock_dock_conflict_detected(nine_truck):
    conflict = find_conflict(nine_truck, (1, 1, 0, 0, 0, 0, 0, 0, 0), RCD)
    assert conflict is not None
    assert conflict.minimal
    assert [c.indices for c in conflict.constraints] == [(1, 2, 1)]
    assert conflict.constraints[0].family is ConstraintFamily.DOCK_CONFLICT


def test_lexicographically_smallest_conflict_returned(nine_truck):
    # trucks 1,2 on separate docks clash as pair (1,2); trucks 5,7 also clash
    # (d_7 - a_5 - t_34 < 0 both ways); the smaller pair must be reported
    dock = (1, 2, 0, 0, 3, 0, 4, 0, 0)
    conflict = find_conflict(nine_truck, dock, CD)
    assert conflict is not None
    assert conflict.constraints[0].indices[:2] == (1, 2)


def test_consistency_iff_induced_succeeds():
    rng = np.random.default_rng(3)
    for seed in range(40):
        inst = generate(seed, n=4, m=2, capacity_ratio=0.4 if seed % 2 else None)
        dock = tuple(int(rng.integers(0, inst.m + 1)) for _ in range(inst.n))
        induced = induced_transfers_crossdock(inst, dock)
        conflict = find_conflict(inst, dock, CD)
        assert (conflict is None) == (not isinstance(induced, InfeasibilityWitness))
        if conflict is not None:
            assert conflict.minimal


def test_capacity_conflict_includes_capacity_row():
    inst = Instance(
        n=2,
        m=2,
        arrival=(0.0, 2.0),
        departure=(1.0, 3.0),
        transfer_time=((0.0, 0.5), (0.5, 0.0)),
        transfer_cost=((1.0, 1.0), (1.0, 1.0)),
        flow=((0.0, 5.0), (0.0, 0.0)),
        penalty=((0.0, 2.0), (0.0, 0.0)),
        capacity=4.0,
    )
    conflict = find_conflict(inst, (1, 2), CD)
    assert conflict is not None
    families = {c.family for c in conflict.constraints}
    assert ConstraintFamily.CAPACITY in families
    assert ConstraintFamily.PAIR_FORCING in families
    assert conflict.minimal
    # every transfer fits in time: an overload alone, as the slow twin finds
    assert ConstraintFamily.TIME_FEASIBILITY not in families
    assert conflict == _quadratic_find_conflict(inst, (1, 2), CD)
    # two pair-forcing rows share the overloaded event: each alone fits
    inst = generate(0, 5, 2, capacity_ratio=0.05)
    dock = (1, 2, 0, 0, 0)
    conflict = find_conflict(inst, dock, CD)
    assert [str(c) for c in conflict.constraints] == [
        "PairForcing(1,2,1,2)",
        "PairForcing(2,1,2,1)",
        "Capacity(3)",
    ]
    assert conflict.minimal
    assert conflict == _quadratic_find_conflict(inst, dock, CD)


def _case_instance():
    # truck 2 leaves before truck 1 arrives; truck 2 -> 1 is a real flow
    return Instance(
        n=2,
        m=2,
        arrival=(2.0, 0.0),
        departure=(3.0, 1.0),
        transfer_time=((0.0, 1.0), (1.0, 0.0)),
        transfer_cost=((1.0, 2.0), (2.0, 1.0)),
        flow=((0.0, 0.0), (0.0, 0.0)),
        penalty=((0.0, 1.0), (1.0, 0.0)),
        capacity=None,
    )


def test_explain_pair_case1_phantom():
    inst = _case_instance()
    inst = Instance(
        n=2, m=2,
        arrival=inst.arrival, departure=inst.departure,
        transfer_time=inst.transfer_time, transfer_cost=inst.transfer_cost,
        flow=((0.0, 0.0), (4.0, 0.0)),  # f_21 > 0, f_12 = 0
        penalty=inst.penalty, capacity=None,
    )
    text = explain_pair(inst, 1, 2, 1, 2, CD)
    assert text.startswith("case 1")
    assert "zero-size load" in text


def test_explain_pair_case2_eliminated():
    # d_2 > a_1 but the dock-to-dock time does not fit, flow is positive
    inst = Instance(
        n=2,
        m=2,
        arrival=(0.0, 0.5),
        departure=(2.0, 1.0),
        transfer_time=((0.0, 2.0), (2.0, 0.0)),
        transfer_cost=((1.0, 1.0), (1.0, 1.0)),
        flow=((0.0, 5.0), (0.0, 0.0)),
        penalty=((0.0, 2.0), (0.0, 0.0)),
        capacity=None,
    )
    text = explain_pair(inst, 1, 2, 1, 2, CD)
    assert text.startswith("case 2")
    assert "eliminated" in text


def test_explain_pair_no_anomaly():
    inst = Instance(
        n=2,
        m=2,
        arrival=(0.0, 0.5),
        departure=(2.0, 5.0),
        transfer_time=((0.0, 1.0), (1.0, 0.0)),
        transfer_cost=((1.0, 1.0), (1.0, 1.0)),
        flow=((0.0, 5.0), (0.0, 0.0)),
        penalty=((0.0, 2.0), (0.0, 0.0)),
        capacity=None,
    )
    assert explain_pair(inst, 1, 2, 1, 2, CD).startswith("no anomaly")


@pytest.mark.parametrize("margin", [0.0, -EPS / 2, EPS / 2, -2 * EPS])
def test_explain_pair_reads_the_checkers_time_rule(margin):
    # at d_j - a_i = 1 and t_kl = 1 - margin, the tuple's margin is about
    # ``margin``; case 2 names a transfer that check_solution rejects on time,
    # and case 1 a reverse transfer that it accepts, EPS boundary included
    def instance(arrival, departure, flow):
        return Instance(
            n=2, m=2, arrival=arrival, departure=departure,
            transfer_time=((0.0, 1.0 - margin), (1.0 - margin, 0.0)),
            transfer_cost=((1.0, 1.0), (1.0, 1.0)),
            flow=flow, penalty=((0.0, 2.0), (2.0, 0.0)), capacity=None,
        )

    def time_row(inst, t):
        sol = Solution(dock=(1, 2), transfers=(t,))
        row = ConstraintId(ConstraintFamily.TIME_FEASIBILITY, t)
        return row in check_solution(inst, sol, CD).constraint_ids()

    eliminated = instance((0.0, 0.5), (2.0, 1.0), ((0.0, 5.0), (0.0, 0.0)))
    late = time_row(eliminated, (1, 2, 1, 2))
    assert late == (margin < -EPS)
    assert explain_pair(eliminated, 1, 2, 1, 2, CD).startswith("case 2") == late
    phantom = instance((0.5, 0.0), (1.0, 2.0), ((0.0, 0.0), (4.0, 0.0)))
    late = time_row(phantom, (2, 1, 2, 1))
    assert late == (margin < -EPS)
    assert explain_pair(phantom, 1, 2, 1, 2, CD).startswith("case 1") != late


@pytest.mark.parametrize(
    "i, j, k, l",
    [(0, 2, 0, 1), (1, 2, 0, 1), (1, 2, 1, 7), (12, 2, 1, 1), (1, -1, 1, 1)],
)
def test_explain_pair_rejects_indices_outside_the_instance(nine_truck, i, j, k, l):
    # 1-based trucks 1..9 and docks 1..6: a 0 or -1 would read arrival[-1]
    # or a wrapped dock, a 7 or 12 would raise IndexError
    with pytest.raises(ValueError, match="outside trucks 1..9 or docks 1..6"):
        explain_pair(nine_truck, i, j, k, l, CD)


def test_rcrossdock_consistency_iff_no_dock_conflicts():
    from crossdock.subproblem import check_dock_conflicts

    rng = np.random.default_rng(13)
    for seed in range(40):
        inst = generate(seed, n=4, m=2)
        dock = tuple(int(rng.integers(0, inst.m + 1)) for _ in range(inst.n))
        conflict = find_conflict(inst, dock, RCD)
        assert (conflict is None) == (check_dock_conflicts(inst, dock) is None)


def _quadratic_find_conflict(inst, dock, form):
    """Slow twin of ``find_conflict``: the plain deletion filter, which
    rebuilds the active list and re-reads every active row for each removal
    test, walks the sorted candidates in reverse and re-checks every single
    removal for minimality."""
    rules = compile_rules(inst, form)
    docked = [(i, k) for i, k in enumerate(dock, start=1) if k != UNASSIGNED]
    if form is RCD:
        candidates = [
            ConstraintId(ConstraintFamily.DOCK_CONFLICT, (i, j, k))
            for i, k in docked
            for j, l in docked
            if i < j and k == l and rules.overlap[i - 1][j - 1]
        ]

        def clash(active):
            return bool(active)

    else:
        forced = [(i, j, k, l) for i, k in docked for j, l in docked if j != i]
        candidates = [ConstraintId(ConstraintFamily.PAIR_FORCING, t) for t in forced]
        for i, j, k, l in forced:
            if k == l and rules.same_dock_bound[i - 1][j - 1] < 1:
                candidates.append(ConstraintId(ConstraintFamily.SAME_DOCK_TW, (i, j, k)))
            if not rules.time_ok[i - 1][j - 1][k - 1][l - 1]:
                candidates.append(
                    ConstraintId(ConstraintFamily.TIME_FEASIBILITY, (i, j, k, l))
                )
        if not inst.unbounded_capacity and forced:
            candidates += [
                ConstraintId(ConstraintFamily.CAPACITY, (r,))
                for r in range(1, 2 * inst.n + 1)
            ]

        def clash(active):
            up = {c.indices for c in active if c.family is ConstraintFamily.PAIR_FORCING}
            for c in active:
                if c.family is ConstraintFamily.TIME_FEASIBILITY and c.indices in up:
                    return True
                if c.family is ConstraintFamily.SAME_DOCK_TW:
                    i, j, k = c.indices
                    if (i, j, k, k) in up:
                        return True
            cap_rows = [c for c in active if c.family is ConstraintFamily.CAPACITY]
            if not cap_rows:
                return False
            load = rules.load((i, j) for (i, j, _, _) in up)
            return any(load[c.indices[0] - 1] - inst.capacity > EPS for c in cap_rows)

    candidates.sort(key=lambda c: (c.family, c.indices))
    if not clash(candidates):
        return None
    active = list(candidates)
    for c in reversed(candidates):
        trial = [x for x in active if x != c]
        if clash(trial):
            active = trial
    minimal = not any(clash([x for x in active if x != c]) for c in active)
    return ConflictSet(tuple(active), minimal, _narrative(inst, tuple(active)))


def _clash_sources(inst, dock):
    """Which of a same-dock row, an overloaded buffer and a time row the
    CROSS-DOCK system of ``dock`` holds, each as a bool."""
    rules = compile_rules(inst, CD)
    docked = [(i, k) for i, k in enumerate(dock, start=1) if k != UNASSIGNED]
    forced = [(i, j, k, l) for i, k in docked for j, l in docked if j != i]
    load = rules.load((i, j) for i, j, _, _ in forced)
    same_dock = any(
        k == l and rules.same_dock_bound[i - 1][j - 1] < 1 for i, j, k, l in forced
    )
    overload = (
        bool(forced)
        and not inst.unbounded_capacity
        and any(x - inst.capacity > EPS for x in load)
    )
    late = any(not rules.time_ok[i - 1][j - 1][k - 1][l - 1] for i, j, k, l in forced)
    return same_dock, overload, late


def test_find_conflict_matches_its_slow_twin():
    rng = np.random.default_rng(11)
    kinds, sources = {}, {}
    for seed, m, ratio in itertools.product(range(12), (2, 3), (None, 0.02, 0.05)):
        inst = generate(seed, 5 + seed % 3, m, capacity_ratio=ratio)
        for form in (CD, RCD):
            for _ in range(4):
                dock = tuple(int(rng.integers(0, m + 1)) for _ in range(inst.n))
                conflict = find_conflict(inst, dock, form)
                assert conflict == _quadratic_find_conflict(inst, dock, form)
                families = conflict and frozenset(
                    c.family for c in conflict.constraints
                )
                kinds[families] = kinds.get(families, 0) + 1
                if form is CD:
                    held = _clash_sources(inst, dock)
                    sources[held] = sources.get(held, 0) + 1
    # the draw reaches every branch of the rule: same-dock, capacity-only
    # (pair-forcing rows plus one overloaded event), time, consistent, and
    # the R-CROSS-DOCK dock conflict
    F = ConstraintFamily
    for branch in (
        frozenset({F.PAIR_FORCING, F.SAME_DOCK_TW}),
        frozenset({F.PAIR_FORCING, F.CAPACITY}),
        frozenset({F.PAIR_FORCING, F.TIME_FEASIBILITY}),
        None,
        frozenset({F.DOCK_CONFLICT}),
    ):
        assert kinds.get(branch, 0) > 0, kinds
    # and every precedence case: a same-dock row beside an overloaded buffer,
    # a same-dock row beside a time row, an overload beside a time row alone
    assert sum(n for (sd, over, _), n in sources.items() if sd and over) > 0, sources
    assert sum(n for (sd, _, tf), n in sources.items() if sd and tf) > 0, sources
    assert sources.get((False, True, True), 0) > 0, sources
