import itertools
import math
from collections import Counter

import numpy as np
import pytest

from crossdock import subproblem
from crossdock.diagnosis import find_conflict
from crossdock.exact import _Tables, _UNDOCKED, branch_and_bound, brute_force
from crossdock.formulations import (
    ConstraintFamily,
    ConstraintId,
    Formulation,
    check_solution,
    compile_rules,
)
from crossdock.instance_io import generate
from crossdock.model import EPS, Instance, Solution
from crossdock.subproblem import (
    DockConflictError,
    InfeasibilityWitness,
    check_dock_conflicts,
    induced_transfers_crossdock,
    optimal_transfers_rcrossdock,
    select_transfers,
)
from crossdock.vns import vns_solve

from conftest import tiny_two_truck


class TestInducedCrossdock:
    def test_published_clash(self, nine_truck):
        witness = induced_transfers_crossdock(nine_truck, (1, 2, 0, 0, 0, 0, 0, 0, 0))
        assert isinstance(witness, InfeasibilityWitness)
        assert witness.forcing.family is ConstraintFamily.PAIR_FORCING
        assert witness.forcing.indices == (1, 2, 1, 2)
        assert witness.blocking.family is ConstraintFamily.TIME_FEASIBILITY
        assert witness.blocking.indices == (1, 2, 1, 2)

    def test_single_docked_truck_is_empty(self, nine_truck):
        sol = induced_transfers_crossdock(nine_truck, (1,) + (0,) * 8)
        assert isinstance(sol, Solution)
        assert sol.transfers == ()

    def test_s_star_assignment_reproduces_printed_transfers(
        self, nine_truck, s_star
    ):
        sol = induced_transfers_crossdock(nine_truck, s_star.dock)
        assert isinstance(sol, Solution)
        assert sol.transfers == s_star.transfers

    def test_is_a_function_of_y(self):
        # determinism and idempotence over random assignments
        import numpy as np

        rng = np.random.default_rng(11)
        done = 0
        seed = 0
        while done < 200:
            inst = generate(seed, n=4, m=2)
            dock = tuple(int(rng.integers(0, inst.m + 1)) for _ in range(inst.n))
            first = induced_transfers_crossdock(inst, dock)
            second = induced_transfers_crossdock(inst, dock)
            assert first == second
            if isinstance(first, Solution):
                again = induced_transfers_crossdock(inst, first.dock)
                assert again == first
            done += 1
            seed = (seed + 1) % 50

    def test_capacity_witness(self):
        inst = tiny_two_truck(capacity=4.0)
        witness = induced_transfers_crossdock(inst, (1, 1))
        assert isinstance(witness, InfeasibilityWitness)
        assert witness.blocking.family is ConstraintFamily.CAPACITY


class TestGainRule:
    def test_positive_gain_selected(self):
        inst = tiny_two_truck(t11=1.0, c11=3.0, f12=5.0, p12=2.0)
        # gain = 10 - 3 = 7
        sel = optimal_transfers_rcrossdock(inst, (1, 1))
        assert sel.solution.transfers == ((1, 2, 1, 1),)
        assert sel.total_gain == 7.0

    def test_nonpositive_margin_never_selected(self):
        # d_2 - a_1 - t_11 = 3 - 0 - 3 = 0: closed boundary forbids it
        inst = tiny_two_truck(t11=3.0, c11=0.1, f12=5.0, p12=2.0)
        sel = optimal_transfers_rcrossdock(inst, (1, 1))
        assert sel.solution.transfers == ()

    def test_zero_gain_not_selected(self):
        inst = tiny_two_truck(t11=1.0, c11=10.0, f12=5.0, p12=2.0)
        # gain = 10 - 10 = 0: tie-break excludes it
        sel = optimal_transfers_rcrossdock(inst, (1, 1))
        assert sel.solution.transfers == ()

    def test_dock_conflict_precondition(self, nine_truck):
        with pytest.raises(DockConflictError, match="DockConflict"):
            optimal_transfers_rcrossdock(nine_truck, (1, 1, 0, 0, 0, 0, 0, 0, 0))
        assert check_dock_conflicts(nine_truck, (1, 2, 0, 0, 0, 0, 0, 0, 0)) is None


def _exhaustive_best(inst, dock, include_diagonal=False):
    """Independent oracle: try every subset of the docked ordered pairs whose
    gain p_ij*f_ij - c_kl*t_kl is positive and that the checker accepts alone;
    the checker judges each subset."""

    def feasible(transfers):
        sol = Solution(dock=dock, transfers=transfers)
        return check_solution(inst, sol, Formulation.R_CROSS_DOCK, include_diagonal)

    docked = [(i, k) for i, k in enumerate(dock, 1) if k]
    cands = [
        ((i, j, k, l), inst.p(i, j) * inst.f(i, j) - inst.c(k, l) * inst.t(k, l))
        for i, k in docked
        for j, l in docked
        if i != j or include_diagonal
    ]
    cands = [(z, gain) for z, gain in cands if gain > 0 and feasible((z,)).feasible]
    best = None
    best_gain = -1.0
    for size in range(len(cands) + 1):
        for combo in itertools.combinations(cands, size):
            transfers = tuple(z for z, _ in combo)
            if not feasible(transfers).feasible:
                continue
            gain = sum(g for _, g in combo)
            if gain > best_gain + 1e-9:
                best_gain = gain
                best = Solution(dock=dock, transfers=transfers)
    return best, best_gain


class TestSelectionAgainstEnumeration:
    def test_unbounded_matches_per_pair_rule(self):
        for seed in range(12):
            inst = generate(seed, n=4, m=2)
            dock = _repaired_dock(inst, seed)
            sel = optimal_transfers_rcrossdock(inst, dock)
            oracle_sol, oracle_gain = _exhaustive_best(inst, dock)
            assert sel.total_gain == pytest.approx(oracle_gain)
            assert sel.solution.transfers == oracle_sol.transfers

    def test_binding_capacity_matches_enumeration(self):
        found_binding = 0
        for seed in range(30):
            inst = generate(seed, n=4, m=2, capacity_ratio=0.25)
            dock = _repaired_dock(inst, seed)
            sel = optimal_transfers_rcrossdock(inst, dock)
            oracle_sol, oracle_gain = _exhaustive_best(inst, dock)
            assert sel.total_gain == pytest.approx(oracle_gain)
            unconstrained = optimal_transfers_rcrossdock(
                inst.with_capacity(None), dock
            )
            if unconstrained.total_gain > sel.total_gain + 1e-9:
                found_binding += 1
        assert found_binding > 0, "capacity never bound; test is vacuous"


def _repaired_dock(inst, seed):
    import numpy as np

    rng = np.random.default_rng(seed + 1000)
    dock = [int(rng.integers(0, inst.m + 1)) for _ in range(inst.n)]
    while True:
        conflict = check_dock_conflicts(inst, dock)
        if conflict is None:
            return tuple(dock)
        i, j, _ = conflict.indices
        dock[max(i, j) - 1] = 0


class TestCapacityMonotonicity:
    def test_constrained_selection_is_subset_of_unbounded(self):
        for seed in range(25):
            inst = generate(seed, n=4, m=2, capacity_ratio=0.3)
            dock = _repaired_dock(inst, seed)
            constrained = optimal_transfers_rcrossdock(inst, dock)
            unbounded = optimal_transfers_rcrossdock(inst.with_capacity(None), dock)
            assert set(constrained.solution.transfers) <= set(
                unbounded.solution.transfers
            )

    def test_total_gain_monotone_in_capacity(self):
        for seed in range(25):
            inst = generate(seed, n=4, m=2)
            dock = _repaired_dock(inst, seed)
            total = sum(inst.f(i, j) for i in inst.trucks() for j in inst.trucks() if i != j)
            gains = []
            for ratio in (0.1, 0.3, 0.6, 1.0):
                capped = inst.with_capacity(max(1.0, ratio * total))
                gains.append(optimal_transfers_rcrossdock(capped, dock).total_gain)
            assert gains == sorted(gains)


class TestSelectionMachinery:
    def test_forced_transfers_consume_capacity(self):
        inst = tiny_two_truck(t11=0.0, c11=1.0, f12=5.0, p12=2.0, capacity=5.0)
        sel = optimal_transfers_rcrossdock(inst, (1, 1))
        assert sel.solution.transfers == ((1, 2, 1, 1),)
        items = [(1, 2, 1, 1, sel.total_gain)]
        # without the forced load the pair fits; with it the buffer is full
        assert select_transfers(inst, items) == (((1, 2, 1, 1),), 10.0)
        assert select_transfers(inst, items, forced=((1, 2, 1, 1),)) == ((), 0.0)

    def test_diagonal_candidates_respect_flag(self, nine_truck):
        dock = (1,) + (0,) * 8
        with_diag = optimal_transfers_rcrossdock(nine_truck, dock, include_diagonal=True)
        assert with_diag.solution.transfers == ((1, 1, 1, 1),)
        without = optimal_transfers_rcrossdock(nine_truck, dock)
        assert without.solution.transfers == ()


def test_induced_solutions_always_pass_the_checker(nine_truck):
    # pair forcing determines z from y entirely: whenever the induced set
    # exists, the full checker must accept it, and a witness means no
    # transfer set can ever satisfy the checker for that assignment. The
    # witness is the row find_conflict blames: a row the checker reports on
    # the forced set, the last row of the conflict set, and paired with a
    # pair-forcing row unless it is a capacity row
    F = ConstraintFamily
    # a same-dock row beats the time row (1,2,1,2) on the fixture, and an
    # overload beats the time row (4,5,1,2) on a generated instance
    assert induced_transfers_crossdock(
        nine_truck, (1, 2, 0, 0, 0, 0, 0, 1, 0)
    ) == InfeasibilityWitness(
        ConstraintId(F.SAME_DOCK_TW, (1, 8, 1)),
        ConstraintId(F.PAIR_FORCING, (1, 8, 1, 1)),
    )
    assert induced_transfers_crossdock(
        generate(0, 5, 2, capacity_ratio=0.05), (0, 0, 0, 1, 2)
    ) == InfeasibilityWitness(ConstraintId(F.CAPACITY, (6,)), None)

    rng = np.random.default_rng(31)
    accepted = 0
    kinds, beside_time = Counter(), Counter()
    for trial in range(240):
        inst = generate(trial % 40, n=3 + trial % 4, m=3,
                        capacity_ratio=(0.5, None, 0.05)[trial % 3])
        dock = tuple(int(rng.integers(0, inst.m + 1)) for _ in range(inst.n))
        induced = induced_transfers_crossdock(inst, dock)
        if isinstance(induced, Solution):
            assert check_solution(inst, induced, Formulation.CROSS_DOCK).feasible
            accepted += 1
            continue
        family = induced.blocking.family
        kinds[family] += 1
        docked = [(i, k) for i, k in enumerate(dock, 1) if k]
        forced = Solution(dock=dock, transfers=tuple(
            (i, j, k, l) for i, k in docked for j, l in docked if j != i
        ))
        violated = check_solution(inst, forced, Formulation.CROSS_DOCK).constraint_ids()
        assert induced.blocking in violated
        conflict = find_conflict(inst, dock, Formulation.CROSS_DOCK)
        assert conflict.constraints[-1] == induced.blocking
        assert (induced.forcing is None) == (family is F.CAPACITY)
        if induced.forcing is not None:
            assert conflict.constraints == (induced.forcing, induced.blocking)
        if any(c.family is F.TIME_FEASIBILITY for c in violated):
            beside_time[family] += 1
    # the draw reaches every kind of witness, and a time row that loses to a
    # same-dock row and to an overload
    assert accepted > 10
    assert min(kinds[f] for f in (F.SAME_DOCK_TW, F.CAPACITY, F.TIME_FEASIBILITY)) > 10
    assert beside_time[F.SAME_DOCK_TW] > 0 and beside_time[F.CAPACITY] > 0


def _limit(capacity):
    """The compiled fit limit of a buffer of ``capacity``."""
    return compile_rules(tiny_two_truck(capacity=capacity), Formulation.R_CROSS_DOCK).limit


def _first_best_subset(gains, holds, base, capacity):
    """Plain-enumeration twin of ``select_items``: every subset, loads summed
    over the full ``hold`` intervals at every event and tested as the checker
    tests them, the first best subset in the kernel's order (item 0 taken
    before item 0 left out, and so on)."""
    best = None
    for take in itertools.product((True, False), repeat=len(gains)):
        picked = [x for x in range(len(gains)) if take[x]]
        load = list(base)
        for x in picked:
            lo, hi, units = holds[x]
            for r in range(lo, hi):
                load[r] += units
        if any(v - capacity > EPS for v in load):
            continue
        gain = sum(gains[x] for x in picked)
        if best is None or gain > best[1] + EPS:
            best = picked, gain
    return best


def _assert_selection_matches_enumeration(gains, holds, base, capacity):
    """The kernel at the compiled limit against its twin at ``capacity``,
    without a floor and with floors on both sides of the optimum; True if the
    capacity binds."""
    picked, gain = _first_best_subset(gains, holds, base, capacity)
    limit = _limit(capacity)
    assert subproblem.select_items(gains, holds, base, limit) == (picked, gain)
    for floor in (-1.0, 0.0, gain - 1.0, gain - 0.25, gain, gain + 0.5):
        result = subproblem.select_items(gains, holds, base, limit, floor=floor)
        assert result == (None if gain <= floor + EPS else (picked, gain)), floor
    return gain < sum(gains)


# (gains, holds, base, capacity); units sum exactly in any order
SELECTION_CASES = [
    # two events covered by the same two items: the higher base, at event 1,
    # keeps item 0 out (at event 0 alone it would fit); event 2 overflows for
    # no subset; non-integer gains and units
    ([3.0, 2.0, 1.5], [(0, 2, 4.0), (0, 2, 1.0), (2, 3, 1.25)], [2.0, 3.0, 0.0], 6.0),
    # overlapping intervals with non-integer gains, units and base
    ([2.5, 1.75, 3.25, 0.5], [(0, 2, 1.5), (1, 3, 2.25), (0, 3, 0.75), (2, 3, 3.5)], [0.0, 0.5, 1.0, 0.0], 3.0),
]


@pytest.mark.parametrize("case", SELECTION_CASES)
def test_select_items_matches_plain_enumeration(case):
    assert _assert_selection_matches_enumeration(*case)


def test_select_items_matches_plain_enumeration_on_decide_items():
    # the items and forced loads that the search's tables hand to the kernel
    checked = binding = 0
    for seed in range(3):
        inst = generate(seed, 6, 2, capacity_ratio=0.05)
        options = list(range(inst.m)) + [_UNDOCKED]
        for form, diag in itertools.product(Formulation, (False, True)):
            tables = _Tables(inst, form, diag)
            hold = tables.rules.hold
            for y0 in itertools.product(options, repeat=inst.n):
                if tables.fast_value(y0) == math.inf:
                    continue
                choice = tables._choice(y0)
                if choice is None or not 0 < len(choice[1]) <= 10:
                    continue
                _, items, base = choice
                binding += _assert_selection_matches_enumeration(
                    [item[4] for item in items],
                    [hold[i][j] for i, j, _, _, _ in items],
                    base,
                    inst.capacity,
                )
                checked += 1
    assert binding > 100, (checked, binding)


@pytest.mark.parametrize(
    "gains, holds",
    [
        # a negative-unit item that would make room for item 1 at event 0
        ([1.0, 10.0, 4.0], [(0, 1, -5.0), (0, 1, 10.0), (1, 2, 4.0)]),
        # every item fits: the check comes before the take-everything rule
        ([1.0, 2.0], [(0, 1, 1.0), (0, 1, -1.0)]),
    ],
    ids=["binding", "fits"],
)
def test_select_items_rejects_a_negative_unit(gains, holds):
    # a backward hold (d_j before a_i) comes only from an instance that fails
    # validation: no allowed transfer or self-flow of a valid one holds one
    with pytest.raises(ValueError, match="negative buffer units"):
        subproblem.select_items(gains, holds, [0.0, 0.0], 5.0)


def test_select_items_rejects_a_base_load_above_capacity():
    # event 1 carries a forced load of 10 against capacity 5 and no item
    # covers it: no subset is feasible, so the precondition is enforced
    # rather than the overload ignored
    with pytest.raises(ValueError, match="base load exceeds capacity"):
        subproblem.select_items([1.0], [(0, 1, 1.0)], [0.0, 10.0], 5.0)


def test_select_items_takes_a_thousand_items_on_one_event():
    # the search walks an explicit stack, so its depth is not bounded by
    # Python's recursion limit: all but one of 1,000 unit items fit
    picked, gain = subproblem.select_items([1.0] * 1000, [(0, 1, 1.0)] * 1000, [0.0], 999)
    assert picked == list(range(999))
    assert gain == 999.0


# at 2**53 and 1e17 a float step exceeds EPS: the float capacity + EPS is
# the capacity itself
_BOUNDARY_CAPACITIES = (0.25, 0.5, 1.0, 3.0, 5.5, 100.0, 1e5, 2.0**53, 1e17)


def _boundary_loads(capacity):
    """The float capacity + EPS with three floats below it and two above:
    one load x of them is the largest with x - capacity <= EPS."""
    loads = [capacity + EPS]
    for _ in range(3):
        loads.insert(0, math.nextafter(loads[0], -math.inf))
    for _ in range(2):
        loads.append(math.nextafter(loads[-1], math.inf))
    return loads


@pytest.mark.parametrize("capacity", _BOUNDARY_CAPACITIES)
def test_select_items_fits_a_load_as_the_checker_does(capacity):
    # the float capacity + EPS can round above the largest load that passes
    # occ - capacity <= EPS; the compiled limit is that load, so the kernel
    # takes no load between the two that every other capacity row rejects
    limit = _limit(capacity)
    for units in _boundary_loads(capacity):
        picked, _ = subproblem.select_items([1.0], [(0, 1, units)], [0.0], limit)
        assert picked == ([0] if units - capacity <= EPS else []), units


def _boundary_instance(capacity, f12):
    """Two trucks, two docks: only (1, 2) has flow, buffered at events 1-3."""
    return Instance(
        n=2,
        m=2,
        arrival=(0.0, 2.0),
        departure=(3.0, 5.0),
        transfer_time=((0.0, 0.0), (0.0, 0.0)),
        transfer_cost=((1.0, 1.0), (1.0, 1.0)),
        flow=((0.0, f12), (0.0, 0.0)),
        penalty=((0.0, 10.0), (0.0, 0.0)),
        capacity=capacity,
    )


@pytest.mark.parametrize("capacity", _BOUNDARY_CAPACITIES)
def test_solvers_ship_what_the_checker_accepts_at_the_capacity_boundary(capacity):
    # one buffered transfer (1,2,1,2) whose load sits at capacity + EPS:
    # every solver's answer must pass the literal checker in both models
    for f12 in _boundary_loads(capacity):
        inst = _boundary_instance(capacity, f12)
        for form in Formulation:
            for result in (
                branch_and_bound(inst, form),
                brute_force(inst, form),
                vns_solve(inst, form),
            ):
                report = check_solution(inst, result.best, form)
                assert report.feasible, (f12, form, report.violations)


@pytest.mark.parametrize("capacity", _BOUNDARY_CAPACITIES)
def test_every_crossdock_capacity_test_agrees_with_the_checker_at_the_boundary(capacity):
    # docks (1, 2) force (1,2,1,2), which buffers f_12 at events 1-3, and
    # (2,1,2,1), which buffers nothing: the CROSS-DOCK verdict, the conflict
    # set and the tables' leaf price call the load an overload exactly where
    # the checker reports a capacity row
    forced = Solution(dock=(1, 2), transfers=((1, 2, 1, 2), (2, 1, 2, 1)))
    row = ConstraintId(ConstraintFamily.CAPACITY, (1,))
    seen = set()
    for f12 in _boundary_loads(capacity):
        inst = _boundary_instance(capacity, f12)
        violated = check_solution(inst, forced, Formulation.CROSS_DOCK).constraint_ids()
        over = row in violated
        seen.add(over)
        witness = induced_transfers_crossdock(inst, forced.dock)
        assert witness == (InfeasibilityWitness(row, None) if over else forced), f12
        conflict = find_conflict(inst, forced.dock, Formulation.CROSS_DOCK)
        assert (conflict is not None and row in conflict.constraints) == over, f12
        leaf = _Tables(inst, Formulation.CROSS_DOCK, False).leaf_value([0, 1])
        assert (leaf is None) == over, f12
    assert seen == {False, True}
