"""Transfer selection for a fixed dock assignment.

Under CROSS-DOCK, docking both trucks of a pair forces the transfer, so the
transfer set is a *function* of the assignment (or the assignment is
infeasible, with a witness naming the clash). Under R-CROSS-DOCK transfers
are optional, so the best set maximizes total gain p_ij*f_ij - c_kl*t_kl
subject to the model's rules and capacity. Every rule is read from the
compiled tables of :func:`crossdock.formulations.compile_rules`. A choosable
transfer is an item, a 1-based (i, j, k, l, gain) tuple; items go in (i, j)
order, the form (0-based there) that the search's tables in
:mod:`crossdock.exact` use. The capacity choice itself, a knapsack over the
items' buffer intervals, is made exactly by one kernel on plain lists,
:func:`select_items`, which :func:`select_transfers` and the tables share; a
deadline can stop it. A dock array that does not fit the instance (length, a
dock outside 0..m) raises ValueError.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .formulations import (
    ConstraintFamily,
    ConstraintId,
    Formulation,
    compile_rules,
)
from .model import EPS, UNASSIGNED, Instance, Solution, _dock_array

@dataclass(frozen=True)
class InfeasibilityWitness:
    """Why no transfer set is compatible with a CROSS-DOCK assignment: the
    ``blocking`` row, and the pair-forcing row it clashes with (None for a
    capacity row, which the forced load as a whole overflows)."""

    blocking: ConstraintId
    forcing: ConstraintId | None


@dataclass(frozen=True)
class TransferSelection:
    solution: Solution
    total_gain: float


class _OutOfBudget(Exception):
    """A search ran out of nodes or time; :func:`select_items` raises it."""


class DockConflictError(ValueError):
    def __init__(self, constraint: ConstraintId, message: str):
        self.constraint = constraint
        super().__init__(message)


def induced_transfers_crossdock(inst: Instance, dock) -> Solution | InfeasibilityWitness:
    """The unique CROSS-DOCK transfer set for a dock assignment, or a witness.

    Docking trucks i at k and j at l forces z_ijkl = 1; the forced tuples go
    in (i, j) order. The witness is the row that
    :func:`crossdock.diagnosis.find_conflict` blames:

    1. the smallest same-dock row, with its pair-forcing row;
    2. else, if the forced load overloads the buffer, the first overloaded
       event, with ``forcing=None``;
    3. else the smallest time row, with its pair-forcing row.

    Diagonal transfers are never *induced*: in the strict-literal model they
    stay free and are handled by the caller's selection step.
    """
    rules = compile_rules(inst, Formulation.CROSS_DOCK)
    y = _dock_array(inst, dock)
    docked = [(i, k) for i, k in enumerate(y, 1) if k != UNASSIGNED]
    forced = [(i, j, k, l) for i, k in docked for j, l in docked if j != i]
    F = ConstraintFamily
    for i, j, k, l in forced:
        if k == l and rules.same_dock_bound[i - 1][j - 1] < 1:
            return InfeasibilityWitness(
                ConstraintId(F.SAME_DOCK_TW, (i, j, k)),
                ConstraintId(F.PAIR_FORCING, (i, j, k, l)),
            )
    if forced and rules.limit < math.inf:
        load = rules.load((i, j) for i, j, _, _ in forced)
        for r, occ in enumerate(load, 1):
            if occ > rules.limit:
                return InfeasibilityWitness(ConstraintId(F.CAPACITY, (r,)), None)
    for i, j, k, l in forced:
        if not rules.time_ok[i - 1][j - 1][k - 1][l - 1]:
            return InfeasibilityWitness(
                ConstraintId(F.TIME_FEASIBILITY, (i, j, k, l)),
                ConstraintId(F.PAIR_FORCING, (i, j, k, l)),
            )
    return Solution(dock=y, transfers=tuple(forced))


def check_dock_conflicts(inst: Instance, dock) -> ConstraintId | None:
    """First violated dock-conflict constraint for an assignment, if any."""
    overlap = compile_rules(inst, Formulation.R_CROSS_DOCK).overlap
    y = _dock_array(inst, dock)
    for i in inst.trucks():
        k = y[i - 1]
        if k == UNASSIGNED:
            continue
        for j in range(i + 1, inst.n + 1):
            if y[j - 1] == k and overlap[i - 1][j - 1]:
                return ConstraintId(ConstraintFamily.DOCK_CONFLICT, (i, j, k))
    return None


def select_items(
    gains: Sequence[float],
    holds: Sequence[tuple[int, int, float]],
    base: Sequence[float],
    limit: float,
    floor: float | None = None,
    deadline: float | None = None,
) -> tuple[list[int], float] | None:
    """Best subset of items under the capacity rows: (picked, gain).

    Item x gains ``gains[x]`` (positive) and adds ``units`` >= 0 to the
    buffer at the events lo <= r < hi, ``holds[x] = (lo, hi, units)`` (a
    :attr:`Rules.hold` entry); ``base`` is the load of the forced transfers at
    each event. A negative unit raises ValueError: every transfer that can be
    selected holds a forward interval (an allowed R-CROSS-DOCK transfer has
    d_j - a_i - t_kl > EPS, a strict-literal self-flow has a_i < d_i), so
    loads only grow along a search path and a load checked as an item is
    added never exceeds the final one. ``picked`` lists item indices in
    ascending order. A load x fits iff x <= ``limit``, the fit rule that
    :attr:`Rules.limit` compiles for every capacity row. When every item
    fits, as always under an unbounded buffer's ``limit`` of ``math.inf``,
    all are taken. Otherwise a ``base`` that does not fit raises
    ValueError, and an exact depth-first search runs, "take" before "leave
    out". Ties between optimal subsets go to the lexicographically first, so
    callers that list items in the same order pick the same subset.

    Rows: only the events that some subset can overload are checked, those
    where ``base`` plus every unit, summed in index order, does not fit, and
    of the events that one set of items covers only the one with the
    highest ``base``. Every subset passes or fails exactly as against every
    event: float addition is monotone, so a load summed in index order (as
    the search sums it) never exceeds that sum, and the same items added to a
    higher base never give a lower load.

    ``floor``: return only a subset that keeps more than floor + EPS, and
    None when none does. Before the search, a per-event fractional bound
    (Dantzig 1957): at each event, the covering items must shed their excess
    load (base plus every covering unit minus the limit: what any subset that
    fits sheds at least), and the cheapest fractional shed, by gain per unit,
    bounds the gain lost there. If the worst event leaves no gain above the
    floor, the result is None at once; otherwise the search starts from the
    floor. Unless two subset gains lie within EPS of each other, a floored
    result is the unfloored one whenever that keeps more than floor + EPS.

    ``deadline``: a :func:`time.perf_counter` reading; the search reads the
    clock at its first node and every 1,024 nodes after, and raises
    ``_OutOfBudget`` once the deadline has passed.
    """
    # per-pair rule: take everything if capacity never binds
    occ_all = list(base)
    for lo, hi, units in holds:
        if units < 0:
            raise ValueError("select_items: an item has negative buffer units")
        for r in range(lo, hi):
            occ_all[r] += units
    if all(v <= limit for v in occ_all):
        total = sum(gains)
        if floor is not None and total <= floor + EPS:
            return None
        return list(range(len(gains))), total
    if any(v > limit for v in base):
        raise ValueError("select_items: the base load exceeds capacity")

    # the rows: per set of covering items (a bit mask), the highest-base event
    # that base plus every unit overloads
    cover = [0] * len(base)
    for idx, (lo, hi, _) in enumerate(holds):
        bit = 1 << idx
        for r in range(lo, hi):
            cover[r] |= bit
    highest: dict[int, int] = {}
    for r, key in enumerate(cover):
        if key and occ_all[r] > limit:
            if key not in highest or base[r] > base[highest[key]]:
                highest[key] = r
    keep = sorted(highest.values())
    # each item adds ``units`` to the buffer at the kept rows of ``rows``
    rows_of = [
        (range(bisect_left(keep, lo), bisect_left(keep, hi)), units)
        for lo, hi, units in holds
    ]

    if floor is not None:
        # the gain each event forces out, shedding the cheapest units first
        shedders = sorted(
            (idx for idx, (_, _, units) in enumerate(holds) if units > 0),
            key=lambda idx: gains[idx] / holds[idx][2],
        )
        lost = 0.0
        for r in keep:
            excess = occ_all[r] - limit
            shed = 0.0
            for idx in shedders:
                if excess <= 0:
                    break
                lo, hi, units = holds[idx]
                if lo <= r < hi:
                    shed += gains[idx] * min(1.0, excess / units)
                    excess -= units
            lost = max(lost, shed)
        if sum(gains) - lost <= floor + EPS:
            return None

    best_gain = -math.inf if floor is None else floor
    best_pick: list[int] | None = None
    suffix = [0.0] * (len(gains) + 1)
    for idx in range(len(gains) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] + gains[idx]
    occ = [base[r] for r in keep]
    # the search, without recursion: one (item, gain before it, loads of its
    # rows before it) entry per item taken on the path to node (idx, gain)
    taken: list[tuple[int, float, list[float]]] = []
    idx, gain, visits = 0, 0.0, 0
    while True:
        if visits & 1023 == 0 and deadline is not None and time.perf_counter() > deadline:
            raise _OutOfBudget
        visits += 1
        if gain + suffix[idx] > best_gain + EPS:
            if idx == len(gains):  # a leaf that keeps more than the best
                best_gain = gain
                best_pick = [entry[0] for entry in taken]
            else:
                rows, units = rows_of[idx]
                for r in rows:
                    if occ[r] + units > limit:
                        break
                else:
                    taken.append((idx, gain, occ[rows.start : rows.stop]))
                    for r in rows:
                        occ[r] += units
                    gain += gains[idx]
                idx += 1
                continue
        # this node's subtree is done: leave out the latest item taken
        if not taken:
            break
        idx, gain, saved = taken.pop()
        rows = rows_of[idx][0]
        occ[rows.start : rows.stop] = saved  # exact, unlike subtracting
        idx += 1

    if best_pick is None:  # nothing keeps more than the floor
        return None
    return best_pick, best_gain


def select_transfers(
    inst: Instance,
    items: Sequence[tuple[int, int, int, int, float]],
    forced: Sequence[tuple[int, int, int, int]] = (),
) -> tuple[tuple[tuple[int, int, int, int], ...], float]:
    """Best subset of 1-based (i, j, k, l, gain) ``items`` under the capacity
    rows: (transfers, total_gain).

    ``forced`` transfers contribute occupancy but are not selectable. The
    items with gain above EPS, in (i, j) order, go to :func:`select_items`:
    when they all fit, the per-pair gain rule applies directly; otherwise an
    exact depth-first search picks the best subset. Gains of exactly zero are
    never selected. An item that holds a backward interval (possible only on
    an instance that fails validation) raises ValueError.

    This EPS filter restates the ship rule of :func:`crossdock.exact._net`
    on purpose: this function is the oracle route that brute force takes and
    that the tests check the tables against, so a slip in either statement of
    the rule shows as a disagreement between the two routes.
    """
    # the capacity rows are the same in both models; the strict-literal
    # CROSS-DOCK self-transfers are selected exactly like R-CROSS-DOCK's
    rules = compile_rules(inst, Formulation.R_CROSS_DOCK)
    viable = sorted(item for item in items if item[4] > EPS)
    picked, total = select_items(
        [item[4] for item in viable],
        [rules.hold[i - 1][j - 1] for i, j, _, _, _ in viable],
        rules.load((i, j) for i, j, _, _ in forced),
        rules.limit,
    )
    return tuple(viable[x][:4] for x in picked), total


def diagonal_candidates_crossdock(
    inst: Instance,
) -> list[tuple[int, int, int, int, float]]:
    """Strict-literal CROSS-DOCK self-transfers, as 1-based
    (i, i, k, l, gain) items in truck order.

    Nothing in the printed model constrains z_iikl (every constraint
    quantifies j != i), so each truck's self-flow can ship through the
    cheapest dock pair regardless of the assignment.
    """
    rules = compile_rules(inst, Formulation.CROSS_DOCK)
    cost, k, l = min(
        (rules.ct[k - 1][l - 1], k, l) for k in inst.docks() for l in inst.docks()
    )
    return [(i, i, k, l, rules.pf[i - 1][i - 1] - cost) for i in inst.trucks()]


def optimal_transfers_rcrossdock(
    inst: Instance,
    dock,
    include_diagonal: bool = False,
) -> TransferSelection:
    """Best R-CROSS-DOCK transfer set for an assignment.

    The items are the docked ordered pairs whose transfer the R-CROSS-DOCK
    rules allow, and in strict-literal mode each docked truck's self-transfer
    at its own dock, which faces no time or precedence rule. The assignment
    must satisfy the dock-conflict constraints; otherwise DockConflictError
    is raised.
    """
    y = _dock_array(inst, dock)
    conflict = check_dock_conflicts(inst, y)
    if conflict is not None:
        raise DockConflictError(
            conflict, f"dock_conflict: {conflict} blocks this assignment"
        )
    rules = compile_rules(inst, Formulation.R_CROSS_DOCK)
    ct, pf, allowed = rules.ct, rules.pf, rules.allowed
    docked = [(i, k) for i, k in enumerate(y, 1) if k != UNASSIGNED]
    items = [
        (i, j, k, l, pf[i - 1][j - 1] - ct[k - 1][l - 1])
        for i, k in docked
        for j, l in docked
        if (i != j or include_diagonal) and allowed[i - 1][j - 1][k - 1][l - 1]
    ]
    transfers, total_gain = select_transfers(inst, items)
    return TransferSelection(Solution(dock=y, transfers=transfers), total_gain)
