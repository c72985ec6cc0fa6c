"""Infeasibility explanation for a fixed dock assignment.

With y fixed, the transfer variables are squeezed between lower bounds
(CROSS-DOCK pair forcing) and upper bounds (time feasibility, same-dock
precedence), with capacity checked over the forced set; every rule is read
from :func:`crossdock.formulations.compile_rules`. When that system is
unsatisfiable, a deletion filter reduces the active constraints to an
irreducible conflict set: dropping any single member makes the rest
satisfiable, which is re-verified before reporting.

Candidates are processed in reverse (family, indices) order so that, when
several disjoint conflicts exist, the lexicographically smallest one
survives the filter. The filter runs on counters, so each removal test is
O(1) unless the buffer load has to be summed (see :func:`find_conflict`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .formulations import (
    ConstraintFamily,
    ConstraintId,
    Formulation,
    compile_rules,
    time_margin,
)
from .model import EPS, UNASSIGNED, Instance, Solution, _dock_array, format_number
from .subproblem import check_dock_conflicts


@dataclass(frozen=True)
class ConflictSet:
    constraints: tuple[ConstraintId, ...]
    minimal: bool
    narrative: str


def _narrative(inst: Instance, conflict: tuple[ConstraintId, ...]) -> str:
    lines = ["the following constraints cannot hold together:"]
    for c in conflict:
        if c.family is ConstraintFamily.PAIR_FORCING:
            i, j, k, l = c.indices
            lines.append(
                f"  {c}: y_{i}_{k} = 1 and y_{j}_{l} = 1 force z_{i}_{j}_{k}_{l} = 1"
            )
        elif c.family is ConstraintFamily.TIME_FEASIBILITY:
            i, j, k, l = c.indices
            margin = time_margin(inst, i, j, k, l)
            lines.append(
                f"  {c}: f_{i}_{j} = {format_number(inst.f(i, j))} > 0 and "
                f"d_{j} - a_{i} - t_{k}_{l} = {margin:.6g} < 0 "
                f"force z_{i}_{j}_{k}_{l} = 0"
            )
        elif c.family is ConstraintFamily.SAME_DOCK_TW:
            i, j, k = c.indices
            lines.append(
                f"  {c}: overlapping windows forbid the same-dock transfer "
                f"z_{i}_{j}_{k}_{k}"
            )
        elif c.family is ConstraintFamily.CAPACITY:
            (r,) = c.indices
            lines.append(
                f"  {c}: the forced transfers overflow the buffer at event {r}"
            )
        elif c.family is ConstraintFamily.DOCK_CONFLICT:
            i, j, k = c.indices
            lines.append(
                f"  {c}: trucks {i} and {j} share dock {k} with overlapping "
                f"time windows"
            )
    return "\n".join(lines)


def find_conflict(
    inst: Instance, dock, form: Formulation
) -> ConflictSet | None:
    """Minimal conflict set of the fixed-y system, or None when consistent.

    Uses a deletion filter: walk the candidate constraints (reverse
    deterministic order) and drop every one whose removal keeps the system
    unsatisfiable; what remains is irreducible. Minimality is then verified
    by re-checking each single-constraint removal.

    Active pair-forcing rows push transfers up; active time and same-dock
    rows push them down. The filter keeps running state instead of
    re-reading the active rows for each removal: the active pair-forcing
    tuples and capacity rows, for each tuple the number of active time and
    same-dock rows that hang on it, and the witnesses, the hanging rows whose
    pair-forcing row is active. A removal keeps the clash at once while a
    witness remains; only when none does is the buffer load of the active
    pair-forcing rows summed, in candidate order. Dropping a row updates the
    state in O(1). Under R-CROSS-DOCK every dock-conflict row clashes on its own, so
    the filter keeps the first and the result is minimal at once.
    """
    if form is Formulation.R_CROSS_DOCK:
        # every dock-conflict row clashes on its own, so the filter keeps the
        # first in sorted order: the first found, as the scan walks (i, j) in
        # ascending order
        first = check_dock_conflicts(inst, dock)
        if first is None:
            return None
        return ConflictSet((first,), True, _narrative(inst, (first,)))
    rules = compile_rules(inst, form, False)
    y = _dock_array(inst, dock)
    # only rows on docked trucks can clash: every other row is vacuous
    docked = [(i, k) for i, k in enumerate(y, start=1) if k != UNASSIGNED]

    F = ConstraintFamily
    PF, SD, TF, CAP = F.PAIR_FORCING, F.SAME_DOCK_TW, F.TIME_FEASIBILITY, F.CAPACITY
    # forced, like the pair-forcing candidates, is in (i, j) order; each
    # candidate comes with its key: the pair-forcing tuple that the row is or
    # hangs on, or a capacity row's event
    forced = [(i, j, k, l) for i, k in docked for j, l in docked if j != i]
    entries = [(ConstraintId(PF, t), t) for t in forced]
    for t in forced:
        i, j, k, l = t
        if k == l and rules.same_dock_bound[i - 1][j - 1] < 1:
            entries.append((ConstraintId(SD, (i, j, k)), t))
        if not rules.time_ok[i - 1][j - 1][k - 1][l - 1]:
            entries.append((ConstraintId(TF, t), t))
    if not inst.unbounded_capacity and forced:
        entries += [(ConstraintId(CAP, (r,)), r) for r in range(1, 2 * inst.n + 1)]
    entries.sort(key=lambda e: (e[0].family, e[0].indices))
    candidates = [c for c, _ in entries]
    rows = [(c.family, key) for c, key in entries]
    up = set(forced)
    caps = {key for f, key in rows if f is CAP}
    hang = Counter(key for f, key in rows if f is TF or f is SD)
    witnesses = sum(hang.values())

    def overload(skip, events) -> bool:
        # capacity is checked on the least forced set, since occupancy
        # contributions are nonnegative for validated instances
        if not events:
            return False
        load = rules.load(t[:2] for t in forced if t in up and t != skip)
        return any(load[r - 1] - rules.capacity > EPS for r in events)

    def without(pos) -> tuple[int, bool]:
        """The witnesses left without the active row ``pos``, and whether the
        other active rows still clash."""
        f, key = rows[pos]
        if f is PF:
            left = witnesses - hang[key]
            return left, left > 0 or overload(key, caps)
        if f is CAP:
            return witnesses, witnesses > 0 or overload(None, caps - {key})
        left = witnesses - (key in up)
        return left, left > 0 or overload(None, caps)

    if not (witnesses or overload(None, caps)):
        return None
    active = [True] * len(candidates)
    for pos in reversed(range(len(candidates))):
        left, clashes = without(pos)
        if clashes:
            witnesses = left
            active[pos] = False
            f, key = rows[pos]
            if f is PF:
                up.remove(key)
            elif f is CAP:
                caps.remove(key)
            else:
                hang[key] -= 1

    kept = [pos for pos, on in enumerate(active) if on]
    assert witnesses or overload(None, caps)  # the set itself must clash
    conflict = tuple(candidates[pos] for pos in kept)
    return ConflictSet(
        constraints=conflict,
        minimal=not any(without(pos)[1] for pos in kept),
        narrative=_narrative(inst, conflict),
    )


def explain_pair(
    inst: Instance, i: int, j: int, k: int, l: int, form: Formulation
) -> str:
    """Which of the two coupling anomalies, if any, the tuple exhibits.

    Case 1: a zero-size load (f_ij = 0) whose reverse transfer is viable, so
    the CROSS-DOCK pair forcing makes the solver pay transfer cost for
    pallets that do not exist. Case 2: a buffered transfer that is physically
    possible (the destination leaves after the source arrives) but eliminated
    because the dock-to-dock operation time does not fit, which the pair
    forcing then propagates to the healthy reverse direction.

    Trucks outside 1..n or docks outside 1..m raise ValueError.
    """
    if i == j:
        raise ValueError("explain_pair needs two distinct trucks")
    _dock_array(inst, Solution(dock=(UNASSIGNED,) * inst.n, transfers=((i, j, k, l),)))
    margin = time_margin(inst, i, j, k, l)
    reverse_margin = time_margin(inst, j, i, l, k)
    rectified = (
        "R-CROSS-DOCK decouples the pair, so only the affected direction is lost."
        if form is Formulation.R_CROSS_DOCK
        else "Removing the pair-forcing rows is the rectified model's fix."
    )
    if inst.f(i, j) <= EPS:
        if inst.f(j, i) > EPS and reverse_margin >= -EPS:
            return (
                f"case 1 (phantom transfer): f_{i}{j} = 0, yet selecting the "
                f"viable reverse transfer z_{j}{i}{l}{k} (margin "
                f"{reverse_margin:.6g}) forces z_{i}{j}{k}{l} = 1 under "
                f"CROSS-DOCK, paying c_{k}{l}*t_{k}{l} = "
                f"{format_number(inst.c(k, l) * inst.t(k, l))} for a zero-size load. "
                f"{rectified}"
            )
        return "no anomaly: the pair carries no flow in this direction."
    if inst.d(j) - inst.a(i) >= -EPS and margin < -EPS:
        return (
            f"case 2 (eliminated transfer): truck {j} departs after truck {i} "
            f"arrives (d_{j} - a_{i} = {inst.d(j) - inst.a(i):.6g}), so a "
            f"buffered move is physically possible, but d_{j} - a_{i} - "
            f"t_{k}{l} = {margin:.6g} < 0 forces z_{i}{j}{k}{l} = 0 and the "
            f"CROSS-DOCK pair forcing then kills z_{j}{i}{l}{k} as well. {rectified}"
        )
    return "no anomaly: the transfer is time-feasible with positive flow."
