"""Infeasibility explanation for a fixed dock assignment.

With y fixed, the transfer variables are squeezed between lower bounds
(CROSS-DOCK pair forcing) and upper bounds (time feasibility, same-dock
precedence), with capacity checked over the forced set; every rule is read
from :func:`crossdock.formulations.compile_rules`. When that system is
unsatisfiable, :func:`find_conflict` reports an irreducible conflict set:
dropping any single member makes the rest satisfiable, which is re-verified
before reporting.

The set is the one a deletion filter keeps when it walks the rows in reverse
(family, indices) order, so that, when several disjoint conflicts exist, the
lexicographically smallest one survives. On this system the walk always
keeps the row that :func:`crossdock.subproblem.induced_transfers_crossdock`
names as its witness, so :func:`find_conflict` is built on that witness; the
filter itself is its test twin.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulations import (
    ConstraintFamily,
    ConstraintId,
    Formulation,
    _check_form,
    compile_rules,
    time_margin,
)
from .model import EPS, UNASSIGNED, Instance, Solution, _dock_array, format_number
from .subproblem import check_dock_conflicts, induced_transfers_crossdock


@dataclass(frozen=True)
class ConflictSet:
    constraints: tuple[ConstraintId, ...]
    minimal: bool
    narrative: str

    def render(self) -> str:
        """The printed block: the set, its verified minimality, the narrative."""
        members = ", ".join(map(str, self.constraints))
        verified = f"minimality verified: {self.minimal}"
        return f"minimal conflict set: {members}\n{verified}\n{self.narrative}"


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

    ``dock`` is a dock array or a Solution. Only its docks fix y, but a
    Solution's transfers are checked against the instance as well: a dock or
    transfer outside it raises ValueError, as in check_solution.

    Under CROSS-DOCK, PairForcing(t) forces each docked tuple t = (i, j, k, l)
    up; SameDockTW(i, j, k) (on l = k) and TimeFeasibility(t) push it down,
    and Capacity(r) bounds the load of the forced tuples at event r. The
    deletion filter that walks these rows in reverse (family, indices) order
    meets the time rows first, then the capacity, same-dock and pair-forcing
    rows. While a same-dock row or an overload stands, every time row goes;
    while a same-dock row stands, every capacity row goes; and the smallest
    row of a kind is tested last, when no other of its kind is left to
    stand in for it. So the filter keeps the blocking row of
    :func:`induced_transfers_crossdock`'s witness, and with it:

    * for a same-dock or time row, its pair-forcing row;
    * for the first overloaded event r*, the pair-forcing rows that one
      reverse pass over the forced tuples keeps when it drops each tuple
      whose removal still leaves r* overloaded.

    Minimality is re-checked by removing each member in turn. The filter
    itself is the test twin ``tests/test_diagnosis.py::_quadratic_find_conflict``.
    A ``form`` that is not a Formulation raises ValueError.
    """
    _check_form(form)
    if form is Formulation.R_CROSS_DOCK:
        # every dock-conflict row clashes on its own, so the filter keeps the
        # first in sorted order: the first found, as the scan walks (i, j) in
        # ascending order
        first = check_dock_conflicts(inst, dock)
        if first is None:
            return None
        return ConflictSet((first,), True, _narrative(inst, (first,)))
    witness = induced_transfers_crossdock(inst, dock)
    if isinstance(witness, Solution):
        return None
    rules = compile_rules(inst, form)
    F = ConstraintFamily
    PF, SD, TF, CAP = F.PAIR_FORCING, F.SAME_DOCK_TW, F.TIME_FEASIBILITY, F.CAPACITY

    def overloads(up, r) -> bool:
        return rules.load(t[:2] for t in up)[r - 1] > rules.limit

    def clash(rows) -> bool:
        up = [c.indices for c in rows if c.family is PF]
        down = [c.indices + c.indices[2:] if c.family is SD else c.indices
                for c in rows if c.family is SD or c.family is TF]
        return any(t in up for t in down) or any(
            overloads(up, c.indices[0]) for c in rows if c.family is CAP
        )

    if witness.forcing is not None:
        conflict = (witness.forcing, witness.blocking)
    else:
        (r,) = witness.blocking.indices
        y = _dock_array(inst, dock)
        docked = [(i, k) for i, k in enumerate(y, start=1) if k != UNASSIGNED]
        # forced is in (i, j) order, the order of its pair-forcing rows
        forced = [(i, j, k, l) for i, k in docked for j, l in docked if j != i]
        kept = forced
        for t in reversed(forced):
            trial = [u for u in kept if u != t]
            if overloads(trial, r):
                kept = trial
        conflict = (*(ConstraintId(PF, t) for t in kept), witness.blocking)
    rest = (conflict[:p] + conflict[p + 1 :] for p in range(len(conflict)))
    return ConflictSet(conflict, not any(map(clash, rest)), _narrative(inst, conflict))


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

    Trucks outside 1..n or docks outside 1..m raise ValueError, as does a
    ``form`` that is not a Formulation.
    """
    _check_form(form)
    if i == j:
        raise ValueError("explain_pair needs two distinct trucks")
    _dock_array(inst, Solution(dock=(UNASSIGNED,) * inst.n, transfers=((i, j, k, l),)))
    time_ok = compile_rules(inst, Formulation.CROSS_DOCK).time_ok
    rectified = (
        "R-CROSS-DOCK decouples the pair, so only the affected direction is lost."
        if form is Formulation.R_CROSS_DOCK
        else "Removing the pair-forcing rows is the rectified model's fix."
    )
    if inst.f(i, j) <= EPS:
        if inst.f(j, i) > EPS and time_ok[j - 1][i - 1][l - 1][k - 1]:
            return (
                f"case 1 (phantom transfer): f_{i}{j} = 0, yet selecting the "
                f"viable reverse transfer z_{j}{i}{l}{k} (margin "
                f"{time_margin(inst, j, i, l, k):.6g}) forces z_{i}{j}{k}{l} = 1 under "
                f"CROSS-DOCK, paying c_{k}{l}*t_{k}{l} = "
                f"{format_number(inst.c(k, l) * inst.t(k, l))} for a zero-size load. "
                f"{rectified}"
            )
        return "no anomaly: the pair carries no flow in this direction."
    if inst.d(j) - inst.a(i) >= -EPS and not time_ok[i - 1][j - 1][k - 1][l - 1]:
        return (
            f"case 2 (eliminated transfer): truck {j} departs after truck {i} "
            f"arrives (d_{j} - a_{i} = {inst.d(j) - inst.a(i):.6g}), so a "
            f"buffered move is physically possible, but d_{j} - a_{i} - "
            f"t_{k}{l} = {time_margin(inst, i, j, k, l):.6g} < 0 forces "
            f"z_{i}{j}{k}{l} = 0 and the CROSS-DOCK pair forcing then kills "
            f"z_{j}{i}{l}{k} as well. {rectified}"
        )
    return "no anomaly: the transfer is time-feasible with positive flow."
