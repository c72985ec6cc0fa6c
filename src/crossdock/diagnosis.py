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
survives the filter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulations import (
    ConstraintFamily,
    ConstraintId,
    Formulation,
    compile_rules,
    time_margin,
)
from .model import EPS, UNASSIGNED, Instance, format_number
from .subproblem import _dock_array


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
    """
    rules = compile_rules(inst, form, False)
    y = _dock_array(dock)
    docked = [(i, k) for i, k in enumerate(y, start=1) if k != UNASSIGNED]
    # only rows on docked trucks can clash: every other row is vacuous
    if form is Formulation.R_CROSS_DOCK:
        candidates = [
            ConstraintId(ConstraintFamily.DOCK_CONFLICT, (i, j, k))
            for i, k in docked
            for j, l in docked
            if i < j and k == l and rules.overlap[i - 1][j - 1]
        ]

        def clash(active) -> bool:
            return bool(active)  # each dock-conflict row fails on its own

    else:
        forced = [(i, j, k, l) for i, k in docked for j, l in docked if j != i]
        candidates = [ConstraintId(ConstraintFamily.PAIR_FORCING, t) for t in forced]
        for (i, j, k, l) in forced:
            if k == l and rules.same_dock_bound[i - 1][j - 1] < 1:
                candidates.append(
                    ConstraintId(ConstraintFamily.SAME_DOCK_TW, (i, j, k))
                )
            if not rules.time_ok[i - 1][j - 1][k - 1][l - 1]:
                candidates.append(
                    ConstraintId(ConstraintFamily.TIME_FEASIBILITY, (i, j, k, l))
                )
        if not inst.unbounded_capacity and forced:
            candidates += [
                ConstraintId(ConstraintFamily.CAPACITY, (r,))
                for r in range(1, 2 * inst.n + 1)
            ]

        def clash(active) -> bool:
            # active pair-forcing rows push transfers up, active time and
            # same-dock rows push them down; capacity is checked on the least
            # forced set, since occupancy contributions are nonnegative for
            # validated instances
            up = {
                c.indices for c in active if c.family is ConstraintFamily.PAIR_FORCING
            }
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
            return any(load[c.indices[0] - 1] - rules.capacity > EPS for c in cap_rows)

    candidates.sort(key=lambda c: (c.family, c.indices))
    if not clash(candidates):
        return None

    active = list(candidates)
    for c in reversed(candidates):
        trial = [x for x in active if x != c]
        if clash(trial):
            active = trial

    assert clash(active)  # the set itself must clash
    minimal = not any(clash([x for x in active if x != c]) for c in active)
    return ConflictSet(
        constraints=tuple(active),
        minimal=minimal,
        narrative=_narrative(inst, tuple(active)),
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
    """
    if i == j:
        raise ValueError("explain_pair needs two distinct trucks")
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
