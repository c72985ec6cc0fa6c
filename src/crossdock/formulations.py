"""The CROSS-DOCK and R-CROSS-DOCK models: compiled rules, evaluator and checker.

CROSS-DOCK couples transfers to dock assignments in both directions: docking
trucks i and j at (k, l) *forces* z_ijkl = 1, and a transfer is only allowed
when the destination truck leaves late enough (the product constraint
f_ij * z_ijkl * (d_j - a_i - t_kl) >= 0) and, on a shared dock, when the time
windows do not intersect (z_ijkk <= xhat_ij + xhat_ji).

R-CROSS-DOCK drops the forcing, fixes z_ijkl = 0 whenever d_j - a_i - t_kl <= 0
(note the closed boundary, unlike CROSS-DOCK's open one), tightens the shared
dock rule to z_ijkk <= xhat_ij, and adds the dock-conflict rule
y_ik + y_jk <= 1 + xhat_ij + xhat_ji.

Both share the objective: transfer cost c_kl * t_kl per selected transfer plus
penalty p_ij * f_ij for every unserved pair.

:func:`compile_rules` decides these rules once per (instance, formulation)
into the :class:`Rules` tables that the subproblem, the solvers, the conflict
finder and the LP writer read, in both diagonal modes. :func:`check_solution`
restates every constraint literally, with each violated row's left- and
right-hand side: it is the one reference the compiled tables, the solvers
and the conflict finder are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache

from .model import (
    EPS,
    Instance,
    ObjectiveBreakdown,
    Solution,
    _dock_array,
    compute_xhat,
    event_times,
)


class Formulation(Enum):
    CROSS_DOCK = "crossdock"
    R_CROSS_DOCK = "r-crossdock"


def _check_form(form) -> None:
    """ValueError unless ``form`` is a :class:`Formulation`: the layers tell
    the models apart by identity, so a string would select one silently."""
    if not isinstance(form, Formulation):
        raise ValueError(f"form must be a Formulation, got {form!r}")


class ConstraintFamily(IntEnum):
    """Constraint families; the integer order fixes reporting order."""

    LINK_ZY_I = 2
    LINK_ZY_J = 3
    PAIR_FORCING = 4
    SAME_DOCK_TW = 5
    CAPACITY = 6
    TIME_FEASIBILITY = 7
    DOCK_CONFLICT = 8


_FAMILY_LABEL = {
    ConstraintFamily.LINK_ZY_I: "LinkZY_i",
    ConstraintFamily.LINK_ZY_J: "LinkZY_j",
    ConstraintFamily.PAIR_FORCING: "PairForcing",
    ConstraintFamily.SAME_DOCK_TW: "SameDockTW",
    ConstraintFamily.CAPACITY: "Capacity",
    ConstraintFamily.TIME_FEASIBILITY: "TimeFeasibility",
    ConstraintFamily.DOCK_CONFLICT: "DockConflict",
}


@dataclass(frozen=True, order=True)
class ConstraintId:
    """One instantiated constraint; indices are 1-based quantifier values."""

    family: ConstraintFamily
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{_FAMILY_LABEL[self.family]}({','.join(map(str, self.indices))})"


@dataclass(frozen=True)
class Violation:
    constraint: ConstraintId
    lhs: float
    rhs: float
    message: str


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def constraint_ids(self) -> tuple[ConstraintId, ...]:
        return tuple(v.constraint for v in self.violations)


class UnlinkedTransferError(ValueError):
    def __init__(self, i, j, k, l):
        self.indices = (i, j, k, l)
        super().__init__(
            f"unlinked_transfer({i},{j},{k},{l}): transfer references docks "
            f"inconsistent with the dock assignment"
        )


def _check_diagonal_use(sol: Solution, include_diagonal: bool) -> None:
    if include_diagonal:
        return
    for (i, j, _, _) in sol.transfers:
        if i == j:
            raise ValueError(
                f"diagonal transfer ({i},{j}) requires include_diagonal=True"
            )


def objective_value(
    inst: Instance,
    sol: Solution,
    form: Formulation,
    include_diagonal: bool = False,
) -> ObjectiveBreakdown:
    """Objective breakdown of a solution; identical arithmetic for both models.

    Raises UnlinkedTransferError when a transfer's docks disagree with the
    dock assignment. Strict-literal CROSS-DOCK self-transfers are exempt from
    that check: nothing in the model links z_iikl to y. Feasibility is *not*
    checked here; use check_solution. A dock array or transfer outside the
    instance raises ValueError, as does a ``form`` that is not a Formulation.
    """
    _check_form(form)
    _dock_array(inst, sol)
    _check_diagonal_use(sol, include_diagonal)
    cost = 0.0
    served: set[tuple[int, int]] = set()
    fulfilled = 0
    for (i, j, k, l) in sol.transfers:
        free_diagonal = i == j and form is Formulation.CROSS_DOCK
        if not free_diagonal and (sol.dock_of(i) != k or sol.dock_of(j) != l):
            raise UnlinkedTransferError(i, j, k, l)
        cost += inst.c(k, l) * inst.t(k, l)
        served.add((i, j))
        if inst.f(i, j) > EPS:
            fulfilled += 1
    penalty = 0.0
    for i in inst.trucks():
        for j in inst.trucks():
            if i == j and not include_diagonal:
                continue
            if (i, j) not in served:
                penalty += inst.p(i, j) * inst.f(i, j)
    return ObjectiveBreakdown(
        transfer_cost_total=cost,
        penalty_total=penalty,
        total=cost + penalty,
        fulfilled_pairs=fulfilled,
    )


def time_margin(inst: Instance, i: int, j: int, k: int, l: int) -> float:
    """d_j - a_i - t_kl: slack for moving pallets from truck i at k to j at l."""
    return inst.d(j) - inst.a(i) - inst.t(k, l)


def _time_violated(
    inst: Instance, form: Formulation, i: int, j: int, k: int, l: int
) -> bool:
    margin = time_margin(inst, i, j, k, l)
    if form is Formulation.CROSS_DOCK:
        return inst.f(i, j) > EPS and margin < -EPS
    return margin <= EPS


def occupancy_at(
    inst: Instance, sol: Solution, t_r: float, include_diagonal: bool = False
) -> float:
    """Buffer occupancy at event time t_r: arrived inflow minus departed outflow."""
    return _occupancy(_buffer_terms(inst, sol, include_diagonal), t_r)


def _buffer_terms(inst: Instance, sol: Solution, include_diagonal: bool):
    """(a_i, d_j, f_ij) of each transfer that uses the buffer, in order."""
    return [
        (inst.a(i), inst.d(j), inst.f(i, j))
        for (i, j, _, _) in sol.transfers
        if include_diagonal or i != j
    ]


def _occupancy(terms, t_r: float) -> float:
    """:func:`occupancy_at` summed over :func:`_buffer_terms`."""
    occ = 0.0
    limit = t_r + EPS
    for a_i, d_j, f_ij in terms:
        if a_i <= limit:
            occ += f_ij
        if d_j <= limit:
            occ -= f_ij
    return occ


def check_solution(
    inst: Instance,
    sol: Solution,
    form: Formulation,
    include_diagonal: bool = False,
) -> ViolationReport:
    """Every violated constraint instance, ordered by (family, indices).

    Dock uniqueness is structural in the Solution representation and can never
    be violated. Violations are data, not errors; a dock array or transfer
    outside the instance is an error (ValueError, as in objective_value). An
    unbounded buffer has no binding capacity row: occupancy is compared with
    ``math.inf``, as in the compiled rules. A ``form`` that is not a
    Formulation raises ValueError.
    """
    _check_form(form)
    _dock_array(inst, sol)
    _check_diagonal_use(sol, include_diagonal)
    xhat = compute_xhat(inst)
    violations: list[Violation] = []

    def add(family, indices, lhs, rhs, message):
        violations.append(
            Violation(ConstraintId(family, tuple(indices)), lhs, rhs, message)
        )

    for (i, j, k, l) in sol.transfers:
        # strict-literal diagonal: CROSS-DOCK leaves z_iikl unconstrained;
        # R-CROSS-DOCK keeps only the linking rows z <= y_ik, z <= y_il.
        if i == j and form is Formulation.CROSS_DOCK:
            continue
        if sol.dock_of(i) != k:
            add(
                ConstraintFamily.LINK_ZY_I,
                (i, j, k, l),
                1,
                0,
                f"z_{i}{j}{k}{l} = 1 but truck {i} is not at dock {k}",
            )
        if sol.dock_of(j) != l:
            add(
                ConstraintFamily.LINK_ZY_J,
                (i, j, k, l),
                1,
                0,
                f"z_{i}{j}{k}{l} = 1 but truck {j} is not at dock {l}",
            )

    if form is Formulation.CROSS_DOCK:
        shipped = set(sol.transfers)
        for i in inst.trucks():
            k = sol.dock_of(i)
            if not k:
                continue
            for j in inst.trucks():
                if j == i:
                    continue
                l = sol.dock_of(j)
                if not l:
                    continue
                if (i, j, k, l) not in shipped:
                    add(
                        ConstraintFamily.PAIR_FORCING,
                        (i, j, k, l),
                        2,
                        1,
                        f"trucks {i}@{k} and {j}@{l} are both docked, which "
                        f"forces z_{i}{j}{k}{l} = 1, but the transfer is absent",
                    )

    for (i, j, k, l) in sol.transfers:
        if i == j or k != l:
            continue
        if form is Formulation.CROSS_DOCK:
            bound = xhat[i - 1][j - 1] + xhat[j - 1][i - 1]
            rule = f"xhat_{i}{j} + xhat_{j}{i} = {bound}"
        else:
            bound = xhat[i - 1][j - 1]
            rule = f"xhat_{i}{j} = {bound}"
        if 1 > bound:
            add(
                ConstraintFamily.SAME_DOCK_TW,
                (i, j, k),
                1,
                bound,
                f"same-dock transfer z_{i}{j}{k}{k} = 1 exceeds its "
                f"precedence bound {rule}",
            )

    cap = math.inf if inst.capacity is None else inst.capacity
    terms = _buffer_terms(inst, sol, include_diagonal)
    for r, t_r in enumerate(event_times(inst), 1):
        occ = _occupancy(terms, t_r)
        if occ - cap > EPS:
            add(
                ConstraintFamily.CAPACITY,
                (r,),
                occ,
                cap,
                f"buffer occupancy {occ} at event {r} (t={t_r}) "
                f"exceeds capacity {cap}",
            )

    for (i, j, k, l) in sol.transfers:
        if i == j:
            continue
        if _time_violated(inst, form, i, j, k, l):
            margin = time_margin(inst, i, j, k, l)
            op = "<" if form is Formulation.CROSS_DOCK else "<="
            add(
                ConstraintFamily.TIME_FEASIBILITY,
                (i, j, k, l),
                margin,
                0.0,
                f"z_{i}{j}{k}{l} = 1 but d_{j} - a_{i} - t_{k}{l} = "
                f"{margin:.6g} {op} 0",
            )

    if form is Formulation.R_CROSS_DOCK:
        for i in inst.trucks():
            for j in inst.trucks():
                if j <= i:
                    continue
                k = sol.dock_of(i)
                if k and sol.dock_of(j) == k:
                    if xhat[i - 1][j - 1] + xhat[j - 1][i - 1] == 0:
                        add(
                            ConstraintFamily.DOCK_CONFLICT,
                            (i, j, k),
                            2,
                            1,
                            f"trucks {i} and {j} share dock {k} but their "
                            f"time windows overlap",
                        )

    violations.sort(key=lambda v: (v.constraint.family, v.constraint.indices))
    return ViolationReport(violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class Rules:
    """The model rules of one instance and formulation, in both diagonal modes.

    Every table is 0-based, though :meth:`load` takes 1-based (i, j) pairs:

    * ``time_ok[i][j][k][l]`` is true where z_ijkl = 1 passes time
      feasibility. With the margin d_j - a_i - t_kl (:func:`time_margin`),
      CROSS-DOCK fails it iff f_ij > 0 and the margin is < 0, R-CROSS-DOCK
      iff the margin is <= 0.
    * ``same_dock_bound[i][j]`` bounds z_ijkk: xhat_ij + xhat_ji in
      CROSS-DOCK, xhat_ij in R-CROSS-DOCK. ``overlap[i][j]`` is true iff the
      windows intersect (xhat_ij + xhat_ji = 0): no shared dock in R-CROSS-DOCK.
    * ``allowed`` is true where z_ijkl = 1 passes both the time and the
      same-dock rule. Self-transfers (i = j) face neither rule.
    * ``hold[i][j] = (lo, hi, units)``: shipping i -> j adds
      f_ij * ([a_i <= t_r] - [d_j <= t_r]) to the buffer at the r-th of the
      sorted ``events``, which is ``units`` for lo <= r < hi and 0 elsewhere
      (units = -f_ij when d_j comes before a_i). :meth:`load` sums it over a
      transfer set.
    * ``ct[k][l]`` is c_kl * t_kl and ``pf[i][j]`` is p_ij * f_ij.
    * ``limit`` is the fit rule of every capacity row: a load x fits iff
      x - capacity <= EPS, that is iff x <= ``limit``, the largest float
      that passes (the float capacity + EPS can round either way of it);
      ``math.inf`` when the buffer is unbounded.
    """

    events: tuple[float, ...]
    time_ok: tuple
    same_dock_bound: tuple
    overlap: tuple
    allowed: tuple
    hold: tuple
    ct: tuple
    pf: tuple
    limit: float

    def load(self, pairs) -> list[float]:
        """Buffer occupancy at each event when the 1-based (i, j) ``pairs`` ship."""
        occ = [0.0] * len(self.events)
        for i, j in pairs:
            lo, hi, units = self.hold[i - 1][j - 1]
            for r in range(lo, hi):
                occ[r] += units
        return occ


@lru_cache(maxsize=64)
def compile_rules(inst: Instance, form: Formulation, /) -> Rules:
    """The :class:`Rules` of an instance, cached per (instance, formulation);
    the arguments are positional so that equal calls share one cache entry.
    A ``form`` that is not a Formulation raises ValueError (uncached)."""
    _check_form(form)
    n, m = inst.n, inst.m
    a, d, t, f = inst.arrival, inst.departure, inst.transfer_time, inst.flow
    cd = form is Formulation.CROSS_DOCK
    xh = compute_xhat(inst)
    events = event_times(inst)
    trucks, docks = range(n), range(m)

    bound = tuple(
        tuple(xh[i][j] + xh[j][i] if cd else xh[i][j] for j in trucks) for i in trucks
    )
    overlap = tuple(
        tuple(i != j and xh[i][j] + xh[j][i] == 0 for j in trucks) for i in trucks
    )
    every = tuple((True,) * m for _ in docks)
    time_ok, allowed = [], []
    for i in trucks:
        time_i, allowed_i = [], []
        for j in trucks:
            slack = d[j] - a[i]  # the time margin is slack - t_kl
            if i == j:
                ok = allow = every
            else:
                if not cd:
                    ok = tuple([tuple([slack - x > EPS for x in row]) for row in t])
                elif f[i][j] > EPS:
                    ok = tuple([tuple([slack - x >= -EPS for x in row]) for row in t])
                else:
                    ok = every
                allow = ok
                if bound[i][j] < 1:  # a shared dock breaks the same-dock rule
                    allow = tuple(
                        [row[:k] + (False,) + row[k + 1 :] for k, row in enumerate(ok)]
                    )
            time_i.append(ok)
            allowed_i.append(allow)
        time_ok.append(tuple(time_i))
        allowed.append(tuple(allowed_i))

    # the events ascend, so [a_i <= t_r] and [d_j <= t_r] switch on for good
    # at the first event where they hold: each transfer holds one interval
    arrive = [sum(a[i] > e + EPS for e in events) for i in trucks]
    depart = [sum(d[j] > e + EPS for e in events) for j in trucks]
    hold = tuple(
        tuple(
            (arrive[i], depart[j], f[i][j])
            if arrive[i] <= depart[j]
            else (depart[j], arrive[i], -f[i][j])
            for j in trucks
        )
        for i in trucks
    )
    # step to the largest x with x - cap <= EPS (inf - inf is NaN: inf stays)
    cap = math.inf if inst.capacity is None else inst.capacity
    limit = cap + EPS
    while limit - cap > EPS:
        limit = math.nextafter(limit, -math.inf)
    while math.nextafter(limit, math.inf) - cap <= EPS:
        limit = math.nextafter(limit, math.inf)
    return Rules(
        events=events,
        time_ok=tuple(time_ok),
        same_dock_bound=bound,
        overlap=overlap,
        allowed=tuple(allowed),
        hold=hold,
        ct=tuple(
            tuple(inst.transfer_cost[k][l] * t[k][l] for l in docks) for k in docks
        ),
        pf=tuple(tuple(inst.penalty[i][j] * f[i][j] for j in trucks) for i in trucks),
        limit=limit,
    )


__all__ = [
    "Formulation",
    "ConstraintFamily",
    "ConstraintId",
    "Violation",
    "ViolationReport",
    "UnlinkedTransferError",
    "objective_value",
    "check_solution",
    "occupancy_at",
    "time_margin",
    "Rules",
    "compile_rules",
]
